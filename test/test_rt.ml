(* Unit tests for the runtime substrate: heap accounting, per-class
   breakdown, stats snapshots/diffs, the cost model, and value helpers. *)

open Pea_bytecode
open Pea_rt

let make_heap () =
  let stats = Stats.create () in
  (stats, Heap.create stats)

let classes () =
  let program =
    Link.compile_source ~require_main:false
      "class Small { int a; }\nclass Big { int a; int b; Object o; Big[] more; }"
  in
  (Link.find_class program "Small", Link.find_class program "Big")

let test_object_accounting () =
  let stats, heap = make_heap () in
  let small, big = classes () in
  let o1 = Heap.alloc_object heap small in
  let o2 = Heap.alloc_object heap big in
  Alcotest.(check int) "two allocations" 2 (Stats.get stats Stats.allocations);
  (* 16 + 8*1 and 16 + 8*4 *)
  Alcotest.(check int) "bytes" (24 + 48) (Stats.get stats Stats.allocated_bytes);
  Alcotest.(check bool) "distinct identities" true (o1.Value.o_id <> o2.Value.o_id);
  Alcotest.(check int) "small layout" 1 (Array.length o1.Value.o_fields);
  Alcotest.(check int) "big layout" 4 (Array.length o2.Value.o_fields)

let test_array_accounting () =
  let stats, heap = make_heap () in
  ignore (Heap.alloc_array heap Pea_mjava.Ast.Tint 10); (* 16 + 40 *)
  ignore (Heap.alloc_array heap (Pea_mjava.Ast.Tclass "Object") 10); (* 16 + 80 *)
  Alcotest.(check int) "bytes" (56 + 96) (Stats.get stats Stats.allocated_bytes);
  match Heap.alloc_array heap Pea_mjava.Ast.Tint (-1) with
  | exception Heap.Negative_array_size _ -> ()
  | _ -> Alcotest.fail "negative size accepted"

let test_class_breakdown () =
  let _, heap = make_heap () in
  let small, big = classes () in
  ignore (Heap.alloc_object heap small);
  ignore (Heap.alloc_object heap small);
  ignore (Heap.alloc_object heap big);
  ignore (Heap.alloc_array heap Pea_mjava.Ast.Tint 100);
  let breakdown = Heap.class_breakdown heap in
  Alcotest.(check int) "three entries" 3 (List.length breakdown);
  (* sorted by bytes: the int[] dominates *)
  (match breakdown with
  | ("int[]", 1, 416) :: _ -> ()
  | (n, c, b) :: _ -> Alcotest.failf "unexpected top entry %s/%d/%d" n c b
  | [] -> Alcotest.fail "empty breakdown");
  let small_entry = List.find (fun (n, _, _) -> n = "Small") breakdown in
  (match small_entry with
  | _, 2, 48 -> ()
  | _, c, b -> Alcotest.failf "Small entry wrong: %d/%d" c b)

let test_monitor_accounting () =
  let stats, heap = make_heap () in
  let small, _ = classes () in
  let o = Value.Vobj (Heap.alloc_object heap small) in
  Heap.monitor_enter heap o;
  Heap.monitor_enter heap o;
  Heap.monitor_exit heap o;
  Heap.monitor_exit heap o;
  Alcotest.(check int) "four monitor ops" 4 (Stats.get stats Stats.monitor_ops);
  match Heap.monitor_exit heap o with
  | exception Heap.Unbalanced_monitor _ -> ()
  | _ -> Alcotest.fail "unbalanced exit accepted"

let test_stats_snapshot_diff () =
  let stats = Stats.create () in
  Stats.set stats Stats.allocations 5;
  Stats.set stats Stats.cycles 100;
  let s1 = Stats.snapshot stats in
  Stats.set stats Stats.allocations 12;
  Stats.set stats Stats.cycles 250;
  let s2 = Stats.snapshot stats in
  let d = Stats.diff s2 s1 in
  Alcotest.(check int) "alloc delta" 7 d.Stats.s_allocations;
  Alcotest.(check int) "cycle delta" 150 d.Stats.s_cycles;
  Stats.reset stats;
  Alcotest.(check int) "reset" 0 (Stats.get stats Stats.allocations)

let test_cost_model_shape () =
  (* allocation cost grows with size; compiled ops are cheaper than
     interpreter dispatch; deopt dwarfs both *)
  Alcotest.(check bool) "alloc grows" true (Cost.alloc_cost 400 > Cost.alloc_cost 24);
  Alcotest.(check bool) "compiled < interp" true (Cost.compiled_op < Cost.interp_dispatch);
  Alcotest.(check bool) "deopt is expensive" true
    (Cost.deopt > 10 * Cost.invoke && Cost.deopt > Cost.alloc_cost 64)

let test_value_equality () =
  let _, heap = make_heap () in
  let small, _ = classes () in
  let a = Value.Vobj (Heap.alloc_object heap small) in
  let b = Value.Vobj (Heap.alloc_object heap small) in
  Alcotest.(check bool) "identity" true (Value.equal_value a a);
  Alcotest.(check bool) "distinct objects differ" false (Value.equal_value a b);
  Alcotest.(check bool) "null = null" true (Value.equal_value Value.Vnull Value.Vnull);
  Alcotest.(check bool) "null <> object" false (Value.equal_value Value.Vnull a);
  Alcotest.(check bool) "ints by value" true (Value.equal_value (Value.Vint 3) (Value.Vint 3))

let test_default_values () =
  Alcotest.(check bool) "int" true (Value.default_value Pea_mjava.Ast.Tint = Value.Vint 0);
  Alcotest.(check bool) "bool" true (Value.default_value Pea_mjava.Ast.Tbool = Value.Vbool false);
  Alcotest.(check bool) "ref" true
    (Value.default_value (Pea_mjava.Ast.Tclass "X") = Value.Vnull)

(* Ints render through a direct decimal conversion, which must print
   exactly what [string_of_int] prints: at the digit-count steps, at both
   ends of the int range, and on random ints. *)
let test_int_rendering () =
  List.iter
    (fun n ->
      Alcotest.(check string) (string_of_int n) (string_of_int n)
        (Value.string_of_value (Value.Vint n)))
    [ 0; 9; -9; 10; -10; 99; 100; -100; max_int; min_int; max_int - 1; min_int + 1 ]

let prop_int_rendering =
  QCheck2.Test.make ~count:2000 ~name:"string_of_value (Vint n) = string_of_int n"
    ~print:string_of_int
    QCheck2.Gen.(oneof [ int; small_signed_int ])
    (fun n ->
      Value.string_of_value (Value.Vint n) = Stdlib.string_of_int n)

let () =
  Alcotest.run "rt"
    [
      ( "heap",
        [
          Alcotest.test_case "object accounting" `Quick test_object_accounting;
          Alcotest.test_case "array accounting" `Quick test_array_accounting;
          Alcotest.test_case "class breakdown" `Quick test_class_breakdown;
          Alcotest.test_case "monitor accounting" `Quick test_monitor_accounting;
        ] );
      ( "stats",
        [
          Alcotest.test_case "snapshot/diff" `Quick test_stats_snapshot_diff;
          Alcotest.test_case "cost model shape" `Quick test_cost_model_shape;
        ] );
      ( "values",
        [
          Alcotest.test_case "equality" `Quick test_value_equality;
          Alcotest.test_case "defaults" `Quick test_default_values;
          Alcotest.test_case "int rendering" `Quick test_int_rendering;
          QCheck_alcotest.to_alcotest prop_int_rendering;
        ] );
    ]
