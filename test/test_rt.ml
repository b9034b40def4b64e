(* Unit tests for the runtime substrate: heap accounting, stats
   snapshots/diffs and dump lines, the cost model, and value helpers. *)

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
  let o1 = Heap.alloc_object heap ~mid:0 ~bci:0 small in
  let o2 = Heap.alloc_object heap ~mid:0 ~bci:0 big in
  Alcotest.(check int) "two allocations" 2 (Stats.get stats Stats.allocations);
  (* 16 + 8*1 and 16 + 8*4 *)
  Alcotest.(check int) "bytes" (24 + 48) (Stats.get stats Stats.allocated_bytes);
  Alcotest.(check bool) "distinct identities" true (o1.Value.o_id <> o2.Value.o_id);
  Alcotest.(check int) "small layout" 1 (Array.length o1.Value.o_fields);
  Alcotest.(check int) "big layout" 4 (Array.length o2.Value.o_fields)

let test_array_accounting () =
  let stats, heap = make_heap () in
  ignore (Heap.alloc_array heap ~mid:0 ~bci:0 Pea_mjava.Ast.Tint 10); (* 16 + 40 *)
  ignore (Heap.alloc_array heap ~mid:0 ~bci:0 (Pea_mjava.Ast.Tclass "Object") 10); (* 16 + 80 *)
  Alcotest.(check int) "bytes" (56 + 96) (Stats.get stats Stats.allocated_bytes);
  match Heap.alloc_array heap ~mid:0 ~bci:0 Pea_mjava.Ast.Tint (-1) with
  | exception Heap.Negative_array_size _ -> ()
  | _ -> Alcotest.fail "negative size accepted"

let test_monitor_accounting () =
  let stats, heap = make_heap () in
  let small, _ = classes () in
  let o = Value.Vobj (Heap.alloc_object heap ~mid:0 ~bci:0 small) in
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
  Stats.add stats Stats.allocations 5;
  Stats.add stats Stats.cycles 100;
  let s1 = Stats.snapshot stats in
  Stats.add stats Stats.allocations 7;
  Stats.add stats Stats.cycles 150;
  let s2 = Stats.snapshot stats in
  let d = Stats.diff s2 s1 in
  Alcotest.(check int) "alloc delta" 7 d.Stats.s_allocations;
  Alcotest.(check int) "cycle delta" 150 d.Stats.s_cycles;
  Alcotest.(check int) "later total" 12 s2.Stats.s_allocations

(* [dump] prints counters, then histograms, in declaration order; a
   histogram keeps count, sum, min and max, and reads 0 until observed.
   Each instance owns its storage, and [cell] is that storage. *)
let test_stats_dump () =
  let stats = Stats.create () in
  Stats.incr stats Stats.allocations;
  Stats.add stats Stats.allocations 4;
  List.iter (Stats.observe stats Stats.remat_per_deopt) [ 3; 10; 5 ];
  let line name = List.find (fun l -> String.starts_with ~prefix:(name ^ ":") l) (Stats.dump stats) in
  Alcotest.(check string) "counter" "allocations: 5" (line "allocations");
  Alcotest.(check string) "histogram" "remat_per_deopt: n=3 sum=18 min=3 max=10"
    (line "remat_per_deopt");
  Alcotest.(check string) "unobserved histogram" "compile_latency: n=0 sum=0 min=0 max=0"
    (line "compile_latency");
  let names = List.map (fun l -> String.sub l 0 (String.index l ':')) (Stats.dump stats) in
  Alcotest.(check (list string)) "declaration order, counters first"
    [ "allocations"; "allocated_bytes"; "monitor_ops" ]
    (List.filteri (fun i _ -> i < 3) names);
  Alcotest.(check string) "histograms last" "compile_latency" (List.nth names (List.length names - 1));
  let cells, i = Stats.cell stats Stats.cycles in
  cells.(i) <- cells.(i) + 7;
  Alcotest.(check int) "a cell write is a counter write" 7 (Stats.get stats Stats.cycles);
  Alcotest.(check int) "instances are independent" 0 (Stats.get (Stats.create ()) Stats.allocations)

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
  let a = Value.Vobj (Heap.alloc_object heap ~mid:0 ~bci:0 small) in
  let b = Value.Vobj (Heap.alloc_object heap ~mid:0 ~bci:0 small) in
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
          Alcotest.test_case "monitor accounting" `Quick test_monitor_accounting;
        ] );
      ( "stats",
        [
          Alcotest.test_case "snapshot/diff" `Quick test_stats_snapshot_diff;
          Alcotest.test_case "dump lines" `Quick test_stats_dump;
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
