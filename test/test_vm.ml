(* Differential testing of the tiered VM: for every corpus program, the
   interpreter-only run is the reference semantics; compiled runs under
   every optimization level must produce identical results and prints.
   Additionally, the paper's central invariant is checked: partial escape
   analysis never increases the dynamic number of allocations or monitor
   operations ("there will always be at most as many dynamic allocations
   as in the original code", §4). *)

open Pea_rt
open Pea_vm

let string_of_result = function
  | None -> "void"
  | Some v -> Value.string_of_value v

let config opt ~threshold =
  Test_env.apply { Jit.default_config with Jit.opt; compile_threshold = threshold }

let run_vm src cfg ~iterations =
  let program = Pea_bytecode.Link.compile_source src in
  let vm = Vm.create ~config:cfg program in
  Vm.run_main_iterations vm iterations

let opt_name = function Jit.O_none -> "none" | Jit.O_ea -> "ea" | Jit.O_pea -> "pea"

(* One corpus program, one optimization level: semantics must match the
   interpreter across repeated iterations (cold -> warm -> compiled). *)
let check_semantics name src opt () =
  let reference = Run.run_source src in
  let iterations = 6 in
  List.iter
    (fun threshold ->
      let r = run_vm src (config opt ~threshold) ~iterations in
      Alcotest.(check string)
        (Printf.sprintf "%s/%s/t%d return" name (opt_name opt) threshold)
        (string_of_result reference.Run.return_value)
        (string_of_result r.Vm.return_value);
      let expected_prints =
        List.concat (List.init iterations (fun _ -> reference.Run.printed))
      in
      Alcotest.(check (list string))
        (Printf.sprintf "%s/%s/t%d prints" name (opt_name opt) threshold)
        (List.map Value.string_of_value expected_prints)
        (List.map Value.string_of_value r.Vm.printed))
    [ 0; 3 ]

(* Allocation / monitor monotonicity: O_pea <= O_ea <= ... is not required
   in general, but O_pea <= O_none and O_ea <= O_none must hold. *)
let check_monotonicity name src () =
  let iterations = 8 in
  let measure opt = run_vm src (config opt ~threshold:0) ~iterations in
  let none = measure Jit.O_none in
  let ea = measure Jit.O_ea in
  let pea = measure Jit.O_pea in
  let allocs (r : Vm.result) = r.Vm.stats.Stats.s_allocations in
  let monitors (r : Vm.result) = r.Vm.stats.Stats.s_monitor_ops in
  if allocs pea > allocs none then
    Alcotest.failf "%s: PEA increased allocations (%d > %d)" name (allocs pea) (allocs none);
  if allocs ea > allocs none then
    Alcotest.failf "%s: EA increased allocations (%d > %d)" name (allocs ea) (allocs none);
  if monitors pea > monitors none then
    Alcotest.failf "%s: PEA increased monitor ops (%d > %d)" name (monitors pea) (monitors none);
  (* PEA subsumes whole-method EA on allocation removal *)
  if allocs pea > allocs ea then
    Alcotest.failf "%s: PEA removed fewer allocations than EA (%d > %d)" name (allocs pea)
      (allocs ea)

let semantics_cases =
  List.concat_map
    (fun (name, src) ->
      List.map
        (fun opt ->
          Alcotest.test_case (Printf.sprintf "%s [%s]" name (opt_name opt)) `Quick
            (check_semantics name src opt))
        [ Jit.O_none; Jit.O_ea; Jit.O_pea ])
    Programs.corpus

let monotonicity_cases =
  List.map
    (fun (name, src) -> Alcotest.test_case name `Quick (check_monotonicity name src))
    Programs.corpus

(* PEA should fully remove the allocations of the classic fully-local
   example once the method is compiled. *)
let test_scalar_replacement_wins () =
  if Test_env.opt_forced () then ()
  else
  let src =
    "class P { int x; int y; P(int a, int b) { x = a; y = b; } }\n\
     class Main {\n\
    \  static int compute(int i) { P p = new P(i, i * 2); return p.x + p.y; }\n\
    \  static int main() { int acc = 0; int i = 0; while (i < 100) { acc = acc + compute(i); i = i + 1; } return acc; }\n\
     }"
  in
  let none = run_vm src (config Jit.O_none ~threshold:0) ~iterations:2 in
  let pea = run_vm src (config Jit.O_pea ~threshold:0) ~iterations:2 in
  Alcotest.(check string)
    "same result"
    (string_of_result none.Vm.return_value)
    (string_of_result pea.Vm.return_value);
  if pea.Vm.stats.Stats.s_allocations >= none.Vm.stats.Stats.s_allocations then
    Alcotest.failf "expected PEA to remove allocations (%d vs %d)"
      pea.Vm.stats.Stats.s_allocations none.Vm.stats.Stats.s_allocations

(* Lock elision: a synchronized method on a non-escaping receiver loses its
   monitor operations under PEA. *)
let test_lock_elision () =
  if Test_env.opt_forced () then ()
  else
  let src =
    "class G { int v; synchronized int addTo(int x) { v = v + x; return v; } }\n\
     class Main {\n\
    \  static int once(int i) { G g = new G(); g.addTo(i); return g.addTo(i); }\n\
    \  static int main() { int acc = 0; int i = 0; while (i < 50) { acc = acc + once(i); i = i + 1; } return acc; }\n\
     }"
  in
  let none = run_vm src (config Jit.O_none ~threshold:0) ~iterations:2 in
  let pea = run_vm src (config Jit.O_pea ~threshold:0) ~iterations:2 in
  Alcotest.(check string)
    "same result"
    (string_of_result none.Vm.return_value)
    (string_of_result pea.Vm.return_value);
  if pea.Vm.stats.Stats.s_monitor_ops >= none.Vm.stats.Stats.s_monitor_ops then
    Alcotest.failf "expected PEA to elide monitors (%d vs %d)" pea.Vm.stats.Stats.s_monitor_ops
      none.Vm.stats.Stats.s_monitor_ops

(* [==] and [!=] on two booleans compare them by value, as in Java, in
   the interpreter, in compiled code and in a loop entered through OSR.
   Fixed configs: each one is the tier it names. *)
let bool_equality_src =
  "class Main {\n\
  \  static int count(int n) {\n\
  \    int hits = 0; int i = 0;\n\
  \    while (i < n) {\n\
  \      boolean even = i % 2 == 0;\n\
  \      boolean small = i < 5;\n\
  \      if (even == small) { hits = hits + 1; }\n\
  \      if ((i < 3) != (i % 3 == 0)) { hits = hits + 100; }\n\
  \      i = i + 1;\n\
  \    }\n\
  \    return hits;\n\
  \  }\n\
  \  static int main() {\n\
  \    boolean a = true; boolean b = 1 < 2;\n\
  \    int r = Main.count(10);\n\
  \    if (a == b) { r = r + 10000; }\n\
  \    return r;\n\
  \  }\n\
   }"

let test_bool_equality () =
  let program = Pea_bytecode.Link.compile_source bool_equality_src in
  let never = { Jit.default_config with Jit.compile_threshold = max_int; osr = false } in
  List.iter
    (fun (name, config, iterations, reached) ->
      let r = Vm.run_main_iterations (Vm.create ~config program) iterations in
      (* 6 loop iterations with [even == small], 5 with [(i < 3) != (i % 3 == 0)] *)
      Alcotest.(check string) (name ^ " result") "10506" (string_of_result r.Vm.return_value);
      Alcotest.(check bool) (name ^ " tier reached") true (reached r.Vm.stats))
    [
      ("interpreter", never, 1, fun s -> s.Stats.s_compiled_ops = 0);
      ( "compiled",
        { Jit.default_config with Jit.compile_threshold = 2; osr = false },
        4,
        fun s -> s.Stats.s_compiled_ops > 0 );
      ( "osr",
        { never with Jit.osr = true; osr_threshold = 3 },
        1,
        fun s -> s.Stats.s_osr_entries > 0 );
    ]

let () =
  Alcotest.run "vm"
    [
      ("semantics", semantics_cases);
      ("monotonicity", monotonicity_cases);
      ( "wins",
        [
          Alcotest.test_case "scalar replacement removes allocations" `Quick
            test_scalar_replacement_wins;
          Alcotest.test_case "lock elision removes monitor ops" `Quick test_lock_elision;
        ] );
      ("booleans", [ Alcotest.test_case "== and != compare booleans" `Quick test_bool_equality ]);
    ]
