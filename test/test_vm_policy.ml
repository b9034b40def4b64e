(* Tiered-execution policy tests: compilation thresholds, compiled-method
   accounting, interpreter/compiled cost accounting, and the direct IR
   executor (including the simultaneous-phi "swap" hazard). *)

open Pea_bytecode
open Pea_rt
open Pea_vm

let vint, as_int = Test_support.(vint, as_int)

let simple_src =
  "class C { static int f(int x) { return x * 2 + 1; } }\n\
   class Main { static int main() { return 0; } }"

let test_threshold_respected () =
  let program = Link.compile_source simple_src in
  let config = { Jit.default_config with Jit.compile_threshold = 10 } in
  let vm = Vm.create ~config program in
  let f = Link.find_method program "C" "f" in
  for _ = 1 to 9 do
    ignore (Vm.invoke vm f [ vint 3 ])
  done;
  Alcotest.(check bool) "not compiled below threshold" true (Vm.compiled_graph vm f = None);
  ignore (Vm.invoke vm f [ vint 3 ]);
  ignore (Vm.invoke vm f [ vint 3 ]);
  Alcotest.(check bool) "compiled at threshold" true (Vm.compiled_graph vm f <> None);
  Alcotest.(check int) "counted" 1 (Stats.get (Vm.stats vm) Stats.compiled_methods)

let test_threshold_zero_compiles_immediately () =
  let program = Link.compile_source simple_src in
  let config = { Jit.default_config with Jit.compile_threshold = 0 } in
  let vm = Vm.create ~config program in
  let f = Link.find_method program "C" "f" in
  Alcotest.(check int) "result" 7 (as_int (Vm.invoke vm f [ vint 3 ]));
  Alcotest.(check bool) "compiled on first call" true (Vm.compiled_graph vm f <> None)

let test_compiled_code_cheaper () =
  (* the same work costs fewer model cycles once compiled *)
  let program = Link.compile_source simple_src in
  let f = Link.find_method program "C" "f" in
  let measure threshold =
    let vm = Vm.create ~config:{ Jit.default_config with Jit.compile_threshold = threshold } program in
    Vm.warm_up vm f [ vint 3 ] 5 (* below/above threshold *);
    let before = Stats.snapshot (Vm.stats vm) in
    ignore (Vm.invoke vm f [ vint 3 ]);
    (Stats.snapshot (Vm.stats vm)).Stats.s_cycles - before.Stats.s_cycles
  in
  let interpreted = measure 1000 in
  let compiled = measure 1 in
  Alcotest.(check bool)
    (Printf.sprintf "compiled (%d) cheaper than interpreted (%d)" compiled interpreted)
    true (compiled < interpreted)

let test_each_method_compiled_once () =
  let program = Link.compile_source simple_src in
  let config = { Jit.default_config with Jit.compile_threshold = 2 } in
  let vm = Vm.create ~config program in
  let f = Link.find_method program "C" "f" in
  Vm.warm_up vm f [ vint 1 ] 50;
  Alcotest.(check int) "compiled exactly once" 1 (Stats.get (Vm.stats vm) Stats.compiled_methods)

(* ------------------------------------------------------------------ *)
(* Direct IR-executor behaviour                                        *)
(* ------------------------------------------------------------------ *)

(* The classic swap problem: two loop phis exchanging values every
   iteration. If the executor assigned phis sequentially instead of
   simultaneously, one value would be lost. *)
let test_phi_swap () =
  let src =
    "class C {\n\
    \  static int f(int n) {\n\
    \    int a = 1;\n\
    \    int b = 1000000;\n\
    \    int i = 0;\n\
    \    while (i < n) { int t = a; a = b; b = t; i++; }\n\
    \    return a * 2 + b;\n\
    \  }\n\
     }\n\
     class Main { static int main() { return 0; } }"
  in
  let program = Link.compile_source src in
  let f = Link.find_method program "C" "f" in
  let config = { Jit.default_config with Jit.compile_threshold = 0 } in
  let vm = Vm.create ~config program in
  (* odd swap count: a and b exchanged *)
  Alcotest.(check int) "swapped once" 2000001 (as_int (Vm.invoke vm f [ vint 1 ]));
  Alcotest.(check int) "swapped twice" 1000002 (as_int (Vm.invoke vm f [ vint 2 ]));
  Alcotest.(check int) "swapped 7x" 2000001 (as_int (Vm.invoke vm f [ vint 7 ]));
  (* the canonicalizer may have simplified, but the interpreter agrees *)
  let reference vm_args =
    as_int (Interp.run (Interp.make_env program) f vm_args)
  in
  for n = 0 to 10 do
    Alcotest.(check int)
      (Printf.sprintf "interp agrees for n=%d" n)
      (reference [ vint n ])
      (as_int (Vm.invoke vm f [ vint n ]))
  done

(* Deeply recursive compiled code: compiled frames recursing through the
   VM dispatcher. *)
let test_recursive_compiled () =
  let src =
    "class C { static int tri(int n) { if (n <= 0) return 0; return n + C.tri(n - 1); } }\n\
     class Main { static int main() { return 0; } }"
  in
  let program = Link.compile_source src in
  let config = { Jit.default_config with Jit.compile_threshold = 3 } in
  let vm = Vm.create ~config program in
  let tri = Link.find_method program "C" "tri" in
  Vm.warm_up vm tri [ vint 10 ] 10;
  Alcotest.(check bool) "compiled" true (Vm.compiled_graph vm tri <> None);
  Alcotest.(check int) "tri(100)" 5050 (as_int (Vm.invoke vm tri [ vint 100 ]))

let () =
  Alcotest.run "vm_policy"
    [
      ( "policy",
        [
          Alcotest.test_case "threshold respected" `Quick test_threshold_respected;
          Alcotest.test_case "threshold zero" `Quick test_threshold_zero_compiles_immediately;
          Alcotest.test_case "compiled cheaper" `Quick test_compiled_code_cheaper;
          Alcotest.test_case "compiled once" `Quick test_each_method_compiled_once;
        ] );
      ( "executor",
        [
          Alcotest.test_case "phi swap" `Quick test_phi_swap;
          Alcotest.test_case "recursive compiled" `Quick test_recursive_compiled;
        ] );
    ]
