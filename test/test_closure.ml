(* Closure execution tier tests: inline-cache behavior (monomorphic hit,
   polymorphic rebias, deopt invalidation), register-file pooling, one
   prepared graph shared by translations in parallel domains, typed
   registers across a deopt, literal goldens for the cost model's
   accounting of compiled code, and bounds on the minor words a compiled
   int loop, a comparison and a call allocate. *)

open Pea_bytecode
open Pea_rt
open Pea_vm

let vint, vbool, as_int = Test_support.(vint, vbool, as_int)

(* Inlining is off so the virtual calls survive to the IR (an inlined call
   has no dispatch and would never exercise the inline cache); escape
   analysis is off so receivers are real heap objects. *)
let ic_config =
  { Jit.default_config with Jit.opt = Jit.O_none; inline = false; compile_threshold = 5 }

let setup ?(config = ic_config) src =
  let program = Link.compile_source ~require_main:false src in
  (program, Vm.create ~config program)

let ic_src = Programs.ic_dispatch

(* A single receiver class: the cache is seeded from the interpreter's
   receiver profile, so once compiled, every dispatch is a fast-path hit —
   not even a first-call miss. *)
let test_ic_monomorphic () =
  let program, vm = setup ic_src in
  let f = Link.find_method program "C" "f" in
  let a = Option.get (Vm.invoke vm (Link.find_method program "C" "mkA") [ vint 7 ]) in
  Vm.warm_up vm f [ a; vint 10 ] 10;
  let before = Stats.snapshot (Vm.stats vm) in
  Alcotest.(check bool) "closure-compiled" true (before.Stats.s_closure_compiled_methods >= 1);
  Alcotest.(check int) "monomorphic result" 70 (as_int (Vm.invoke vm f [ a; vint 10 ]));
  let after = Stats.snapshot (Vm.stats vm) in
  Alcotest.(check bool) "ic hits" true (after.Stats.s_ic_hits - before.Stats.s_ic_hits >= 10);
  Alcotest.(check int) "no ic misses for the profiled receiver" 0
    (after.Stats.s_ic_misses - before.Stats.s_ic_misses)

(* Alternating receiver classes: each flip misses once and rebiases the
   cache, so the calls within one invocation after the flip hit again.
   Results must reflect the dynamic type throughout. *)
let test_ic_polymorphic_rebias () =
  let program, vm = setup ic_src in
  let f = Link.find_method program "C" "f" in
  let a = Option.get (Vm.invoke vm (Link.find_method program "C" "mkA") [ vint 3 ]) in
  let b = Option.get (Vm.invoke vm (Link.find_method program "C" "mkB") [ vint 3 ]) in
  Vm.warm_up vm f [ a; vint 10 ] 10;
  let before = Stats.snapshot (Vm.stats vm) in
  (* B.get doubles: 10 * 3 * 2 *)
  Alcotest.(check int) "B receiver" 60 (as_int (Vm.invoke vm f [ b; vint 10 ]));
  Alcotest.(check int) "A receiver" 30 (as_int (Vm.invoke vm f [ a; vint 10 ]));
  Alcotest.(check int) "B again" 60 (as_int (Vm.invoke vm f [ b; vint 10 ]));
  let after = Stats.snapshot (Vm.stats vm) in
  let misses = after.Stats.s_ic_misses - before.Stats.s_ic_misses in
  let hits = after.Stats.s_ic_hits - before.Stats.s_ic_hits in
  (* one miss per receiver flip (3 flips), the other 27 dispatches hit on
     the rebiased cache *)
  Alcotest.(check int) "one miss per receiver flip" 3 misses;
  Alcotest.(check int) "rebiased cache serves the rest" 27 hits

(* A deopt invalidates the compiled code and with it the cached dispatch
   targets; the recompiled closure code must still dispatch correctly for
   every receiver. *)
let test_ic_deopt_invalidation () =
  let src =
    "class A { int v; int get() { return v; } }\n\
     class B extends A { int get() { return v * 2; } }\n\
     class C {\n\
    \  static A global;\n\
    \  static A mkA(int v) { A a = new A(); a.v = v; return a; }\n\
    \  static A mkB(int v) { B b = new B(); b.v = v; return b; }\n\
    \  static int f(A a, boolean cold) {\n\
    \    if (cold) { C.global = a; }\n\
    \    return a.get() + 1;\n\
    \  }\n\
     }"
  in
  let config = { ic_config with Jit.compile_threshold = 25; prune = true } in
  let program, vm = setup ~config src in
  let f = Link.find_method program "C" "f" in
  let a = Option.get (Vm.invoke vm (Link.find_method program "C" "mkA") [ vint 5 ]) in
  let b = Option.get (Vm.invoke vm (Link.find_method program "C" "mkB") [ vint 5 ]) in
  Vm.warm_up vm f [ a; vbool false ] 40;
  let s0 = Stats.snapshot (Vm.stats vm) in
  Alcotest.(check bool) "closure-compiled" true (s0.Stats.s_closure_compiled_methods >= 1);
  (* trigger the pruned branch: deopt, invalidation, recompilation *)
  Alcotest.(check int) "deopt call result" 6 (as_int (Vm.invoke vm f [ a; vbool true ]));
  let s1 = Stats.snapshot (Vm.stats vm) in
  Alcotest.(check int) "one deopt" 1 (s1.Stats.s_deopts - s0.Stats.s_deopts);
  (* the recompiled code re-seeds its caches and dispatches correctly *)
  Alcotest.(check int) "A after recompile" 6 (as_int (Vm.invoke vm f [ a; vbool true ]));
  Alcotest.(check int) "B after recompile" 11 (as_int (Vm.invoke vm f [ b; vbool true ]));
  let s2 = Stats.snapshot (Vm.stats vm) in
  Alcotest.(check int) "no further deopts" 0 (s2.Stats.s_deopts - s1.Stats.s_deopts);
  Alcotest.(check bool) "recompiled for the closure tier" true
    (s2.Stats.s_closure_compiled_methods > s0.Stats.s_closure_compiled_methods)

(* A bare interpreter environment over [program]: fresh heap, stats,
   profile and statics. *)
let bare_env program = Interp.make_env program

(* Register files are pooled: one invocation acquires the file, a normal
   return releases it, and the next invocation reuses it (the pool never
   grows beyond the call depth). *)
let test_register_file_pool () =
  let program = Link.compile_source ~require_main:false "class C { static int f(int x) { int y = x * 3; return y + 1; } }" in
  let env = bare_env program in
  let m = Link.find_method program "C" "f" in
  let compiled =
    Jit.compile { Jit.default_config with Jit.prune = false } program env.Interp.profile m
  in
  let code = Closure_compile.compile env compiled.Jit.prepared in
  Alcotest.(check int) "empty pool after translation" 0 (Closure_compile.pool_depth code);
  Alcotest.(check int) "first run" 16 (as_int (Closure_compile.run code [ vint 5 ]));
  Alcotest.(check int) "file released on return" 1 (Closure_compile.pool_depth code);
  Alcotest.(check int) "second run reuses the file" 31
    (as_int (Closure_compile.run code [ vint 10 ]));
  Alcotest.(check int) "pool does not grow" 1 (Closure_compile.pool_depth code)

(* At a deopt the register file goes with the exception: its lookup reads
   the file while rematerialization and re-entrant interpretation run, so
   the file never returns to the pool (the VM drops the code that owns
   the pool anyway). The deopt handled from the exception's lookup gives
   the interpreter's result. *)
let test_file_goes_with_deopt () =
  let src =
    "class C {\n\
    \  static int g;\n\
    \  static int f(int x, boolean cold) {\n\
    \    int y = x * 3;\n\
    \    if (cold) { C.g = y; }\n\
    \    return y + 1;\n\
    \  }\n\
     }"
  in
  let program = Link.compile_source ~require_main:false src in
  let env = bare_env program in
  let m = Link.find_method program "C" "f" in
  (* let the interpreter profile the branch as never-taken, so compilation
     prunes it to a Deopt terminator *)
  for _ = 1 to 30 do
    ignore (Interp.run env m [ vint 2; vbool false ])
  done;
  let compiled = Jit.compile Jit.default_config program env.Interp.profile m in
  let code = Closure_compile.compile env compiled.Jit.prepared in
  Alcotest.(check int) "hot path" 16 (as_int (Closure_compile.run code [ vint 5; vbool false ]));
  Alcotest.(check int) "pool holds the file" 1 (Closure_compile.pool_depth code);
  let stats = env.Interp.stats in
  let before = Stats.get stats Stats.deopts in
  (match Closure_compile.run code [ vint 7; vbool true ] with
  | _ -> Alcotest.fail "expected a deopt"
  | exception Ir_exec.Deoptimize (d, lookup) ->
      Alcotest.(check int) "the file went with the deopt" 0 (Closure_compile.pool_depth code);
      Alcotest.(check int) "deopting call result" 22 (as_int (Deopt.handle env d lookup)));
  Alcotest.(check int) "deopt actually fired" (before + 1) (Stats.get stats Stats.deopts);
  Alcotest.(check int) "the file stays out of the pool" 0 (Closure_compile.pool_depth code);
  Alcotest.(check int) "escaped value visible" 21 (as_int (Some env.Interp.globals.(0)))

(* One prepared graph backs the translations of many VMs (the serving
   layer's shared code cache hands a single record to every tenant's
   domain), so translating and running it may only read the record. The
   loop's phis include a swap, a cyclic parallel move that goes through
   scratch space: each translation must own its scratch. Two domains run
   their own translations of one record at the same time, and each must
   match a single-domain run result for result and cycle for cycle. *)
let test_shared_prepared_domains () =
  let src =
    "class C {\n\
    \  static int f(int n) {\n\
    \    int a = 3; int b = 5; int s = 0; int i = 0;\n\
    \    while (i < n) { int t = a; a = b; b = t; s = s + a * i; i = i + 1; }\n\
    \    return s;\n\
    \  }\n\
     }"
  in
  let program = Link.compile_source ~require_main:false src in
  let m = Link.find_method program "C" "f" in
  let compiled =
    Jit.compile { Jit.default_config with Jit.prune = false } program (Profile.create program) m
  in
  let ns = List.init 2000 (fun k -> k mod 37) in
  (* per invocation: (result, cycles charged) *)
  let run_all () =
    let env = bare_env program in
    let code = Closure_compile.compile env compiled.Jit.prepared in
    List.map
      (fun n ->
        let before = Stats.get env.Interp.stats Stats.cycles in
        let r = as_int (Closure_compile.run code [ vint n ]) in
        (r, Stats.get env.Interp.stats Stats.cycles - before))
      ns
  in
  let reference = run_all () in
  let ienv = bare_env program in
  List.iter2
    (fun n (r, _) ->
      Alcotest.(check int) (Printf.sprintf "f(%d) = interpreter" n)
        (as_int (Interp.run ienv m [ vint n ])) r)
    ns reference;
  let doms = List.init 2 (fun _ -> Domain.spawn run_all) in
  List.iteri
    (fun i d ->
      Alcotest.(check (list (pair int int))) (Printf.sprintf "domain %d = single domain" i)
        reference (Domain.join d))
    doms

(* Literal goldens for compiled code's cost accounting. The values were
   recorded from the retired direct IR walker, which charged identically
   (both executors were checked to produce them before it was deleted);
   they pin what a compiled operation, a deopt and a rematerialization
   cost, so an accounting change shows up here as a diff. Fixed configs:
   the values belong to exactly these settings. *)

(* The scenario covers compiled arithmetic, allocation, virtual calls,
   field traffic and a deopt with a virtual object in the frame state. *)
let test_scenario_golden () =
  let config = { Jit.default_config with Jit.compile_threshold = 25 } in
  let program, vm = setup ~config Programs.tier_parity in
  let f = Link.find_method program "C" "f" in
  let a = Option.get (Vm.invoke vm (Link.find_method program "C" "mkA") [ vint 2 ]) in
  let b = Option.get (Vm.invoke vm (Link.find_method program "C" "mkB") [ vint 2 ]) in
  Vm.warm_up vm f [ a; vint 1; vbool false ] 40;
  Alcotest.(check int) "hot" 13 (as_int (Vm.invoke vm f [ a; vint 10; vbool false ]));
  Alcotest.(check int) "deopt" 23 (as_int (Vm.invoke vm f [ a; vint 20; vbool true ]));
  Alcotest.(check int) "poly" 35 (as_int (Vm.invoke vm f [ b; vint 30; vbool true ]));
  let s = Stats.snapshot (Vm.stats vm) in
  List.iter
    (fun (name, want, got) -> Alcotest.(check int) name want got)
    [
      ("cycles", 9288, s.Stats.s_cycles);
      ("compiled_ops", 84, s.Stats.s_compiled_ops);
      ("interpreted_instrs", 488, s.Stats.s_interpreted_instrs);
      ("allocations", 29, s.Stats.s_allocations);
      ("allocated_bytes", 696, s.Stats.s_allocated_bytes);
      ("monitor_ops", 0, s.Stats.s_monitor_ops);
      ("stack_allocs", 0, s.Stats.s_stack_allocs);
      ("deopts", 2, s.Stats.s_deopts);
      ("rematerialized", 2, s.Stats.s_rematerialized);
    ]

(* Table-1 metrics of the three most invoke-heavy workload rows, per
   configuration: (cycles, allocations, MB, monitor ops) per iteration
   and deopts. Every value here is exact in binary floating point. *)
let row_goldens =
  [
    ( "factorie",
      [
        ("without", (4142568., 23200., 0.73455810546875, 11600., 0));
        ("ea", (3460256., 13166., 0.4283447265625, 11600., 0));
        ("pea", (3139188., 9261., 0.309173583984375, 11600., 0));
      ] );
    ( "SPECjbb2005",
      [
        ("without", (3324188., 8000., 0.57647705078125, 4160., 0));
        ("ea", (3194068., 6120., 0.5194091796875, 4000., 0));
        ("pea", (3085388., 5018., 0.48577880859375, 4000., 0));
      ] );
    ( "tradebeans",
      [
        ("without", (1250916., 7875., 0.341033935546875, 4000., 0));
        ("ea", (1226436., 7515., 0.330047607421875, 4000., 0));
        ("pea", (1143076., 7021., 0.314971923828125, 4000., 0));
      ] );
  ]

let test_row_goldens () =
  let module H = Pea_workloads.Harness in
  List.iter
    (fun (name, want) ->
      let rr = H.run_row (Option.get (Pea_workloads.Spec.find name)) in
      List.iter2
        (fun (label, (cycles, allocs, mb, monitors, deopts)) (m : H.measurement) ->
          let what field = Printf.sprintf "%s %s %s" name label field in
          Alcotest.(check (float 0.)) (what "cycles/iter") cycles m.H.m_cycles_per_iter;
          Alcotest.(check (float 0.)) (what "allocs/iter") allocs m.H.m_allocs_per_iter;
          Alcotest.(check (float 0.)) (what "MB/iter") mb m.H.m_mb_per_iter;
          Alcotest.(check (float 0.)) (what "monitor ops/iter") monitors m.H.m_monitor_ops_per_iter;
          Alcotest.(check int) (what "deopts") deopts m.H.m_deopts)
        want
        [ rr.H.rr_without; rr.H.rr_with_ea; rr.H.rr_with_pea ])
    row_goldens

(* What a compiled operation that traps in the middle of its block
   charges: itself and the operations before it, each before its body
   runs, and nothing after it. Each method is compiled at threshold 2,
   then called with arguments that make one operation trap. The deltas
   are literals recorded from the closure tier before it was threaded,
   which charged identically. *)
let trap_src =
  "class N { int v; }\n\
   class C {\n\
  \  static N mk() { N n = new N(); n.v = 4; return n; }\n\
  \  static int div(int x, int y) { int a = x + 1; int b = a * 2; int c = b / y; return c + a; }\n\
  \  static int field(N n, int k) { int a = k + 1; int b = n.v; return a + b; }\n\
  \  static int[] g;\n\
  \  static int index(int i) { int[] a = new int[3]; C.g = a; a[i] = i + 1; return a[0] + i; }\n\
  \  static int size(int n) { int[] a = new int[n - 1]; return a.length + n; }\n\
  \  static int store(int i, int n) {\n\
  \    int[] a = new int[3]; C.g = a; int j = i - 1; int k = j * 2;\n\
  \    if (n > 0) { } else { C.g = null; }\n\
  \    int m = k + j; int q = m * 3; a[q] = k; return q;\n\
  \  }\n\
   }"

let test_trap_charges () =
  let config = { Jit.default_config with Jit.compile_threshold = 2 } in
  let program, vm = setup ~config trap_src in
  let n = Option.get (Vm.invoke vm (Link.find_method program "C" "mk") []) in
  List.iter
    (fun (name, warm, bad, message, (cycles, ops, allocs)) ->
      let m = Link.find_method program "C" name in
      Vm.warm_up vm m warm 3;
      Alcotest.(check bool) (name ^ " compiled") true (Vm.compiled_graph vm m <> None);
      let before = Stats.snapshot (Vm.stats vm) in
      (match Vm.invoke vm m bad with
      | _ -> Alcotest.failf "%s: expected a trap" name
      | exception Interp.Trap msg -> Alcotest.(check string) (name ^ " message") message msg);
      let d = Stats.diff (Stats.snapshot (Vm.stats vm)) before in
      Alcotest.(check int) (name ^ " interpreted") 0 d.Stats.s_interpreted_instrs;
      Alcotest.(check int) (name ^ " cycles") cycles d.Stats.s_cycles;
      Alcotest.(check int) (name ^ " compiled ops") ops d.Stats.s_compiled_ops;
      Alcotest.(check int) (name ^ " allocations") allocs d.Stats.s_allocations)
    [
      ("div", [ vint 5; vint 1 ], [ vint 5; vint 0 ], "division by zero", (5, 5, 0));
      ("field", [ n; vint 1 ], [ Value.Vnull; vint 1 ], "null dereference reading v", (6, 3, 0));
      ("index", [ vint 1 ], [ vint 3 ], "array index 3 out of bounds", (62, 6, 1));
      ("size", [ vint 4 ], [ vint 0 ], "negative array size -1", (3, 3, 0));
      (* [k * 2] before the branch, an empty block passed through, and
         [k + j] and [m * 3] before the store: int operations that cannot
         trap, whose charges ride on the branch and on the store;
         recorded while each of them still charged itself *)
      ("store", [ vint 1; vint 1 ], [ vint 5; vint 1 ], "array index 36 out of bounds",
        (69, 12, 1));
    ]

(* Compiled comparisons allocate nothing: a comparison yields one of two
   shared booleans, or is fused with the [If] it feeds, and an [If] tests
   a boolean where it is. On this loop of [<], [!=], [!], [&&] and
   branches, the two counters live in int registers, so no words are
   left per compiled operation (about 0.3 while every int was boxed);
   a fresh boolean per comparison brings it to about 1.5. *)
let test_comparison_allocation () =
  let src =
    "class C {\n\
    \  static int f(int n, int m) {\n\
    \    int i = 0; int hits = 0;\n\
    \    while (i < n) {\n\
    \      boolean p = i < m;\n\
    \      boolean q = i != m;\n\
    \      boolean r = !p && q;\n\
    \      if (r && i >= m && !(i == m)) { hits = hits + 1; }\n\
    \      i = i + 1;\n\
    \    }\n\
    \    return hits;\n\
    \  }\n\
     }"
  in
  let config = { Jit.default_config with Jit.compile_threshold = 2 } in
  let program, vm = setup ~config src in
  let f = Link.find_method program "C" "f" in
  Vm.warm_up vm f [ vint 10; vint 5 ] 3;
  let ops0 = Stats.get (Vm.stats vm) Stats.compiled_ops in
  let words0 = Gc.minor_words () in
  let r = Vm.invoke vm f [ vint 20000; vint 10000 ] in
  let words = Gc.minor_words () -. words0 in
  let ops = Stats.get (Vm.stats vm) Stats.compiled_ops - ops0 in
  Alcotest.(check int) "result" 9999 (as_int r);
  Alcotest.(check bool) "ran compiled" true (ops > 100_000);
  let per_op = words /. float_of_int ops in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per compiled operation, at most 0.5" per_op)
    true (per_op <= 0.5)

(* An int loop runs in int registers: the accumulator and the counter
   are phis of the int file, the constants immediates, the comparison
   fused with its branch, so an iteration allocates nothing. The loop is
   entered from a boxed parameter, unboxed once on the loop-entry edge,
   and the result is boxed once at the return. With every int boxed it
   was 1.0 minor word per compiled operation. *)
let test_int_loop_allocation () =
  let src =
    "class C {\n\
    \  static int f(int i, int n) {\n\
    \    int acc = i; int w = 0;\n\
    \    while (w < n) { acc = (acc * 31 + w) % 65537; w = w + 1; }\n\
    \    return acc;\n\
    \  }\n\
     }"
  in
  let config = { Jit.default_config with Jit.compile_threshold = 2 } in
  let program, vm = setup ~config src in
  let f = Link.find_method program "C" "f" in
  Vm.warm_up vm f [ vint 3; vint 10 ] 3;
  let n = 100_000 in
  let ops0 = Stats.get (Vm.stats vm) Stats.compiled_ops in
  let words0 = Gc.minor_words () in
  let r = Vm.invoke vm f [ vint 7; vint n ] in
  let words = Gc.minor_words () -. words0 in
  let ops = Stats.get (Vm.stats vm) Stats.compiled_ops - ops0 in
  let want = ref 7 in
  for w = 0 to n - 1 do
    want := ((!want * 31) + w) mod 65537
  done;
  Alcotest.(check int) "result" !want (as_int r);
  Alcotest.(check bool) "ran compiled" true (ops > 500_000);
  let per_op = words /. float_of_int ops in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f words per compiled operation, at most 0.05" per_op)
    true (per_op <= 0.05)

(* A deopt inside an int loop: the frame state of the pruned branch
   holds the loop's int-register phis, directly and as the fields of a
   scalar-replaced object, so the deopt must box them for the lookup and
   rebuild exactly the interpreter's frame. The oracle checks the
   rematerialized state against a shadow interpreter replay; the result
   and the escaped object must be the interpreter's, with one deopt and
   one rematerialization. *)
let int_phi_deopt_src =
  "class P { int a; int b; }\n\
   class C {\n\
  \  static P sink;\n\
  \  static int seen;\n\
  \  static int f(int n, int k) {\n\
  \    int acc = n; int i = 0;\n\
  \    while (i < 100) {\n\
  \      P p = new P(); p.a = acc; p.b = i;\n\
  \      if (i == k) { C.sink = p; C.seen = acc; }\n\
  \      acc = (acc * 7 + i) % 1009;\n\
  \      i = i + 1;\n\
  \    }\n\
  \    return acc;\n\
  \  }\n\
  \  static int sinkA() { return C.sink.a + C.sink.b * 10000; }\n\
   }"

let test_deopt_int_phis () =
  let run config =
    let program, vm = setup ~config int_phi_deopt_src in
    let f = Link.find_method program "C" "f" in
    Vm.warm_up vm f [ vint 3; vint (-1) ] 30;
    let compiled = Vm.compiled_graph vm f <> None in
    let before = Stats.snapshot (Vm.stats vm) in
    let r = as_int (Vm.invoke vm f [ vint 3; vint 50 ]) in
    let d = Stats.diff (Stats.snapshot (Vm.stats vm)) before in
    let escaped = as_int (Vm.invoke vm (Link.find_method program "C" "sinkA") []) in
    (compiled, r, escaped, d)
  in
  let interpreted = { Jit.default_config with Jit.compile_threshold = max_int; osr = false } in
  let was_compiled, want_r, want_escaped, _ = run interpreted in
  Alcotest.(check bool) "reference interpreted" false was_compiled;
  let was_compiled, r, escaped, d =
    run { Jit.default_config with Jit.compile_threshold = 25; osr = false; oracle = true }
  in
  Alcotest.(check bool) "compiled before the deopt" true was_compiled;
  Alcotest.(check int) "result = interpreter" want_r r;
  Alcotest.(check int) "escaped object = interpreter" want_escaped escaped;
  Alcotest.(check int) "one deopt" 1 d.Stats.s_deopts;
  Alcotest.(check int) "one rematerialization" 1 d.Stats.s_rematerialized

(* The deopt above really reads int-register phis: in the plan of the
   compiled graph, the [Deopt]'s frame state names phis of the int file,
   directly and through the virtual object's fields. *)
let test_deopt_state_int_phis () =
  let config = { Jit.default_config with Jit.compile_threshold = 25; osr = false } in
  let program, vm = setup ~config int_phi_deopt_src in
  let f = Link.find_method program "C" "f" in
  Vm.warm_up vm f [ vint 3; vint (-1) ] 30;
  let g = Option.get (Vm.compiled_graph vm f) in
  let plan = Closure_compile.plan g in
  let int_phis = ref [] in
  Pea_ir.Graph.iter_blocks
    (fun b ->
      match b.Pea_ir.Graph.term with
      | Pea_ir.Graph.Deopt d ->
          Pea_ir.Frame_state.iter_nodes
            (fun id ->
              match (Pea_ir.Graph.node g id).Pea_ir.Node.op with
              | Pea_ir.Node.Phi _ when plan.Closure_compile.regs.(id) = Closure_compile.R_int ->
                  if not (List.mem id !int_phis) then int_phis := id :: !int_phis
              | _ -> ())
            d.Pea_ir.Graph.d_state
      | _ -> ())
    g;
  Alcotest.(check int) "int-register phis in the deopt state" 2 (List.length !int_phis)

(* What a [Deopt] block holding only constants charges: no constant runs
   a closure, so their charge rides on the terminator, which must apply
   it before the deopt can be seen. The graph is built by hand, since the
   JIT's pruned branches deopt from empty blocks: B0 adds 1 to its
   parameter and jumps to B1, which holds three constants and deopts
   with a state naming the sum and two of them. Where the deopt is
   caught, the test reads the counters and the exception's lookup; the
   values were recorded from the closure
   tier before its registers were typed, when each constant was a
   closure of its own. *)
let test_deopt_constants_charges () =
  let program =
    Link.compile_source ~require_main:false "class C { static int f(int x) { return x; } }"
  in
  let m = Link.find_method program "C" "f" in
  let module G = Pea_ir.Graph in
  let module N = Pea_ir.Node in
  let module F = Pea_ir.Frame_state in
  let g = G.create m in
  let b0 = G.new_block g in
  let b1 = G.new_block g in
  let x = (G.add_param g 0).N.id in
  let one = G.append g b0 (N.Const (N.Cint 1)) in
  let sum = G.append g b0 (N.Arith (N.Add, x, one.N.id)) in
  b0.G.term <- G.Goto b1.G.b_id;
  b1.G.preds <- [ b0.G.b_id ];
  let c2 = G.append g b1 (N.Const (N.Cint 2)) in
  let cf = G.append g b1 (N.Const (N.Cbool false)) in
  ignore (G.append g b1 (N.Const N.Cnull));
  let state =
    {
      F.fs_method = m;
      fs_bci = 0;
      fs_locals = [| F.F_node sum.N.id; F.F_node c2.N.id; F.F_node cf.N.id |];
      fs_stack = [];
      fs_locks = [];
      fs_outer = None;
      fs_virtuals = [];
    }
  in
  b1.G.term <- G.Deopt { G.d_state = state; d_edge = None; d_guard = None };
  let env = bare_env program in
  let code = Closure_compile.compile env (Ir_exec.prepare g) in
  match Closure_compile.run code [ vint 41 ] with
  | _ -> Alcotest.fail "expected a deopt"
  | exception Ir_exec.Deoptimize (_, lookup) ->
      let s = env.Interp.stats in
      Alcotest.(check (list (pair string int)))
        "counters and lookups at the deopt"
        [ ("cycles", 5); ("compiled_ops", 5); ("sum", 42); ("constant", 2) ]
        [
          ("cycles", Stats.get s Stats.cycles);
          ("compiled_ops", Stats.get s Stats.compiled_ops);
          ("sum", as_int (Some (lookup sum.N.id)));
          ("constant", as_int (Some (lookup c2.N.id)));
        ];
      Alcotest.(check bool) "the looked-up constant" true (lookup cf.N.id = Value.Vbool false)

(* A [Deopt] whose block ends in int operations that cannot trap: their
   charges ride on the terminator, so where the deopt is caught every
   operation of the block is charged, and their results are boxed for
   the lookup. Recorded
   while each of them still charged itself. *)
let test_deopt_int_op_charges () =
  let program =
    Link.compile_source ~require_main:false "class C { static int f(int x) { return x; } }"
  in
  let m = Link.find_method program "C" "f" in
  let module G = Pea_ir.Graph in
  let module N = Pea_ir.Node in
  let module F = Pea_ir.Frame_state in
  let g = G.create m in
  let b0 = G.new_block g in
  let x = (G.add_param g 0).N.id in
  let one = G.append g b0 (N.Const (N.Cint 1)) in
  let sum = G.append g b0 (N.Arith (N.Add, x, one.N.id)) in
  let two = G.append g b0 (N.Const (N.Cint 2)) in
  let twice = G.append g b0 (N.Arith (N.Mul, sum.N.id, two.N.id)) in
  let total = G.append g b0 (N.Arith (N.Add, twice.N.id, sum.N.id)) in
  let state =
    {
      F.fs_method = m;
      fs_bci = 0;
      fs_locals = [| F.F_node total.N.id |];
      fs_stack = [];
      fs_locks = [];
      fs_outer = None;
      fs_virtuals = [];
    }
  in
  b0.G.term <- G.Deopt { G.d_state = state; d_edge = None; d_guard = None };
  let env = bare_env program in
  let code = Closure_compile.compile env (Ir_exec.prepare g) in
  match Closure_compile.run code [ vint 41 ] with
  | _ -> Alcotest.fail "expected a deopt"
  | exception Ir_exec.Deoptimize (_, lookup) ->
      let s = env.Interp.stats in
      Alcotest.(check (list (pair string int)))
        "counters and lookups at the deopt"
        [ ("cycles", 5); ("compiled_ops", 5); ("total", 126) ]
        [
          ("cycles", Stats.get s Stats.cycles);
          ("compiled_ops", Stats.get s Stats.compiled_ops);
          ("total", as_int (Some (lookup total.N.id)));
        ]

(* What the first call after a compare-and-branch sees: the comparison
   and its [If] are one closure, charged with the constants before
   them, and the call charges its own block's constants on its way in.
   [on_invoke] records the counters at every call; the values were
   recorded from the closure tier before comparisons were fused. *)
let test_fused_branch_call_charges () =
  let src =
    "class C {\n\
    \  static int h(int a, int b) { return a + b; }\n\
    \  static int f(int x, int y) {\n\
    \    int r = 3;\n\
    \    if (x < y) { r = C.h(x * 2, 5); }\n\
    \    if (r > 100) { r = C.h(r, 1); }\n\
    \    return r;\n\
    \  }\n\
     }"
  in
  let program = Link.compile_source ~require_main:false src in
  let f = Link.find_method program "C" "f" in
  let env = bare_env program in
  let calls = ref [] in
  let env =
    {
      env with
      Interp.on_invoke =
        (fun _ args ->
          let s = env.Interp.stats in
          calls := (Stats.get s Stats.cycles, Stats.get s Stats.compiled_ops) :: !calls;
          match args with
          | [ Value.Vint a; Value.Vint b ] -> Some (vint (a + b))
          | _ -> Alcotest.fail "h takes two ints");
    }
  in
  let compiled =
    Jit.compile
      { Jit.default_config with Jit.inline = false; prune = false }
      program env.Interp.profile f
  in
  let code = Closure_compile.compile env compiled.Jit.prepared in
  let r = as_int (Closure_compile.run code [ vint 60; vint 70 ]) in
  let s = env.Interp.stats in
  Alcotest.(check int) "result" 126 r;
  Alcotest.(check (list (pair int int)))
    "(cycles, compiled ops) at each call, then at the return"
    [ (31, 5); (61, 9); (61, 9) ]
    (List.rev ((Stats.get s Stats.cycles, Stats.get s Stats.compiled_ops) :: !calls))

(* What a call allocates, in minor words per VM invocation of a
   recursive [fib]. A compiled call allocates its argument list, its
   boxed ints, its result and its stack-region entry: 20 words. The bound
   of 24 fails as soon as the dispatch or the compiled entry allocates
   per call again: an in-frame deopt handler (a closure and its option)
   came to 33, and a hash lookup's option, a [Fun.protect] with its
   thunks and a parameter-binding closure to 70. An interpreted call allocates its frame (locals, operand-stack
   cells, the dispatch closures): 62 words, under a bound of 68 that
   counter cells resolved per frame must not push it over. *)
let fib_src =
  "class C {\n\
  \  static int fib(int n) { if (n < 2) return n; return C.fib(n - 1) + C.fib(n - 2); }\n\
   }"

(* minor words per VM invocation of [fib 20], counted after warm-up *)
let fib_words_per_invocation config =
  let program, vm = setup ~config fib_src in
  let fib = Link.find_method program "C" "fib" in
  Vm.warm_up vm fib [ vint 12 ] 3;
  let stats = Vm.stats vm in
  let calls0 = Stats.get stats Stats.invocations in
  let words0 = Gc.minor_words () in
  let r = Vm.invoke vm fib [ vint 20 ] in
  let words = Gc.minor_words () -. words0 in
  Alcotest.(check int) "fib 20" 6765 (as_int r);
  let calls = Stats.get stats Stats.invocations - calls0 in
  Alcotest.(check int) "one invocation per call" 21891 calls;
  (vm, fib, words /. float_of_int calls)

let test_call_allocation () =
  let compiled = { Jit.default_config with Jit.inline = false; compile_threshold = 2 } in
  let vm, fib, per_call = fib_words_per_invocation compiled in
  Alcotest.(check bool) "fib ran compiled" true (Vm.compiled_graph vm fib <> None);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per compiled invocation, at most 24" per_call)
    true (per_call <= 24.);
  let interpreted = { Jit.default_config with Jit.compile_threshold = max_int; osr = false } in
  let vm, fib, per_call = fib_words_per_invocation interpreted in
  Alcotest.(check bool) "fib ran interpreted" true (Vm.compiled_graph vm fib = None);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per interpreted invocation, at most 68" per_call)
    true (per_call <= 68.)

let () =
  Alcotest.run "closure"
    [
      ( "inline-caches",
        [
          Alcotest.test_case "monomorphic hit" `Quick test_ic_monomorphic;
          Alcotest.test_case "polymorphic rebias" `Quick test_ic_polymorphic_rebias;
          Alcotest.test_case "deopt invalidation" `Quick test_ic_deopt_invalidation;
        ] );
      ( "register-files",
        [
          Alcotest.test_case "pooling" `Quick test_register_file_pool;
          Alcotest.test_case "file goes with the deopt" `Quick test_file_goes_with_deopt;
        ] );
      ( "shared-prepared",
        [ Alcotest.test_case "translations in parallel domains" `Quick test_shared_prepared_domains ] );
      ( "goldens",
        [
          Alcotest.test_case "tier_parity scenario counters" `Quick test_scenario_golden;
          Alcotest.test_case "invoke-heavy Table-1 rows" `Quick test_row_goldens;
          Alcotest.test_case "operations trapping mid-block" `Quick test_trap_charges;
          Alcotest.test_case "deopt block of constants" `Quick test_deopt_constants_charges;
          Alcotest.test_case "deopt after int operations that cannot trap" `Quick
            test_deopt_int_op_charges;
          Alcotest.test_case "first call after a fused branch" `Quick
            test_fused_branch_call_charges;
        ] );
      ( "typed-registers",
        [
          Alcotest.test_case "deopt with int phis, oracle on" `Quick test_deopt_int_phis;
          Alcotest.test_case "deopt state names int phis" `Quick test_deopt_state_int_phis;
        ] );
      ( "cost",
        [
          Alcotest.test_case "int loops allocate nothing" `Quick test_int_loop_allocation;
          Alcotest.test_case "comparisons allocate nothing" `Quick test_comparison_allocation;
          Alcotest.test_case "calls" `Quick test_call_allocation;
        ] );
    ]
