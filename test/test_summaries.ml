(* Unit and end-to-end tests for interprocedural escape summaries
   (Pea_analysis.Summary): the per-parameter escape lattice, return
   freshness, purity, convergence under (mutual) recursion, the CHA join
   at virtual call sites, and the payoff — with summaries, PEA keeps an
   allocation virtual across a non-inlined call that would otherwise
   force materialization. *)

open Pea_bytecode
open Pea_analysis
open Pea_rt
open Pea_vm

let analyze src =
  let program = Link.compile_source ~require_main:false src in
  (program, Summary.analyze program)

let summary_of (program, t) cls name = Summary.of_method t (Link.find_method program cls name)

let lvl = Alcotest.testable (fun fmt l ->
    Format.pp_print_string fmt
      (match l with
      | Summary.No_escape -> "No_escape"
      | Summary.Arg_escape -> "Arg_escape"
      | Summary.Global_escape -> "Global_escape"))
    ( = )

(* ------------------------------------------------------------------ *)
(* Direct summaries                                                    *)
(* ------------------------------------------------------------------ *)

let basics_src =
  "class Box { int v; }\n\
   class C {\n\
  \  static Box g;\n\
  \  static void leak(Box b) { C.g = b; }\n\
  \  static int read(Box b) { return b.v; }\n\
  \  static void write(Box b) { b.v = 1; }\n\
  \  static Box same(Box b) { return b; }\n\
  \  static Box make() { return new Box(); }\n\
   }"

let test_global_escape_via_static_store () =
  let env = analyze basics_src in
  let s = summary_of env "C" "leak" in
  Alcotest.check lvl "param escapes globally" Summary.Global_escape s.Summary.s_params.(0).Summary.ps_escape;
  Alcotest.(check bool) "not pure" false s.Summary.s_pure

let test_read_only_param () =
  let env = analyze basics_src in
  let s = summary_of env "C" "read" in
  Alcotest.check lvl "no escape" Summary.No_escape s.Summary.s_params.(0).Summary.ps_escape;
  Alcotest.(check bool) "not written" false s.Summary.s_params.(0).Summary.ps_written;
  Alcotest.(check bool) "no ref loads (int field)" false s.Summary.s_params.(0).Summary.ps_ref_loaded;
  Alcotest.(check bool) "transparent" true (Summary.transparent s.Summary.s_params.(0));
  Alcotest.(check bool) "pure" true s.Summary.s_pure;
  Alcotest.(check bool) "reads heap" true s.Summary.s_reads_heap

let test_written_param () =
  let env = analyze basics_src in
  let s = summary_of env "C" "write" in
  Alcotest.check lvl "no escape" Summary.No_escape s.Summary.s_params.(0).Summary.ps_escape;
  Alcotest.(check bool) "written" true s.Summary.s_params.(0).Summary.ps_written;
  Alcotest.(check bool) "not transparent" false (Summary.transparent s.Summary.s_params.(0));
  Alcotest.(check bool) "not pure" false s.Summary.s_pure

let test_returned_param () =
  let env = analyze basics_src in
  let s = summary_of env "C" "same" in
  Alcotest.check lvl "arg escape" Summary.Arg_escape s.Summary.s_params.(0).Summary.ps_escape;
  Alcotest.(check bool) "return not fresh" false s.Summary.s_ret_fresh

let test_fresh_return () =
  let env = analyze basics_src in
  let s = summary_of env "C" "make" in
  Alcotest.(check bool) "return fresh" true s.Summary.s_ret_fresh

(* ------------------------------------------------------------------ *)
(* Recursion                                                           *)
(* ------------------------------------------------------------------ *)

let test_recursion_converges () =
  let env =
    analyze
      "class Box { int v; }\n\
       class R {\n\
      \  static int depth(Box b, int n) { if (n <= 0) return b.v; return R.depth(b, n - 1); }\n\
       }"
  in
  let s = summary_of env "R" "depth" in
  Alcotest.check lvl "recursive read-only param stays clean" Summary.No_escape
    s.Summary.s_params.(0).Summary.ps_escape;
  Alcotest.(check bool) "pure" true s.Summary.s_pure

let test_recursive_leak_is_sound () =
  let env =
    analyze
      "class Box { int v; }\n\
       class R {\n\
      \  static Box g;\n\
      \  static int down(Box b, int n) { if (n <= 0) return 0; return R.leak(b, n); }\n\
      \  static int leak(Box b, int n) { R.g = b; return R.down(b, n - 1); }\n\
       }"
  in
  (* the escape happens one call deep in a mutually recursive pair: the
     fixpoint must propagate it back to both entry points *)
  let down = summary_of env "R" "down" in
  let leak = summary_of env "R" "leak" in
  Alcotest.check lvl "leak param escapes" Summary.Global_escape
    leak.Summary.s_params.(0).Summary.ps_escape;
  Alcotest.check lvl "escape propagates through caller" Summary.Global_escape
    down.Summary.s_params.(0).Summary.ps_escape;
  Alcotest.(check bool) "down impure" false down.Summary.s_pure

let test_mutual_recursion_pure () =
  let env =
    analyze
      "class R {\n\
      \  static int even(int n) { if (n == 0) return 1; return R.odd(n - 1); }\n\
      \  static int odd(int n) { if (n == 0) return 0; return R.even(n - 1); }\n\
       }"
  in
  let s = summary_of env "R" "even" in
  Alcotest.(check bool) "pure" true s.Summary.s_pure;
  Alcotest.(check bool) "no heap reads" false s.Summary.s_reads_heap

(* ------------------------------------------------------------------ *)
(* Virtual dispatch: CHA join vs exact receiver                        *)
(* ------------------------------------------------------------------ *)

let dispatch_src =
  "class Box { int v; }\n\
   class Sink { static Box s; }\n\
   class A { int use(Box b) { return b.v; } }\n\
   class B extends A { int use(Box b) { Sink.s = b; return 1; } }"

let test_cha_join () =
  let program, t = analyze dispatch_src in
  let m = Link.find_method program "A" "use" in
  (* A.use alone is harmless... *)
  let own = Summary.of_method t m in
  Alcotest.check lvl "A.use itself is clean" Summary.No_escape
    own.Summary.s_params.(1).Summary.ps_escape;
  (* ...but a virtual call must join in the B.use override, which leaks *)
  let joined = Summary.call_summary t Pea_ir.Node.Virtual m in
  Alcotest.check lvl "virtual join includes the override" Summary.Global_escape
    joined.Summary.s_params.(1).Summary.ps_escape;
  Alcotest.(check bool) "join is impure" false joined.Summary.s_pure

let test_exact_receiver_skips_join () =
  let program, t = analyze dispatch_src in
  let m = Link.find_method program "A" "use" in
  let a = List.find (fun c -> c.Classfile.cls_name = "A") program.Link.classes in
  let exact = Summary.exact_summary t a m in
  Alcotest.check lvl "exact receiver A avoids the join" Summary.No_escape
    exact.Summary.s_params.(1).Summary.ps_escape;
  Alcotest.(check bool) "exact A.use is pure" true exact.Summary.s_pure

(* ------------------------------------------------------------------ *)
(* Lazy fixpoint: it runs at the first query, inside a compile         *)
(* ------------------------------------------------------------------ *)

(* Whichever end of a recursive pair that leaks its argument is asked
   about first, the leak reaches both. *)
let test_cycle_from_either_end () =
  let src =
    "class Box { int v; }\n\
     class R {\n\
    \  static Box g;\n\
    \  static int down(Box b, int n) { if (n <= 0) return 0; return R.leak(b, n); }\n\
    \  static int leak(Box b, int n) { R.g = b; return R.down(b, n - 1); }\n\
     }"
  in
  List.iter
    (fun first ->
      let program, t = analyze src in
      ignore (Summary.of_method t (Link.find_method program "R" first));
      List.iter
        (fun name ->
          Alcotest.check lvl
            (Printf.sprintf "%s first: %s's parameter escapes" first name)
            Summary.Global_escape
            (Summary.of_method t (Link.find_method program "R" name)).Summary.s_params.(0)
              .Summary.ps_escape)
        [ "down"; "leak" ])
    [ "down"; "leak" ]

let test_exception_callee_is_top () =
  let program, t =
    analyze
      "class Box { int v; }\n\
       class Oops { int code; }\n\
       class E {\n\
      \  static int risky(Box b) {\n\
      \    try { if (b.v > 3) { throw new Oops(); } return b.v; } catch (Oops o) { return 0; }\n\
      \  }\n\
      \  static int caller(Box b) { return E.risky(b); }\n\
       }"
  in
  let s = Summary.of_method t (Link.find_method program "E" "caller") in
  let pp s = Format.asprintf "%a" Summary.pp_summary s in
  Alcotest.(check string) "a callee that uses exceptions gets top" (pp (Summary.top 1))
    (pp (Summary.of_method t (Link.find_method program "E" "risky")));
  Alcotest.check lvl "the caller's parameter escapes through it" Summary.Global_escape
    s.Summary.s_params.(0).Summary.ps_escape

(* The JIT asks summaries only at call sites that survive inlining: a
   compile whose calls are all inlined must not run the fixpoint. *)
let test_inlined_compile_forces_nothing () =
  let program =
    Link.compile_source
      "class Key { int a; int b; }\n\
       class Main {\n\
      \  static int use(Key k) { return k.a + k.b; }\n\
      \  static int main() { Key k = new Key(); k.a = 1; k.b = 2; return Main.use(k); }\n\
       }"
  in
  let main = Link.find_method program "Main" "main" in
  let compile inline =
    let summaries = Summary.analyze program in
    let config = { Jit.default_config with Jit.inline } in
    let c = Jit.compile ~summaries config program (Profile.create program) main in
    let calls = ref 0 in
    Pea_ir.Graph.iter_blocks
      (fun b ->
        Pea_support.Dyn_array.iter
          (fun (nd : Pea_ir.Node.t) ->
            match nd.Pea_ir.Node.op with Pea_ir.Node.Invoke _ -> incr calls | _ -> ())
          b.Pea_ir.Graph.instrs)
      c.Jit.graph;
    (!calls, Summary.solved summaries)
  in
  Alcotest.(check (pair int bool)) "inlined: no call left, fixpoint not run" (0, false)
    (compile true);
  Alcotest.(check (pair int bool)) "not inlined: the call's summary ran it" (1, true)
    (compile false)

(* [F.broken] is never executed, but the fixpoint builds its IR, and the
   code injected into it (a jump past its end) makes the builder raise
   [Invalid_argument], not [Build_error]. [F.caller] keeps its call to
   it (no inlining, no pruning), so compiling [F.caller] asks for a
   summary and runs the fixpoint. The exception ends the run, after the
   VM's flight recorder has dumped the VM's private ring as a compile-failure
   incident; without summaries nothing asks, and the caller compiles. *)
let test_builder_fault_ends_the_run () =
  let src =
    "class Box { int v; }\n\
     class F {\n\
    \  static int broken(Box b) { return b.v; }\n\
    \  static int caller(int x) {\n\
    \    Box b = new Box();\n\
    \    b.v = x;\n\
    \    if (x < 0) { return F.broken(b); }\n\
    \    return b.v + 1;\n\
    \  }\n\
     }"
  in
  let path = Filename.temp_file "mjvm_flight" ".jsonl" in
  let flight = Pea_obs.Flight.create ~path in
  let setup ~summaries =
    let program = Link.compile_source ~require_main:false src in
    let config =
      { Jit.default_config with
        Jit.compile_threshold = 3;
        osr = false;
        inline = false;
        prune = false;
        summaries;
      }
    in
    let vm = Vm.create ~flight ~config program in
    (* after [Vm.create], whose bytecode verifier would reject it *)
    (Link.find_method program "F" "broken").Classfile.mth_code <- [| Classfile.Goto 9999 |];
    (vm, Link.find_method program "F" "caller")
  in
  (* the calls that returned before the run ended *)
  let drive (vm, caller) =
    let served = ref 0 in
    match
      for i = 1 to 20 do
        Alcotest.(check int) "caller stays correct" (i + 1)
          (match Vm.invoke vm caller [ Value.Vint i ] with Some (Value.Vint n) -> n | _ -> -1);
        incr served
      done
    with
    | () -> Ok !served
    | exception Invalid_argument _ -> Error !served
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let vm, caller = setup ~summaries:false in
      Alcotest.(check (result int int)) "without summaries: every call served" (Ok 20)
        (drive (vm, caller));
      Alcotest.(check bool) "without summaries: the caller compiled" true
        (Vm.compiled_graph vm caller <> None);
      Alcotest.(check (result int int)) "with summaries: the compile at the threshold raises"
        (Error 3)
        (drive (setup ~summaries:true));
      Alcotest.(check int) "one dump written" 1 (Pea_obs.Flight.dumps flight);
      match Pea_obs.Flight.read_file path with
      | Error msg -> Alcotest.failf "dump does not parse: %s" msg
      | Ok d ->
          Alcotest.(check string) "tagged with the trigger" "compile-failure"
            d.Pea_obs.Flight.d_reason)

(* ------------------------------------------------------------------ *)
(* End to end: summaries avoid materialization at a non-inlined call   *)
(* ------------------------------------------------------------------ *)

(* [use] is never inlined (inlining disabled below): without summaries
   PEA must materialize the Key at the call; with them it stays virtual
   and is passed as an uncharged scratch object. *)
let e2e_src =
  "class Key { int a; int b; }\n\
   class Main {\n\
  \  static int use(Key k) { return k.a + k.b; }\n\
  \  static int main() {\n\
  \    int acc = 0;\n\
  \    int i = 0;\n\
  \    while (i < 20) {\n\
  \      Key k = new Key();\n\
  \      k.a = i;\n\
  \      k.b = i + i;\n\
  \      acc = acc + Main.use(k);\n\
  \      i = i + 1;\n\
  \    }\n\
  \    return acc;\n\
  \  }\n\
   }"

let run_e2e ~summaries =
  let cfg =
    { Jit.default_config with
      Jit.opt = Jit.O_pea;
      inline = false;
      compile_threshold = 0;
      summaries
    }
  in
  let program = Link.compile_source e2e_src in
  let vm = Vm.create ~config:cfg program in
  Vm.run_main_iterations vm 5

let test_summaries_keep_allocation_virtual () =
  let with_s = run_e2e ~summaries:true in
  let without_s = run_e2e ~summaries:false in
  (* same semantics *)
  let str r =
    match r.Vm.return_value with None -> "void" | Some v -> Value.string_of_value v
  in
  Alcotest.(check string) "same result" (str without_s) (str with_s);
  let allocs (r : Vm.result) = r.Vm.stats.Stats.s_allocations in
  let bytes (r : Vm.result) = r.Vm.stats.Stats.s_allocated_bytes in
  if allocs with_s >= allocs without_s then
    Alcotest.failf "summaries did not reduce allocations (%d >= %d)" (allocs with_s)
      (allocs without_s);
  if bytes with_s >= bytes without_s then
    Alcotest.failf "summaries did not reduce allocated bytes (%d >= %d)" (bytes with_s)
      (bytes without_s);
  Alcotest.(check bool) "scratch objects were used" true
    (with_s.Vm.stats.Stats.s_stack_allocs > 0);
  Alcotest.(check int) "no scratch objects without summaries" 0
    without_s.Vm.stats.Stats.s_stack_allocs

let test_e2e_matches_interpreter () =
  let reference = Run.run_source e2e_src in
  let with_s = run_e2e ~summaries:true in
  let str_ref = function None -> "void" | Some v -> Value.string_of_value v in
  Alcotest.(check string) "interpreter agrees" (str_ref reference.Run.return_value)
    (match with_s.Vm.return_value with None -> "void" | Some v -> Value.string_of_value v)

(* Escape summaries are a least fixpoint over a finite lattice, so they
   must not depend on which method is asked about first, however lazily
   the table computes them. Every method's own summary and its Static and
   Virtual call-site summaries must print the same when the methods are
   queried in ascending id order, in descending order and in a seeded
   shuffle, each on a fresh table. The generated programs have virtual
   calls on A/B/C and (self-)recursion. *)
let prop_summaries_order_independent =
  let module Summary = Pea_analysis.Summary in
  let summaries_in program order =
    let t = Summary.analyze program in
    let out = Array.make (Array.length order) [] in
    Array.iter
      (fun (m : Pea_bytecode.Classfile.rt_method) ->
        let pp s = Format.asprintf "%a" Summary.pp_summary s in
        out.(m.Pea_bytecode.Classfile.mth_id) <-
          [
            pp (Summary.of_method t m);
            pp (Summary.call_summary t Pea_ir.Node.Static m);
            pp (Summary.call_summary t Pea_ir.Node.Virtual m);
          ])
      order;
    out
  in
  QCheck2.Test.make ~name:"escape summaries do not depend on query order"
    ~count:(Test_env.qcheck_count 100)
    ~print:(fun (src, seed) -> Printf.sprintf "seed=%d\n%s" seed src)
    (QCheck2.Gen.pair Program_gen.gen_program (QCheck2.Gen.int_bound 1_000_000))
    (fun (src, seed) ->
      let program = Pea_bytecode.Link.compile_source src in
      let ascending = program.Pea_bytecode.Link.methods in
      let n = Array.length ascending in
      let descending = Array.init n (fun i -> ascending.(n - 1 - i)) in
      let shuffled = Array.copy ascending in
      let rng = Random.State.make [| seed |] in
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let x = shuffled.(i) in
        shuffled.(i) <- shuffled.(j);
        shuffled.(j) <- x
      done;
      let reference = summaries_in program ascending in
      summaries_in program descending = reference && summaries_in program shuffled = reference)

let () =
  Alcotest.run "summaries"
    [
      ( "direct",
        [
          Alcotest.test_case "static store escapes globally" `Quick
            test_global_escape_via_static_store;
          Alcotest.test_case "read-only param" `Quick test_read_only_param;
          Alcotest.test_case "written param" `Quick test_written_param;
          Alcotest.test_case "returned param" `Quick test_returned_param;
          Alcotest.test_case "fresh return" `Quick test_fresh_return;
        ] );
      ( "recursion",
        [
          Alcotest.test_case "converges" `Quick test_recursion_converges;
          Alcotest.test_case "leak is sound" `Quick test_recursive_leak_is_sound;
          Alcotest.test_case "mutual recursion pure" `Quick test_mutual_recursion_pure;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "CHA join" `Quick test_cha_join;
          Alcotest.test_case "exact receiver" `Quick test_exact_receiver_skips_join;
        ] );
      ( "lazy",
        [
          Alcotest.test_case "a cycle from either end" `Quick test_cycle_from_either_end;
          Alcotest.test_case "exception callee is top" `Quick test_exception_callee_is_top;
          Alcotest.test_case "inlined compile forces nothing" `Quick
            test_inlined_compile_forces_nothing;
          Alcotest.test_case "builder fault ends the run" `Quick test_builder_fault_ends_the_run;
          QCheck_alcotest.to_alcotest prop_summaries_order_independent;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "keeps allocation virtual" `Quick
            test_summaries_keep_allocation_virtual;
          Alcotest.test_case "matches interpreter" `Quick test_e2e_matches_interpreter;
        ] );
    ]
