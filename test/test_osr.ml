(* On-stack replacement and the per-site deoptimization policy.

   OSR: a loop that gets hot inside one interpreted invocation transfers
   the running frame into compiled code at a back edge (the paper's
   evaluation assumes methods reach the compiler; OSR is how a
   single-invocation benchmark does). Per-site policy: a deopt blacklists
   only the (method, bci) site that fired, so recompiled code keeps
   speculating — and scalar-replacing — everywhere else.

   The unit cases build their configurations explicitly: they compare
   OSR on against OSR off, or require OSR to fire. The differential
   property draws every other axis per case. *)

open Pea_bytecode
open Pea_rt
open Pea_vm
module Event = Pea_obs.Event
module Trace = Pea_obs.Trace

let vint, vbool, as_int = Test_support.(vint, vbool, as_int)

let outcome = Test_support.outcome

let count_deopt_terminators g =
  let n = ref 0 in
  Pea_ir.Graph.iter_blocks
    (fun b -> match b.Pea_ir.Graph.term with Pea_ir.Graph.Deopt _ -> incr n | _ -> ())
    g;
  !n

let count_alloc_nodes g =
  let n = ref 0 in
  Pea_ir.Graph.iter_blocks
    (fun b ->
      List.iter
        (fun (nd : Pea_ir.Node.t) ->
          match nd.Pea_ir.Node.op with
          | Pea_ir.Node.New _ | Pea_ir.Node.Alloc _ | Pea_ir.Node.New_array _
          | Pea_ir.Node.Alloc_array _ ->
              incr n
          | _ -> ())
        (Pea_ir.Graph.instr_list b))
    g;
  !n

(* ------------------------------------------------------------------ *)
(* OSR tiering                                                         *)
(* ------------------------------------------------------------------ *)

let hot_loop_src = Programs.hot_loop

(* A single invocation of a hot loop reaches the compiled tier through
   OSR: same result as the interpreter, the loop allocation is scalar-
   replaced for the remaining iterations, and normal-entry code is cached
   even though the invocation counter never fired. *)
let test_osr_single_invocation () =
  let reference = Run.run_source hot_loop_src in
  let program = Link.compile_source hot_loop_src in
  (* invocation counting can never compile: only OSR tiers up. Pruning
     off so the cold loop exit is not speculated away — its deopt would
     invalidate the cached code this test wants to observe (the pruning
     interaction is covered by the differential property below). *)
  let config =
    {
      Jit.default_config with
      Jit.compile_threshold = max_int;
      prune = false;
      osr = true;
      osr_threshold = 50;
    }
  in
  let vm = Vm.create ~config program in
  let r = Vm.run vm in
  Alcotest.(check int)
    "same result as the interpreter"
    (match reference.Run.return_value with Some (Value.Vint n) -> n | _ -> assert false)
    (as_int r.Vm.return_value);
  Alcotest.(check bool) "osr compile happened" true (r.Vm.stats.Stats.s_osr_compiles >= 1);
  Alcotest.(check bool) "osr entry happened" true (r.Vm.stats.Stats.s_osr_entries >= 1);
  let main = Link.entry_exn program in
  Alcotest.(check bool)
    "normal-entry code cached at OSR time" true
    (Vm.compiled_graph vm main <> None);
  (* 50 interpreter iterations allocate, the OSR-compiled remainder is
     scalar-replaced *)
  Alcotest.(check bool)
    "loop allocation virtualized after OSR" true
    (r.Vm.stats.Stats.s_allocations < reference.Run.stats.Stats.s_allocations);
  (* the model-cycle acceptance gate, in miniature (BENCH_osr.json is the
     full version): OSR must beat staying in the interpreter *)
  let interp_only =
    let vm = Vm.create ~config:{ config with Jit.osr = false } program in
    Vm.run vm
  in
  Alcotest.(check string)
    "bit-for-bit result parity with interpreter-only"
    (fst (outcome interp_only))
    (fst (outcome r));
  Alcotest.(check bool)
    "fewer model cycles than interpreter-only" true
    (r.Vm.stats.Stats.s_cycles < interp_only.Vm.stats.Stats.s_cycles)

(* OSR at the inner header of a loop nest: back edges must be classified
   from the OSR entry block, not from the method entry, or the outer
   latch edge is misread and construction fails. *)
let test_osr_nested_loops () =
  let src = Programs.nested_loops in
  let reference = Run.run_source src in
  let program = Link.compile_source src in
  let config =
    { Jit.default_config with Jit.compile_threshold = max_int; osr = true; osr_threshold = 50 }
  in
  let r = Vm.run (Vm.create ~config program) in
  Alcotest.(check int)
    "same result"
    (match reference.Run.return_value with Some (Value.Vint n) -> n | _ -> assert false)
    (as_int r.Vm.return_value);
  Alcotest.(check bool) "osr fired" true (r.Vm.stats.Stats.s_osr_entries >= 1)

(* The OSR promotion is a traced tier transition like any other. *)
let test_osr_trace_events () =
  let program = Link.compile_source hot_loop_src in
  let config =
    { Jit.default_config with Jit.compile_threshold = max_int; osr = true; osr_threshold = 50 }
  in
  let t = Trace.create () in
  let vm = Vm.create ~trace:t ~config program in
  ignore (Vm.run vm);
  let events = List.map (fun e -> e.Trace.e_event) (Trace.entries t) in
  Alcotest.(check bool)
    "tier_promote osr traced" true
    (List.exists (function Event.Tier_promote { tier = "osr"; _ } -> true | _ -> false) events)

(* ------------------------------------------------------------------ *)
(* Per-site deopt policy                                               *)
(* ------------------------------------------------------------------ *)

(* Two independently-pruned cold branches. The allocation never escapes,
   so PEA scalar-replaces it fully; each pruned branch carries its own
   deopt site. *)
let two_branch_src = Programs.two_branch

let policy_setup ?trace ?(deopt_storm_limit = Jit.default_config.Jit.deopt_storm_limit) () =
  let program = Link.compile_source ~require_main:false two_branch_src in
  let config =
    { Jit.default_config with Jit.compile_threshold = 25; osr = false; deopt_storm_limit }
  in
  let vm = Vm.create ?trace ~config program in
  let f = Link.find_method program "C" "f" in
  (* profile both branches as never taken, then compile *)
  Vm.warm_up vm f [ vint 3; vbool false; vbool false ] 40;
  (vm, f)

(* One cold-path deopt must not cost the method its speculation: the
   recompiled code blacklists only the site that fired, keeps the other
   deopt site, and still scalar-replaces the allocation. *)
let test_per_site_blacklist () =
  let vm, f = policy_setup () in
  (match Vm.compiled_graph vm f with
  | None -> Alcotest.fail "not compiled after warm-up"
  | Some g ->
      Alcotest.(check int) "both cold branches pruned" 2 (count_deopt_terminators g);
      Alcotest.(check int) "fully scalar-replaced" 0 (count_alloc_nodes g));
  (* take cold branch A: deopt #1 *)
  Alcotest.(check int) "deopting call result" 8 (as_int (Vm.invoke vm f [ vint 7; vbool true; vbool false ]));
  Alcotest.(check int) "one deopt" 1 (Stats.get (Vm.stats vm) Stats.deopts);
  Alcotest.(check int) "one site blacklisted" 1 (List.length (Vm.blacklisted_sites vm f));
  Alcotest.(check int) "site_blacklists counter" 1 (Stats.get (Vm.stats vm) Stats.site_blacklists);
  (* next call recompiles: branch A compiled in, branch B still pruned,
     allocation still virtual *)
  let virtualized_before = (Vm.jit_stats vm).Pea_core.Pea.virtualized_allocs in
  ignore (Vm.invoke vm f [ vint 3; vbool false; vbool false ]);
  (match Vm.compiled_graph vm f with
  | None -> Alcotest.fail "not recompiled after deopt"
  | Some g ->
      Alcotest.(check int) "other site still speculated" 1 (count_deopt_terminators g);
      Alcotest.(check int) "still fully scalar-replaced" 0 (count_alloc_nodes g));
  Alcotest.(check bool)
    "recompile still virtualizes" true
    ((Vm.jit_stats vm).Pea_core.Pea.virtualized_allocs > virtualized_before);
  (* branch B was genuinely kept speculative: taking it deopts again *)
  Alcotest.(check int) "second cold branch deopts" 8
    (as_int (Vm.invoke vm f [ vint 7; vbool false; vbool true ]));
  Alcotest.(check int) "two deopts" 2 (Stats.get (Vm.stats vm) Stats.deopts);
  Alcotest.(check int) "two sites blacklisted" 2 (List.length (Vm.blacklisted_sites vm f));
  (* two invalidations are below the default storm limit *)
  Alcotest.(check bool) "not pinned" false (Vm.interpreter_pinned vm f);
  (* the fully-deopted recompile carries no speculation left *)
  ignore (Vm.invoke vm f [ vint 3; vbool false; vbool false ]);
  match Vm.compiled_graph vm f with
  | None -> Alcotest.fail "not recompiled"
  | Some g -> Alcotest.(check int) "no speculation left" 0 (count_deopt_terminators g)

(* Each deopt emits a Site_blacklist event naming the blacklist key. *)
let test_site_blacklist_event () =
  let t = Trace.create () in
  let vm, f = policy_setup ~trace:t () in
  ignore (Vm.invoke vm f [ vint 7; vbool true; vbool false ]);
  let events = List.map (fun e -> e.Trace.e_event) (Trace.entries t) in
  Alcotest.(check bool)
    "site_blacklist traced" true
    (List.exists (function Event.Site_blacklist { meth = "C.f"; _ } -> true | _ -> false) events)

(* The deopt-storm guard: after [deopt_storm_limit] distinct
   invalidations the method is pinned to the interpreter and never
   recompiled. *)
let test_deopt_storm_pins () =
  let vm, f = policy_setup ~deopt_storm_limit:2 () in
  ignore (Vm.invoke vm f [ vint 7; vbool true; vbool false ]) (* deopt #1 *);
  Alcotest.(check bool) "not pinned yet" false (Vm.interpreter_pinned vm f);
  ignore (Vm.invoke vm f [ vint 3; vbool false; vbool false ]) (* recompile *);
  ignore (Vm.invoke vm f [ vint 7; vbool false; vbool true ]) (* deopt #2 *);
  Alcotest.(check bool) "pinned at the limit" true (Vm.interpreter_pinned vm f);
  Alcotest.(check bool) "compiled code invalidated" true (Vm.compiled_graph vm f = None);
  let deopts = Stats.get (Vm.stats vm) Stats.deopts in
  let compiles = Stats.get (Vm.stats vm) Stats.compiled_methods in
  for i = 1 to 10 do
    Alcotest.(check int) "pinned calls still correct" (i + 1)
      (as_int (Vm.invoke vm f [ vint i; vbool true; vbool true ]))
  done;
  Alcotest.(check int) "no further deopts" deopts (Stats.get (Vm.stats vm) Stats.deopts);
  Alcotest.(check int) "no further compiles" compiles
    (Stats.get (Vm.stats vm) Stats.compiled_methods);
  Alcotest.(check bool) "still not recompiled" true (Vm.compiled_graph vm f = None)

(* ------------------------------------------------------------------ *)
(* The per-method record                                               *)
(* ------------------------------------------------------------------ *)

(* [g]'s cold [k == 7] branch sits before its loop, so [g]'s OSR graph,
   entered at the loop header, does not contain it. [f] has a loop of its
   own and calls [g] after it; the JIT inlines [g] into [f]. *)
let two_loops_src =
  "class C {\n\
  \  static int g(int n, int k) {\n\
  \    int s = 0;\n\
  \    if (k == 7) { s = 1000; }\n\
  \    int i = 0;\n\
  \    while (i < n) { s = s + i; i = i + 1; }\n\
  \    return s;\n\
  \  }\n\
  \  static int f(int n, int k) {\n\
  \    int s = 0;\n\
  \    int j = 0;\n\
  \    while (j < n) { s = s + 1; j = j + 1; }\n\
  \    return s + C.g(n, k);\n\
  \  }\n\
   }"

(* Only OSR tiers up, so each method gets its normal-entry code together
   with its OSR code. *)
let osr_only_config =
  { Jit.default_config with Jit.compile_threshold = max_int; osr = true; osr_threshold = 50 }

(* A deopt invalidates the compiled root's normal and OSR code and
   nothing else: [f] deopts at [g]'s site inlined into it, the
   interpreter resumes [g]'s frame before [g]'s loop, and the loop
   enters [g]'s OSR code, which the deopt left in place. *)
let test_deopt_drops_only_its_method () =
  let program = Link.compile_source ~require_main:false two_loops_src in
  let vm = Vm.create ~config:osr_only_config program in
  let f = Link.find_method program "C" "f" and g = Link.find_method program "C" "g" in
  let stat c = Stats.get (Vm.stats vm) c in
  let g_of n k = (if k = 7 then 1000 else 0) + (n * (n - 1) / 2) in
  (* short calls profile both loop exits as taken and [k == 7] as
     untaken; [f]'s loop gets hot first and OSRs, inlining [g] *)
  for _ = 1 to 30 do
    Alcotest.(check int) "f" (2 + g_of 2 0) (as_int (Vm.invoke vm f [ vint 2; vint 0 ]))
  done;
  Alcotest.(check bool) "f has normal-entry code" true (Vm.compiled_graph vm f <> None);
  let entries = stat Stats.osr_entries in
  Alcotest.(check int) "g" (g_of 60 0) (as_int (Vm.invoke vm g [ vint 60; vint 0 ]));
  Alcotest.(check int) "g entered its OSR code" (entries + 1) (stat Stats.osr_entries);
  Alcotest.(check bool) "g has normal-entry code" true (Vm.compiled_graph vm g <> None);
  let entries = stat Stats.osr_entries and compiles = stat Stats.osr_compiles in
  (* f's normal code deopts at g's inlined branch *)
  Alcotest.(check int) "f's result through the deopt" (60 + g_of 60 7)
    (as_int (Vm.invoke vm f [ vint 60; vint 7 ]));
  Alcotest.(check int) "one deopt" 1 (stat Stats.deopts);
  Alcotest.(check bool) "f's normal code dropped" true (Vm.compiled_graph vm f = None);
  Alcotest.(check bool) "g's normal code kept" true (Vm.compiled_graph vm g <> None);
  Alcotest.(check int) "f invalidated once" 1 (Vm.invalidation_count vm f);
  Alcotest.(check int) "g never invalidated" 0 (Vm.invalidation_count vm g);
  Alcotest.(check int) "g's resumed loop entered g's kept OSR code" (entries + 1)
    (stat Stats.osr_entries);
  Alcotest.(check int) "without compiling it again" compiles (stat Stats.osr_compiles);
  (* f's OSR code went with the deopt: its loop compiles it again *)
  Alcotest.(check int) "f's result after the deopt" (60 + g_of 60 0)
    (as_int (Vm.invoke vm f [ vint 60; vint 0 ]));
  Alcotest.(check int) "f's OSR code compiled again" (compiles + 1) (stat Stats.osr_compiles);
  Alcotest.(check int) "and entered" (entries + 2) (stat Stats.osr_entries)

(* [helper]'s cold branch, inlined into [f], fires inside [f]'s code:
   the site is [helper]'s, so it is listed under [helper], while the
   invalidation is [f]'s. *)
let test_inlined_site_listed_under_callee () =
  let src =
    "class C {\n\
    \  static int helper(int x, boolean flip) {\n\
    \    int r = x + 1;\n\
    \    if (flip) { r = r * 3; }\n\
    \    return r;\n\
    \  }\n\
    \  static int f(int x, boolean flip) { return C.helper(x, flip) + 1; }\n\
     }"
  in
  let program = Link.compile_source ~require_main:false src in
  let config = { Jit.default_config with Jit.compile_threshold = 25; osr = false } in
  let vm = Vm.create ~config program in
  let f = Link.find_method program "C" "f" and helper = Link.find_method program "C" "helper" in
  Vm.warm_up vm f [ vint 3; vbool false ] 40;
  Alcotest.(check bool) "f compiled" true (Vm.compiled_graph vm f <> None);
  Alcotest.(check int) "the cold branch deopts" 25 (as_int (Vm.invoke vm f [ vint 7; vbool true ]));
  Alcotest.(check int) "one deopt" 1 (Stats.get (Vm.stats vm) Stats.deopts);
  Alcotest.(check int) "one site listed under helper" 1
    (List.length (Vm.blacklisted_sites vm helper));
  Alcotest.(check (list int)) "none under the root" [] (Vm.blacklisted_sites vm f);
  Alcotest.(check int) "the root's code was invalidated" 1 (Vm.invalidation_count vm f);
  Alcotest.(check int) "the callee's was not" 0 (Vm.invalidation_count vm helper);
  (* the recompile of f keeps helper's branch: taking it again is no deopt *)
  ignore (Vm.invoke vm f [ vint 3; vbool false ]);
  Alcotest.(check int) "taken again" 25 (as_int (Vm.invoke vm f [ vint 7; vbool true ]));
  Alcotest.(check int) "still one deopt" 1 (Stats.get (Vm.stats vm) Stats.deopts)

(* ------------------------------------------------------------------ *)
(* Compiled-tier invocation profiling                                  *)
(* ------------------------------------------------------------------ *)

(* The compiled tier must keep feeding the invocation profile: 5 calls
   through a threshold of 2 still report 5 profiled invocations (the
   compiled tier used to stop recording, freezing the count at the
   compile threshold). *)
let test_compiled_invocations_profiled () =
  let src = "class C { static int f(int x) { return x * 2 + 1; } }" in
  let program = Link.compile_source ~require_main:false src in
  let config = { Jit.default_config with Jit.compile_threshold = 2; osr = false } in
  let vm = Vm.create ~config program in
  let f = Link.find_method program "C" "f" in
  for i = 1 to 5 do
    Alcotest.(check int) "result" ((i * 2) + 1) (as_int (Vm.invoke vm f [ vint i ]))
  done;
  Alcotest.(check int) "stats count every call" 5 (Stats.get (Vm.stats vm) Stats.invocations);
  Alcotest.(check int) "profile counts every call" 5 (Profile.invocations (Vm.profile vm) f)

(* ------------------------------------------------------------------ *)
(* Differential property                                               *)
(* ------------------------------------------------------------------ *)

(* OSR on/off under a drawn configuration: both return and print
   exactly what the interpreter does; and at O_none (no scalar
   replacement anywhere) OSR cannot change the heap counters at all.
   Under EA/PEA an earlier tier-up legitimately removes allocations, so
   on-vs-off heap parity is only required at O_none. *)
let prop_osr_differential =
  let iters = 8 in
  let gen =
    QCheck2.Gen.pair (QCheck2.Gen.oneofl Programs.corpus)
      (Test_support.gen_config
         ~base:{ Jit.default_config with Jit.compile_threshold = 4; osr_threshold = 3 }
         ())
  in
  let run src (d : Test_support.draw) ~osr =
    let program = Pea_bytecode.Link.compile_source src in
    let config = { d.Test_support.config with Jit.osr } in
    let trace, cpu, heap = Test_support.instruments d in
    let r = Vm.run_main_iterations (Vm.create ?trace ?cpu ?heap ~config program) iters in
    (outcome r, r.Vm.stats)
  in
  QCheck2.Test.make ~name:"osr on/off: same results, prints and heap counters"
    ~count:(Test_env.qcheck_count 40)
    ~print:(fun ((name, _), d) -> name ^ " " ^ Test_support.show_draw ~walks:[ "osr" ] d)
    gen
    (fun ((_, src), d) ->
      let reference = Test_support.interp_reference ~iterations:iters src in
      let o_on, s_on = run src d ~osr:true in
      let o_off, s_off = run src d ~osr:false in
      o_on = reference && o_off = reference
      && (d.Test_support.config.Jit.opt <> Jit.O_none
         || s_on.Stats.s_allocations = s_off.Stats.s_allocations
            && s_on.Stats.s_allocated_bytes = s_off.Stats.s_allocated_bytes
            && s_on.Stats.s_monitor_ops = s_off.Stats.s_monitor_ops))

let () =
  Alcotest.run "osr"
    [
      ( "osr",
        [
          Alcotest.test_case "single invocation tiers up" `Quick test_osr_single_invocation;
          Alcotest.test_case "nested loops" `Quick test_osr_nested_loops;
          Alcotest.test_case "trace events" `Quick test_osr_trace_events;
        ] );
      ( "policy",
        [
          Alcotest.test_case "per-site blacklist" `Quick test_per_site_blacklist;
          Alcotest.test_case "site_blacklist event" `Quick test_site_blacklist_event;
          Alcotest.test_case "deopt storm pins" `Quick test_deopt_storm_pins;
        ] );
      ( "method-record",
        [
          Alcotest.test_case "a deopt drops only its method's code" `Quick
            test_deopt_drops_only_its_method;
          Alcotest.test_case "an inlined callee's site is the callee's" `Quick
            test_inlined_site_listed_under_callee;
        ] );
      ( "profile",
        [
          Alcotest.test_case "compiled invocations profiled" `Quick
            test_compiled_invocations_profiled;
        ] );
      ( "differential",
        [ QCheck_alcotest.to_alcotest prop_osr_differential ] );
    ]
