(* Tests for the cycle-exact observability stack: the sampling profiler
   (Profile_cpu), the allocation-site heap profiler (Profile_heap), the
   flight recorder, and the [mjvm report] aggregation.

   The determinism cases pin one configuration each, which their goldens
   record. The parity property at the end draws the configuration:
   whatever it is, profiling on vs off must not move any result or
   deterministic counter. *)

open Pea_bytecode
open Pea_rt
open Pea_vm
module Pcpu = Pea_obs.Profile_cpu
module Pheap = Pea_obs.Profile_heap
module Flight = Pea_obs.Flight

(* Run [src] on a VM handed fresh profilers and hand back (vm result,
   report). *)
let run_profiled ?(interval = 256) ?(iterations = 8) ?(threshold = 4) ?(opt = Jit.O_pea)
    ?(osr = true) ?(oracle = false) src =
  let cpu = Pcpu.create ~interval () and heap = Pheap.create () in
  let program = Link.compile_source src in
  let config = { Jit.default_config with Jit.opt; compile_threshold = threshold; osr; oracle } in
  let vm = Vm.create ~cpu ~heap ~config program in
  let r = Vm.run_main_iterations vm iterations in
  let report =
    Report.collect ~program ~cpu ~heap ~pea_sites:(Vm.jit_stats vm).Pea_core.Pea.sites ()
  in
  (r, report)

let renderings rp = (Report.to_string rp, Report.to_json rp, Report.collapsed rp)

(* Count heap-profiler records of [cls] and [kind] per run. *)
let class_count rp cls kind =
  List.fold_left
    (fun acc (r : Report.alloc_row) ->
      if r.Report.ar_cls = cls && r.Report.ar_kind = kind then acc + r.Report.ar_count else acc)
    0 rp.Report.rp_allocs

(* ------------------------------------------------------------------ *)
(* Determinism goldens                                                 *)
(* ------------------------------------------------------------------ *)

(* The full report — collapsed stacks included — is byte-identical when
   the same program runs twice. *)
let test_identical_across_runs () =
  let _, a = run_profiled Programs.cache_loop in
  let _, b = run_profiled Programs.cache_loop in
  Alcotest.(check bool) "some samples" true (a.Report.rp_total > 0);
  Alcotest.(check bool) "compiled samples exist" true
    (List.exists (fun (t, w) -> t <> "interp" && w > 0) a.Report.rp_tiers);
  Alcotest.(check (triple string string string)) "byte-identical" (renderings a) (renderings b)

(* The same through deopts: rematerializations and the interpreter
   frames a deopt resumes in land at the same samples on every run. *)
let test_identical_across_runs_with_deopts () =
  let run () =
    run_profiled ~iterations:30 ~threshold:22 ~osr:false ~opt:Jit.O_pea Programs.deopt_trap
  in
  let r, a = run () in
  let _, b = run () in
  Alcotest.(check bool) "a deopt fired" true (r.Vm.stats.Stats.s_deopts > 0);
  Alcotest.(check bool) "remat rows present" true (class_count a "P" "remat" > 0);
  Alcotest.(check (triple string string string)) "byte-identical" (renderings a) (renderings b)

(* A run that never compiles is the interpreter's alone: the JIT's
   optimization level must not move a single sample or allocation
   record. *)
let test_interp_only_ignores_opt () =
  let profile opt =
    snd (run_profiled ~threshold:max_int ~osr:false ~opt Programs.cache_loop)
  in
  let none = profile Jit.O_none in
  Alcotest.(check bool) "samples taken" true (none.Report.rp_total > 0);
  Alcotest.(check (list (pair string int))) "interpreter samples only"
    [ ("interp", none.Report.rp_total) ]
    (List.filter (fun (_, w) -> w > 0) none.Report.rp_tiers);
  List.iter
    (fun opt ->
      Alcotest.(check (triple string string string))
        (Test_support.opt_name opt ^ " = none")
        (renderings none) (renderings (profile opt)))
    [ Jit.O_ea; Jit.O_pea ]

(* A literal golden: a tiny interpreter-only loop has a fully pinned
   collapsed-stack profile. If this moves, either the cost model or the
   sampling discipline changed — both are semantic changes that should
   be visible in a diff. *)
let golden_src =
  "class Main { static int main() { int s = 0; int i = 0; while (i < 100) { s = s + i; i = i \
   + 1; } return s; } }"

let test_collapsed_golden () =
  let _, rp =
    run_profiled ~interval:1024 ~iterations:1 ~threshold:max_int ~osr:false golden_src
  in
  Alcotest.(check string) "golden collapsed stacks"
    "Main.main[interp];@0 5\nMain.main[interp];@8 9\nMain.main[interp];@16 1\n"
    (Report.collapsed rp)

(* A literal golden with compiled code in it: [cache_loop] tiers up
   through both the invocation-count JIT and OSR, so the tier split and
   the collapsed stacks pin where compiled code's cycles land. Recorded
   while a second compiled-code executor still existed, after both were
   checked to produce this profile byte for byte. *)
let test_compiled_golden () =
  let _, rp = run_profiled Programs.cache_loop in
  Alcotest.(check (list (pair string int))) "tier split"
    [ ("interp", 89); ("jit", 763); ("osr", 234) ]
    rp.Report.rp_tiers;
  Alcotest.(check string) "golden collapsed stacks"
    "Main.main[interp];@0 7\n\
     Main.main[interp];@8 37\n\
     Main.main[interp];@16 33\n\
     Main.main[jit] 741\n\
     Main.main[interp];Cache.getValue[interp];@0 3\n\
     Main.main[interp];Cache.getValue[interp];@16 1\n\
     Main.main[interp];Cache.getValue[jit] 22\n\
     Main.main[interp];Main.main[interp];@16 2\n\
     Main.main[interp];Main.main[osr] 234\n\
     Main.main[interp];Cache.getValue[interp];Key.<init>[interp];@0 2\n\
     Main.main[interp];Cache.getValue[interp];Key.sameAs[interp];@0 2\n\
     Main.main[interp];Cache.getValue[interp];Key.sameAs[interp];@16 2\n"
    (Report.collapsed rp)

(* The safepoint stream: with a profiler at interval 1, the cycle count
   the clock reads at every poll, in order, for a whole run. The count
   and an order-sensitive digest of the readings are pinned: a safepoint
   lost, added or moved across a charge changes them, where the samples
   can hide it (compiled frames carry no bci, and weights follow the
   cycle clock). [safepoint_src] has empty blocks passed through (an
   inlined recursion leaves chains of them), phi edges, int operations
   that cannot trap, a compiled call and a deopt on the fifth run; on
   the [fop] row 241,620 polls. Both literals were recorded while each
   compiled block still polled from a closure of its own at its entry
   and every int operation charged itself. *)
let safepoint_src =
  "class Box { int v; }\n\
   class Main {\n\
  \  static int runs;\n\
  \  static int down(int x) {\n\
  \    if (x < 2) { return x; }\n\
  \    return Main.down(x - 1) + 1;\n\
  \  }\n\
  \  static int main() {\n\
  \    Main.runs = Main.runs + 1;\n\
  \    Box b = new Box();\n\
  \    int s = 0;\n\
  \    int i = 0;\n\
  \    while (i < 120) {\n\
  \      int t = i * 3 + 1;\n\
  \      if (t % 4 == 0) { } else { b.v = b.v + 1; }\n\
  \      if (t % 5 == 0) { } else { s = s + t / 2; }\n\
  \      if (i % 16 == 0) { s = s + Main.down(i % 7); }\n\
  \      i = i + 1;\n\
  \    }\n\
  \    if (Main.runs > 4) { s = s - b.v; }\n\
  \    return s + b.v;\n\
  \  }\n\
   }"

(* (polls, digest, result) of [iterations] runs of [src] at [threshold] *)
let safepoint_stream ~threshold ~iterations src =
  let cpu = Pcpu.create ~interval:1 () in
  let program = Link.compile_source src in
  let config = { Jit.default_config with Jit.compile_threshold = threshold } in
  let vm = Vm.create ~cpu ~config program in
  let polls = ref 0 and digest = ref 0 in
  Pcpu.set_clock cpu (fun () ->
      let c = Stats.get (Vm.stats vm) Stats.cycles in
      incr polls;
      digest := ((!digest * 1_000_003) + c) land max_int;
      c);
  let r = Vm.run_main_iterations vm iterations in
  (!polls, !digest, r)

let test_safepoint_stream () =
  let polls, digest, r = safepoint_stream ~threshold:2 ~iterations:8 safepoint_src in
  let s = r.Vm.stats in
  Alcotest.(check bool) "a deopt fired" true (s.Stats.s_deopts > 0);
  Alcotest.(check bool) "ran compiled" true (s.Stats.s_compiled_ops > 0);
  Alcotest.(check (pair int int)) "polls and digest" (11836, 2189085758806342809) (polls, digest);
  let fop = Option.get (Pea_workloads.Spec.find "fop") in
  let polls, digest, _ =
    safepoint_stream ~threshold:2 ~iterations:3 (Pea_workloads.Codegen.source_for_row fop)
  in
  Alcotest.(check (pair int int)) "fop: polls and digest" (241620, 2353098976596625061) (polls, digest)

(* ------------------------------------------------------------------ *)
(* Heap attribution                                                    *)
(* ------------------------------------------------------------------ *)

(* The ISSUE-8 cross-reference: the same bytecode site shows N
   materialized allocations under --opt none and a (near-)zero count
   under pea, with the report row carrying the PEA verdict. *)
let test_attribution_none_vs_pea () =
  let iterations = 2 and threshold = 4 in
  let _, none = run_profiled ~iterations ~threshold ~opt:Jit.O_none Programs.cache_loop in
  let _, pea = run_profiled ~iterations ~threshold ~opt:Jit.O_pea Programs.cache_loop in
  let n_none = class_count none "Key" "alloc" in
  let n_pea = class_count pea "Key" "alloc" in
  Alcotest.(check bool)
    (Printf.sprintf "unoptimized allocates freely (%d)" n_none)
    true (n_none > 100);
  Alcotest.(check bool)
    (Printf.sprintf "pea eliminates the hot-path allocations (%d < %d)" n_pea n_none)
    true (n_pea < n_none / 4);
  (* every Key row is attributed to a real bytecode site, and under pea
     the remaining (interpreter warm-up) rows carry the PEA verdict *)
  List.iter
    (fun (r : Report.alloc_row) ->
      if r.Report.ar_cls = "Key" then begin
        Alcotest.(check bool) "attributed to a method" true (r.Report.ar_method <> "<unknown>");
        Alcotest.(check bool) "attributed to a bci" true (r.Report.ar_bci >= 0)
      end)
    (none.Report.rp_allocs @ pea.Report.rp_allocs);
  Alcotest.(check bool) "pea verdict is cross-referenced onto the row" true
    (List.exists
       (fun (r : Report.alloc_row) ->
         r.Report.ar_cls = "Key"
         && match r.Report.ar_pea with
            | Some verdict -> Test_support.contains verdict "virtualized"
            | None -> false)
       pea.Report.rp_allocs)

(* A real deoptimization with a virtual object in the frame state
   produces K_remat records attributed to the deopt site's method. *)
let test_remat_attribution () =
  let r, rp =
    run_profiled ~iterations:30 ~threshold:22 ~osr:false ~opt:Jit.O_pea Programs.deopt_trap
  in
  Alcotest.(check bool) "a deopt fired" true (r.Vm.stats.Stats.s_deopts > 0);
  Alcotest.(check bool) "objects were rematerialized" true
    (r.Vm.stats.Stats.s_rematerialized > 0);
  let remat = class_count rp "P" "remat" in
  Alcotest.(check int) "every remat is attributed" r.Vm.stats.Stats.s_rematerialized remat;
  List.iter
    (fun (row : Report.alloc_row) ->
      if row.Report.ar_kind = "remat" then begin
        Alcotest.(check string) "remat site method" "Main.main" row.Report.ar_method;
        Alcotest.(check bool) "remat site bci" true (row.Report.ar_bci >= 0)
      end)
    rp.Report.rp_allocs

(* The by-class view is the per-class allocation ledger: it sums the
   charged kinds only (alloc, remat, promote; scratch and stack objects
   are never charged), orders by bytes descending and breaks ties by
   name. *)
let test_by_class () =
  let t = Pheap.create () in
  let record cls kind bytes = Pheap.record t ~mid:0 ~bci:1 ~cls ~kind ~bytes in
  record "Small" Pheap.K_alloc 24;
  record "Small" Pheap.K_alloc 24;
  record "Small" Pheap.K_scratch 24;
  record "Small" Pheap.K_stack 24;
  record "Cell" Pheap.K_promote 48;
  record "Big" Pheap.K_remat 48;
  record "int[]" Pheap.K_alloc 416;
  record "Box" Pheap.K_stack 24;
  Alcotest.(check (list (triple string int int))) "charged kinds, bytes desc, then name"
    [ ("int[]", 1, 416); ("Big", 1, 48); ("Cell", 1, 48); ("Small", 2, 48) ]
    (Pheap.by_class t)

(* What checks a deopt is seen by no instrument: the deopt oracle
   replays each deopt in a shadow interpreter, on an environment that
   carries no profiler, so its samples and allocations stay out of the
   profiles. On bench/main.ml's deopt-promote program (three deopts at
   threshold 30 over two runs of [main]) the reports with the oracle off
   and on are byte-identical. *)
let test_oracle_replay_unprofiled () =
  let profile oracle =
    run_profiled ~interval:64 ~iterations:2 ~threshold:30 ~oracle Programs.deopt_promote
  in
  let r, off = profile false in
  let _, on = profile true in
  Alcotest.(check int) "three deopts" 3 r.Vm.stats.Stats.s_deopts;
  Alcotest.(check string) "collapsed stacks" (Report.collapsed off) (Report.collapsed on);
  Alcotest.(check string) "report" (Report.to_string off) (Report.to_string on)

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

(* Deopt-storm the two-branch method with the limit at 2 and assert the
   VM's recorder snapshots the ring to disk, and that the dump reads back
   through the parser the [mjvm report --flight] path uses. *)
let test_flight_dump_on_storm () =
  let path = Filename.temp_file "mjvm_flight" ".jsonl" in
  let program = Link.compile_source ~require_main:false Programs.two_branch in
  let config =
    { Jit.default_config with Jit.compile_threshold = 25; osr = false; deopt_storm_limit = 2 }
  in
  let flight = Flight.create ~path in
  let vm = Vm.create ~flight ~config program in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let f = Link.find_method program "C" "f" in
      let vint n = Value.Vint n and vbool b = Value.Vbool b in
      Vm.warm_up vm f [ vint 3; vbool false; vbool false ] 40;
      ignore (Vm.invoke vm f [ vint 7; vbool true; vbool false ]) (* deopt #1 *);
      ignore (Vm.invoke vm f [ vint 3; vbool false; vbool false ]) (* recompile *);
      ignore (Vm.invoke vm f [ vint 7; vbool false; vbool true ]) (* deopt #2: pins *);
      Alcotest.(check bool) "storm guard pinned" true (Vm.interpreter_pinned vm f);
      Alcotest.(check int) "one dump written" 1 (Flight.dumps flight);
      match Flight.read_file path with
      | Error msg -> Alcotest.failf "dump does not parse: %s" msg
      | Ok d ->
          Alcotest.(check string) "tagged with the trigger" "deopt-storm" d.Flight.d_reason;
          Alcotest.(check bool) "ring events captured" true (d.Flight.d_events > 0);
          Alcotest.(check int) "entries match the header count" d.Flight.d_events
            (List.length d.Flight.d_entries);
          let text = Report.flight_to_string d in
          Alcotest.(check bool) "report renders the deopts" true
            (Test_support.contains text "deopt");
          Alcotest.(check bool) "json renders the reason" true
            (Test_support.contains (Report.flight_to_json d) "\"reason\":\"deopt-storm\""))

(* ------------------------------------------------------------------ *)
(* Profiling-off parity                                                *)
(* ------------------------------------------------------------------ *)

(* Profiling must be invisible: over a drawn program and configuration,
   a profiled run returns the same outcome and bit-identical
   deterministic counters as an unprofiled one. This is the profiler
   twin of the trace zero-overhead gate. The property walks the
   profilers itself; both runs are handed the drawn tracer. And the heap
   profiler is the run's allocation ledger: its [by_class] rows sum to
   the run's [allocations] and [allocated_bytes], through whatever the
   draw does (OSR, the stack tier, the oracle's replay, deopts).

   Two draws in five are the shared corpus, six runs of [main] at
   threshold 4. At that threshold no profile clears the pruner's
   20-sample floor, so nothing deopts; the rest are the two deopt
   programs, OSR off, at the threshold their pruned branch needs:
   [deopt_trap] (30 runs at 22) rematerializes a virtual object, and
   [deopt_promote] (2 runs at 30), drawn twice as often, promotes a
   stack-allocated one when pea and the stack tier are drawn. *)
let prop_profiling_off_parity =
  let open QCheck2.Gen in
  let case ?(osr = true) ~threshold ~iterations (name, src) =
    map
      (fun (d : Test_support.draw) ->
        let c = d.Test_support.config in
        ( (name, src, iterations),
          { d with Test_support.config = { c with Jit.osr = c.Jit.osr && osr } } ))
      (Test_support.gen_config
         ~base:{ Jit.default_config with Jit.compile_threshold = threshold; osr_threshold = 3 }
         ())
  in
  let gen =
    frequency
      [
        (2, oneofl Programs.corpus >>= case ~threshold:4 ~iterations:6);
        (1, case ~osr:false ~threshold:22 ~iterations:30 ("deopt-trap", Programs.deopt_trap));
        (2, case ~osr:false ~threshold:30 ~iterations:2 ("deopt-promote", Programs.deopt_promote));
      ]
  in
  let observe ?trace ?cpu ?heap (_, src, iterations) (d : Test_support.draw) =
    let program = Link.compile_source src in
    let r =
      Vm.run_main_iterations
        (Vm.create ?trace ?cpu ?heap ~config:d.Test_support.config program)
        iterations
    in
    (Test_support.outcome r, Test_support.deterministic_counters r.Vm.stats)
  in
  QCheck2.Test.make ~name:"profiling changes no result and no counter"
    ~count:(Test_env.qcheck_count 80)
    ~print:(fun ((name, _, _), d) -> name ^ " " ^ Test_support.show_draw ~walks:[ "profilers" ] d)
    gen
    (fun (case, d) ->
      let trace, _, _ = Test_support.instruments d in
      let off = observe ?trace case d in
      let heap = Pheap.create () in
      let on = observe ?trace ~cpu:(Pcpu.create ~interval:64 ()) ~heap case d in
      let count, bytes =
        List.fold_left (fun (n, b) (_, c, y) -> (n + c, b + y)) (0, 0) (Pheap.by_class heap)
      in
      let counters = snd on in
      off = on
      && count = List.assoc "allocations" counters
      && bytes = List.assoc "allocated_bytes" counters)

let () =
  Alcotest.run "profile"
    [
      ( "determinism",
        [
          Alcotest.test_case "byte-identical across runs" `Quick test_identical_across_runs;
          Alcotest.test_case "byte-identical across runs with deopts" `Quick
            test_identical_across_runs_with_deopts;
          Alcotest.test_case "no compiles: the opt level moves nothing" `Quick
            test_interp_only_ignores_opt;
          Alcotest.test_case "collapsed-stack golden" `Quick test_collapsed_golden;
          Alcotest.test_case "compiled collapsed-stack golden" `Quick test_compiled_golden;
          Alcotest.test_case "safepoint stream" `Quick test_safepoint_stream;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "none vs pea at one site" `Quick test_attribution_none_vs_pea;
          Alcotest.test_case "remat attribution" `Quick test_remat_attribution;
          Alcotest.test_case "by-class ledger" `Quick test_by_class;
          Alcotest.test_case "the oracle's replay stays out of the profiles" `Quick
            test_oracle_replay_unprofiled;
        ] );
      ("flight", [ Alcotest.test_case "dump on deopt storm" `Quick test_flight_dump_on_storm ]);
      ( "parity",
        [ QCheck_alcotest.to_alcotest ~verbose:false prop_profiling_off_parity ] );
    ]
