(* Observability tests: the trace ring buffer and sinks, trace
   determinism across runs and a literal event-stream golden, the
   [Explain] report, and the zero-overhead guarantee — tracing on must
   never change results or deterministic counters. *)

open Pea_rt
open Pea_vm
module Event = Pea_obs.Event
module Trace = Pea_obs.Trace

(* ------------------------------------------------------------------ *)
(* Ring buffer and span                                                *)
(* ------------------------------------------------------------------ *)

let ev i = Event.Compile_start { meth = Printf.sprintf "M.m%d" i; opt = "pea" }

let test_ring_overflow () =
  let t = Trace.create ~capacity:3 () in
  for i = 0 to 4 do
    Trace.emit t (ev i)
  done;
  Alcotest.(check int) "length capped" 3 (Trace.length t);
  Alcotest.(check int) "dropped counted" 2 (Trace.dropped t);
  Alcotest.(check (list int)) "oldest dropped first" [ 2; 3; 4 ]
    (List.map (fun e -> e.Trace.e_seq) (Trace.entries t));
  Trace.clear t;
  Alcotest.(check int) "clear" 0 (Trace.length t)

let test_span_pairs () =
  let t = Trace.create () in
  Alcotest.(check int) "span result" 7 (Trace.span (Some t) ~meth:"M.m" "build" (fun () -> 7));
  (match Trace.span (Some t) ~meth:"M.m" "inline" (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected the span body to raise");
  let names = List.map (fun e -> Event.name e.Trace.e_event) (Trace.entries t) in
  Alcotest.(check (list string)) "end emitted even on raise"
    [ "phase_start"; "phase_end"; "phase_start"; "phase_end" ]
    names;
  (* with no tracer, span is pass-through *)
  Alcotest.(check int) "span off" 7 (Trace.span None ~meth:"M.m" "build" (fun () -> 7))

(* ------------------------------------------------------------------ *)
(* Trace determinism on the VM                                         *)
(* ------------------------------------------------------------------ *)

(* Exercises the whole event surface: PEA virtualize/materialize in a
   compiled loop, a pruned branch that deopts with a virtual object in
   the frame state, recompilation, and inline-cache seeding. *)
let scenario_src = Programs.deopt_trap

(* threshold 22: enough interpreted samples for the pruner (min 20) with
   the escape branch never taken, so the compiled code deopts at
   iteration 24 — see [gen_program_deopt] in test_properties.ml *)
let run_traced ?(src = scenario_src) ?(iterations = 30) ?(threshold = 22) () =
  let program = Pea_bytecode.Link.compile_source src in
  (* OSR off: its eager compile would tier up after ~5 invocations (the
     loop runs 20 back edges per call), before the pruner has enough
     branch samples — this scenario pins the invocation-count path and
     its deopt/recompile surface; OSR tracing is covered in test_osr.ml *)
  let config = { Jit.default_config with Jit.compile_threshold = threshold; osr = false } in
  let t = Trace.create () in
  let r = Vm.run_main_iterations (Vm.create ~trace:t ~config program) iterations in
  (r, Trace.jsonl_string t, Trace.chrome_string t, Trace.entries t)

let count_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i acc =
    if i + m > n then acc
    else if String.sub s i m = sub then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_golden_jsonl_deterministic () =
  let _, j1, _, _ = run_traced () in
  let _, j2, _, _ = run_traced () in
  Alcotest.(check string) "identical across runs" j1 j2;
  let has name = count_sub j1 (Printf.sprintf "\"ev\":\"%s\"" name) > 0 in
  List.iter
    (fun name -> Alcotest.(check bool) ("has " ^ name) true (has name))
    [
      "tier_promote";
      "compile_start";
      "phase_start";
      "pea_virtualize";
      "pea_materialize";
      "deopt";
      "compile_end";
    ]

(* A literal golden for the event stream of [run_traced]: the cycle stamp
   and name of every event outside the compile pipeline's phase spans,
   and the deopt and compile payloads. After the first compile the stamps
   are set by compiled code's cost accounting, so this pins it from the
   trace side. The values were recorded while a second compiled-code
   executor still existed, after both were checked to emit this stream;
   the closure-only events (inline-cache transitions, the closure-tier
   promotion) were excluded from that comparison and are here too. *)
let test_event_stream_golden () =
  let _, _, _, entries = run_traced () in
  let tier_independent e =
    match e.Trace.e_event with
    | Event.Ic_transition _ | Event.Tier_promote { tier = "closure"; _ } -> false
    | _ -> true
  in
  let stream = List.filter tier_independent entries in
  Alcotest.(check int) "events, phase spans included" 38 (List.length stream);
  let outside_phases =
    List.filter_map
      (fun e ->
        match e.Trace.e_event with
        | Event.Phase_start _ | Event.Phase_end _ -> None
        | ev -> Some (e.Trace.e_cycles, Event.name ev))
      stream
  in
  Alcotest.(check (list (pair int string))) "(cycles, event)"
    [
      (151800, "tier_promote");
      (151800, "compile_start");
      (151800, "pea_virtualize");
      (151800, "pea_virtualize");
      (151800, "compile_end");
      (152123, "site_blacklist");
      (152674, "deopt");
      (152764, "tier_promote");
      (152764, "compile_start");
      (152764, "pea_virtualize");
      (152764, "pea_virtualize");
      (152764, "pea_materialize");
      (152764, "pea_materialize");
      (152764, "compile_end");
    ]
    outside_phases;
  let payloads =
    List.filter_map
      (fun e ->
        match e.Trace.e_event with
        | Event.Deopt { bci; rematerialized; _ } ->
            Some (Printf.sprintf "deopt bci=%d rematerialized=%d" bci rematerialized)
        | Event.Compile_end { meth; nodes } -> Some (Printf.sprintf "%s nodes=%d" meth nodes)
        | _ -> None)
      stream
  in
  Alcotest.(check (list string)) "payloads"
    [ "Main.main nodes=19"; "deopt bci=42 rematerialized=1"; "Main.main nodes=26" ]
    payloads

let test_chrome_structure () =
  let _, _, chrome, entries = run_traced () in
  Alcotest.(check bool) "header" true
    (String.length chrome > 16 && String.sub chrome 0 16 = "{\"traceEvents\":[");
  Alcotest.(check int) "one record per entry"
    (List.length entries)
    (count_sub chrome "\"cat\":\"mjvm\"");
  Alcotest.(check int) "balanced spans"
    (count_sub chrome "\"ph\":\"B\"")
    (count_sub chrome "\"ph\":\"E\"");
  (* every record carries the deterministic clock *)
  Alcotest.(check int) "cycles in args" (List.length entries) (count_sub chrome "\"cycles\":")

(* ------------------------------------------------------------------ *)
(* Explain                                                             *)
(* ------------------------------------------------------------------ *)

let explain_src =
  "class Key { int k1; int k2; }\n\
   class Cache {\n\
  \  static Key hit;\n\
  \  static int getValue(int a, int b, boolean store) {\n\
  \    Key k = new Key();\n\
  \    k.k1 = a;\n\
  \    k.k2 = b;\n\
  \    int v = k.k1 * 31 + k.k2;\n\
  \    if (store) { Cache.hit = k; }\n\
  \    return v;\n\
  \  }\n\
  \  static int local(int a) {\n\
  \    Key k = new Key();\n\
  \    k.k1 = a;\n\
  \    return k.k1 + 1;\n\
  \  }\n\
   }"

let explain_for name =
  let program = Pea_bytecode.Link.compile_source ~require_main:false explain_src in
  let m = Pea_bytecode.Link.find_method program "Cache" name in
  Explain.to_string (Explain.analyze Jit.default_config program (Run.profile program) m)

let test_explain_partial_escape () =
  Alcotest.(check string) "branch-escaping site"
    "PEA report for Cache.getValue (summaries=on)\n\
     site v4: Key (allocated in B0, Cache.getValue@0)\n\
    \    virtualized, then materialized:\n\
    \      in B1: stored into a static field (global escape)\n\
    \    removed: 0 loads, 2 stores, 0 monitor ops\n\
     \n\
     sites: 1, fully scalar-replaced: 0, materializations: 1 (0 to stack), scratch args: 0\n\
     speculation safety: clean (every deopt state rematerializable)\n"
    (explain_for "getValue")

let test_explain_scalar_replaced () =
  Alcotest.(check string) "fully virtual site"
    "PEA report for Cache.local (summaries=on)\n\
     site v2: Key (allocated in B0, Cache.local@0)\n\
    \    fully scalar-replaced: never materialized\n\
    \    removed: 0 loads, 1 stores, 0 monitor ops\n\
     \n\
     sites: 1, fully scalar-replaced: 1, materializations: 0 (0 to stack), scratch args: 0\n\
     speculation safety: clean (every deopt state rematerializable)\n"
    (explain_for "local")

(* Explain reports the JIT's own compile: on the same configuration and
   profile, its stats are [Jit.compile]'s [pea_stats], site reports
   included, for every method the JIT compiles in the three example
   programs and the 27 Table-1 rows, each on its one-run profile. *)
let test_explain_is_the_jit () =
  let examples =
    List.map
      (fun f -> In_channel.with_open_bin ("../examples/" ^ f) In_channel.input_all)
      [ "cache.mj"; "merge.mj"; "retry.mj" ]
  in
  let rows = List.map Pea_workloads.Codegen.source_for_row Pea_workloads.Spec.all in
  let config = Jit.default_config in
  let compared = ref 0 and differ = ref [] in
  List.iter
    (fun src ->
      let program = Pea_bytecode.Link.compile_source src in
      let profile = Run.profile program in
      let summaries = Pea_analysis.Summary.analyze program in
      Array.iter
        (fun m ->
          match Jit.compile ~summaries config program profile m with
          | exception Pea_ir.Builder.Build_error _ -> ()
          | c ->
              incr compared;
              let e = Explain.analyze config program profile m in
              if Some e.Explain.ex_stats <> c.Jit.pea_stats then
                differ := Pea_bytecode.Classfile.qualified_name m :: !differ)
        program.Pea_bytecode.Link.methods)
    (examples @ rows);
  Alcotest.(check (list string)) "methods whose explain stats differ" [] (List.rev !differ);
  Alcotest.(check int) "methods compared" 337 !compared

(* ------------------------------------------------------------------ *)
(* Zero-overhead guarantee                                             *)
(* ------------------------------------------------------------------ *)

let outcome = Test_support.outcome

let run_plain ?(src = scenario_src) ?(iterations = 30) ?(threshold = 22) () =
  let program = Pea_bytecode.Link.compile_source src in
  (* same config as [run_traced]: OSR off, see the comment there *)
  let config = { Jit.default_config with Jit.compile_threshold = threshold; osr = false } in
  let vm = Vm.create ~config program in
  Vm.run_main_iterations vm iterations

let check_snapshots_equal what (a : Stats.snapshot) (b : Stats.snapshot) =
  Alcotest.(check bool) what true (a = b)

let test_tracing_off_parity () =
  let off = run_plain () in
  let on, _, _, _ = run_traced () in
  Alcotest.(check (pair string (list string))) "same outcome" (outcome off) (outcome on);
  check_snapshots_equal "same counters" off.Vm.stats on.Vm.stats

(* Property form, over the shared corpus and a drawn configuration and
   compile threshold: handing a VM a tracer never changes the program
   outcome or any deterministic counter. The property walks the tracer
   itself; both runs are handed the drawn profilers. *)
let prop_tracing_is_pure =
  let module G = QCheck2.Gen in
  let gen =
    G.pair (G.oneofl Programs.corpus)
      (G.bind (G.int_range 0 12) (fun compile_threshold ->
           Test_support.gen_config ~base:{ Jit.default_config with Jit.compile_threshold } ()))
  in
  QCheck2.Test.make ~name:"tracing changes no result and no counter"
    ~count:(Test_env.qcheck_count 40)
    ~print:(fun ((name, _), d) -> name ^ " " ^ Test_support.show_draw ~walks:[ "tracer" ] d)
    gen
    (fun ((_, src), d) ->
      let config = d.Test_support.config in
      let program = Pea_bytecode.Link.compile_source src in
      let _, cpu, heap = Test_support.instruments d in
      let off = Vm.run_main_iterations (Vm.create ?cpu ?heap ~config program) 3 in
      let on =
        Vm.run_main_iterations (Vm.create ~trace:(Trace.create ()) ?cpu ?heap ~config program) 3
      in
      outcome off = outcome on && off.Vm.stats = on.Vm.stats)

let () =
  Alcotest.run "obs"
    [
      ( "ring",
        [
          Alcotest.test_case "overflow drops oldest" `Quick test_ring_overflow;
          Alcotest.test_case "span pairs begin/end" `Quick test_span_pairs;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jsonl identical across runs" `Quick test_golden_jsonl_deterministic;
          Alcotest.test_case "event stream golden" `Quick test_event_stream_golden;
          Alcotest.test_case "chrome sink structure" `Quick test_chrome_structure;
        ] );
      ( "explain",
        [
          Alcotest.test_case "partial escape" `Quick test_explain_partial_escape;
          Alcotest.test_case "fully scalar-replaced" `Quick test_explain_scalar_replaced;
          Alcotest.test_case "is the JIT's compile" `Quick test_explain_is_the_jit;
        ] );
      ( "zero-overhead",
        [
          Alcotest.test_case "tracing off parity" `Quick test_tracing_off_parity;
          QCheck_alcotest.to_alcotest prop_tracing_is_pure;
        ] );
    ]
