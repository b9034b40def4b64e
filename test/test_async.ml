(* Background compilation (the Replay compile mode).

   - Replay goldens: the queue-decision stream (enqueue/install/
     stale/drop/failed) for a fixed scenario is pinned, and the full
     trace is byte-identical across runs.
   - Robustness: a compiler exception (injected through
     [Compile_queue.test_hook]) marks the method — or, for an OSR
     compile, just that loop entry — compile-failed, the VM keeps
     interpreting it, the queue keeps flowing, and the failure surfaces
     as a metric and a trace event.
   - Stress: interleaved hot methods and forced deopt storms under
     Replay — no lost installs, no double-installs (the epoch check),
     results identical to Sync, counters identical across runs.
   - Differential properties over the shared corpus: every opt × OSR ×
     compile-mode cell of [Test_support.run_all_configs] agrees with the
     interpreter, and two Replay runs agree on every counter.

   Configs are built explicitly where the test compares compile modes
   against each other; [Test_env.apply] would collapse the axis. *)

open Pea_bytecode
open Pea_rt
open Pea_vm
module Event = Pea_obs.Event
module Trace = Pea_obs.Trace

let vint n = Value.Vint n

let as_int = function
  | Some (Value.Vint n) -> n
  | other ->
      Alcotest.failf "expected an int result, got %s"
        (match other with None -> "void" | Some v -> Value.string_of_value v)

let with_tracer f = Test_support.with_tracer f

(* The queue-decision stream: every event the background pipeline emits,
   minus the (noisy, count-checked instead) dedup hits. *)
let queue_decisions entries =
  List.filter_map
    (fun e ->
      match e.Trace.e_event with
      | Event.Compile_enqueue { meth; osr_bci; _ } ->
          Some (Printf.sprintf "enqueue %s%s" meth
                  (match osr_bci with None -> "" | Some b -> Printf.sprintf "@%d" b))
      | Event.Compile_install { meth; osr_bci; _ } ->
          Some (Printf.sprintf "install %s%s" meth
                  (match osr_bci with None -> "" | Some b -> Printf.sprintf "@%d" b))
      | Event.Compile_stale { meth; _ } -> Some (Printf.sprintf "stale %s" meth)
      | Event.Compile_drop { meth; _ } -> Some (Printf.sprintf "drop %s" meth)
      | Event.Compile_failed { meth; _ } -> Some (Printf.sprintf "failed %s" meth)
      | _ -> None)
    entries

(* ------------------------------------------------------------------ *)
(* Replay goldens                                                      *)
(* ------------------------------------------------------------------ *)

(* Two helper methods get hot inside one run of main: both are enqueued
   once (every later hot report is a dedup hit), both install at their
   deadline, nothing is dropped or discarded. *)
let golden_src =
  "class Main {\n\
  \  static int f(int x) { return x * 2 + 1; }\n\
  \  static int g(int x) { return x * 3 - 1; }\n\
  \  static int main() {\n\
  \    int acc = 0;\n\
  \    int i = 0;\n\
  \    while (i < 400) { acc = acc + Main.f(i) + Main.g(i); i = i + 1; }\n\
  \    return acc;\n\
  \  }\n\
   }"

let replay_config =
  {
    Jit.default_config with
    Jit.compile_threshold = 5;
    osr = false;
    compile_mode = Jit.Replay;
  }

let run_golden () =
  let program = Link.compile_source golden_src in
  let vm = Vm.create ~config:replay_config program in
  with_tracer (fun t ->
      Trace.set_clock t (fun () -> Stats.get (Vm.stats vm) Stats.cycles);
      let r = Vm.run vm in
      Vm.quiesce vm;
      (r, Trace.jsonl_string t, Trace.entries t))

let test_replay_queue_golden () =
  let r, _, entries = run_golden () in
  let reference = Run.run_source golden_src in
  Alcotest.(check string)
    "same result as the interpreter"
    (Test_support.string_of_result reference.Run.return_value)
    (Test_support.string_of_result r.Vm.return_value);
  Alcotest.(check (list string))
    "queue decision stream"
    [ "enqueue Main.f"; "enqueue Main.g"; "install Main.f"; "install Main.g" ]
    (queue_decisions entries);
  Alcotest.(check int) "two enqueues" 2 r.Vm.stats.Stats.s_compile_enqueues;
  Alcotest.(check int) "two installs" 2 r.Vm.stats.Stats.s_compile_installs;
  Alcotest.(check int) "nothing dropped" 0 r.Vm.stats.Stats.s_compile_drops;
  Alcotest.(check int) "nothing stale" 0 r.Vm.stats.Stats.s_compile_stale_discards;
  Alcotest.(check bool) "later hot reports deduped" true
    (r.Vm.stats.Stats.s_compile_dedup_hits > 0);
  (* the interpreter carried the method to its deadline: the stall
     counter belongs to Sync alone *)
  Alcotest.(check int) "no stall cycles in replay" 0 r.Vm.stats.Stats.s_compile_stall_cycles

let test_replay_trace_deterministic () =
  let _, j1, _ = run_golden () in
  let _, j2, _ = run_golden () in
  Alcotest.(check string) "replay trace byte-identical across runs" j1 j2

(* Sync must be bit-for-bit what it was before background compilation
   existed: compiles at the threshold, no queue traffic at all, and the
   modeled latency lands on the stall counter, never on [cycles]. *)
let test_sync_untouched_by_queue_counters () =
  let program = Link.compile_source golden_src in
  let config = { replay_config with Jit.compile_mode = Jit.Sync } in
  let r = Vm.run (Vm.create ~config program) in
  Alcotest.(check int) "no enqueues" 0 r.Vm.stats.Stats.s_compile_enqueues;
  Alcotest.(check int) "no installs" 0 r.Vm.stats.Stats.s_compile_installs;
  Alcotest.(check bool) "stall cycles charged" true (r.Vm.stats.Stats.s_compile_stall_cycles > 0);
  (* time-to-steady-state = cycles + stall; replay must win whenever
     compiled code beats interpreting through the latency window *)
  let rr, _, _ = run_golden () in
  Alcotest.(check string) "same result"
    (Test_support.string_of_result r.Vm.return_value)
    (Test_support.string_of_result rr.Vm.return_value);
  Alcotest.(check bool) "replay time-to-steady beats sync" true
    (rr.Vm.stats.Stats.s_cycles + rr.Vm.stats.Stats.s_compile_stall_cycles
    < r.Vm.stats.Stats.s_cycles + r.Vm.stats.Stats.s_compile_stall_cycles)

(* ------------------------------------------------------------------ *)
(* Robustness: a compiler exception                                   *)
(* ------------------------------------------------------------------ *)

let robust_src =
  "class C {\n\
  \  static int f(int x) { return x * 2 + 1; }\n\
  \  static int g(int x) { return x * 3 - 1; }\n\
   }"

(* Inject a fault into every compile of C.f: the method must stay on the
   interpreter (correct results forever), the failure must surface as a
   metric and a trace event, and the queue must keep serving other
   methods — the VM never crashes or wedges. *)
let test_compile_failure_replay () =
  let program = Link.compile_source ~require_main:false robust_src in
  let config =
    { Jit.default_config with Jit.compile_threshold = 3; osr = false; compile_mode = Jit.Replay }
  in
  let vm = Vm.create ~config program in
  let f = Link.find_method program "C" "f" in
  let g = Link.find_method program "C" "g" in
  let fail_mid = f.Classfile.mth_id in
  Compile_queue.test_hook :=
    (fun (mid, osr) -> if mid = fail_mid && osr = None then failwith "injected compiler fault");
  Fun.protect
    ~finally:(fun () -> Compile_queue.test_hook := fun _ -> ())
    (fun () ->
      with_tracer (fun t ->
          for i = 1 to 30 do
            Alcotest.(check int) "f stays correct" ((i * 2) + 1)
              (as_int (Vm.invoke vm f [ vint i ]));
            Alcotest.(check int) "g stays correct" ((i * 3) - 1)
              (as_int (Vm.invoke vm g [ vint i ]))
          done;
          Vm.quiesce vm;
          Alcotest.(check bool) "f marked compile-failed" true (Vm.compile_failed vm f);
          Alcotest.(check bool) "f never installed" true (Vm.compiled_graph vm f = None);
          Alcotest.(check bool) "g still installed" true (Vm.compiled_graph vm g <> None);
          Alcotest.(check bool) "failure counted" true
            (Stats.get (Vm.stats vm) Stats.compile_failures >= 1);
          Alcotest.(check int) "queue drained" 0 (Vm.pending_compiles vm);
          Alcotest.(check bool) "failure traced" true
            (List.exists
               (fun e ->
                 match e.Trace.e_event with
                 | Event.Compile_failed { meth = "C.f"; _ } -> true
                 | _ -> false)
               (Trace.entries t));
          (* not wedged: the VM keeps answering after the failure *)
          Alcotest.(check int) "f interpreted afterwards" 41 (as_int (Vm.invoke vm f [ vint 20 ]));
          Alcotest.(check int) "g compiled afterwards" 59 (as_int (Vm.invoke vm g [ vint 20 ]))))

let robust_loop_src =
  "class C {\n\
  \  static int sum(int n) {\n\
  \    int acc = 0;\n\
  \    int i = 0;\n\
  \    while (i < n) { acc = acc + i; i = i + 1; }\n\
  \    return acc;\n\
  \  }\n\
   }"

(* The same fault on the OSR entry only: the failure pins the
   (method, loop header) key alone, so the loop keeps running in the
   interpreter while the normal-entry compile of the same method goes
   through the same queue and installs. *)
let test_compile_failure_replay_osr () =
  let program = Link.compile_source ~require_main:false robust_loop_src in
  let config =
    {
      Jit.default_config with
      Jit.compile_threshold = 3;
      osr = true;
      osr_threshold = 10;
      compile_mode = Jit.Replay;
    }
  in
  let vm = Vm.create ~config program in
  let sum = Link.find_method program "C" "sum" in
  let fail_mid = sum.Classfile.mth_id in
  Compile_queue.test_hook :=
    (fun (mid, osr) -> if mid = fail_mid && osr <> None then failwith "injected compiler fault");
  Fun.protect
    ~finally:(fun () -> Compile_queue.test_hook := fun _ -> ())
    (fun () ->
      with_tracer (fun t ->
          for _ = 1 to 12 do
            Alcotest.(check int) "sum stays correct" 1225 (as_int (Vm.invoke vm sum [ vint 50 ]))
          done;
          Vm.quiesce vm;
          let failed_osr =
            List.filter_map
              (fun e ->
                match e.Trace.e_event with
                | Event.Compile_failed { meth = "C.sum"; osr_bci; _ } -> Some osr_bci
                | _ -> None)
              (Trace.entries t)
          in
          Alcotest.(check int) "one OSR failure traced" 1 (List.length failed_osr);
          Alcotest.(check bool) "the failure is keyed to a loop header" true
            (List.for_all Option.is_some failed_osr);
          Alcotest.(check int) "failure counted once" 1
            (Stats.get (Vm.stats vm) Stats.compile_failures);
          Alcotest.(check int) "no OSR code" 0 (Stats.get (Vm.stats vm) Stats.osr_compiles);
          Alcotest.(check bool) "normal entry not marked failed" false (Vm.compile_failed vm sum);
          Alcotest.(check bool) "normal entry installed" true (Vm.compiled_graph vm sum <> None);
          Alcotest.(check int) "queue drained" 0 (Vm.pending_compiles vm);
          Alcotest.(check int) "compiled afterwards" 4950 (as_int (Vm.invoke vm sum [ vint 100 ]))))

(* ------------------------------------------------------------------ *)
(* Stress: hot methods × deopt storms under Replay                    *)
(* ------------------------------------------------------------------ *)

(* fa/fb carry three independently-pruned cold sites each; a site fires
   every 45th/60th call, cycling through the sites. Each firing is one
   deopt → site blacklist → epoch bump → recompile, and with
   [deopt_storm_limit = 2] the second invalidation pins the method — a
   real deopt storm against installed background code. fc is plain hot
   arithmetic; fd is a hot loop that tiers up through OSR. A queue
   capacity of 2 forces drop-and-reprofile backpressure. *)
let stress_src =
  "class S { int v; }\n\
   class W {\n\
  \  static int sink;\n\
  \  static int fa(int x, int k) {\n\
  \    S s = new S();\n\
  \    s.v = x * 3 + 1;\n\
  \    if (k == 1) { W.sink = W.sink + s.v; }\n\
  \    if (k == 2) { W.sink = W.sink + s.v * 2; }\n\
  \    if (k == 3) { W.sink = W.sink - s.v; }\n\
  \    return s.v;\n\
  \  }\n\
  \  static int fb(int x, int k) {\n\
  \    S s = new S();\n\
  \    s.v = x * 5 - 2;\n\
  \    if (k == 1) { W.sink = W.sink + s.v * 2; }\n\
  \    if (k == 2) { W.sink = W.sink - s.v * 3; }\n\
  \    if (k == 3) { W.sink = W.sink + s.v + 1; }\n\
  \    return s.v + 1;\n\
  \  }\n\
  \  static int fc(int x) { return x * 7 + W.sink; }\n\
  \  static int fd(int x) {\n\
  \    int acc = 0;\n\
  \    int i = 0;\n\
  \    while (i < 10) { acc = acc + x + i; i = i + 1; }\n\
  \    return acc;\n\
  \  }\n\
   }"

let stress_config mode =
  {
    Jit.default_config with
    Jit.compile_threshold = 25;
    osr = true;
    osr_threshold = 30;
    deopt_storm_limit = 2;
    compile_mode = mode;
    compile_queue_cap = 2;
  }

(* A fixed op budget of interleaved calls; every 45th/60th call takes
   the next cold site in the cycle (a forced deopt against whatever code
   is installed at that point). *)
let drive_stress ?(trace = false) mode =
  let program = Link.compile_source ~require_main:false stress_src in
  let vm = Vm.create ~config:(stress_config mode) program in
  let fa = Link.find_method program "W" "fa" in
  let fb = Link.find_method program "W" "fb" in
  let fc = Link.find_method program "W" "fc" in
  let fd = Link.find_method program "W" "fd" in
  let results = ref [] in
  let push v = results := as_int v :: !results in
  let cold i period = if i mod period = 0 then 1 + (i / period mod 3) else 0 in
  let body t =
    Option.iter
      (fun t -> Trace.set_clock t (fun () -> Stats.get (Vm.stats vm) Stats.cycles))
      t;
    for i = 1 to 300 do
      push (Vm.invoke vm fa [ vint i; vint (cold i 45) ]);
      push (Vm.invoke vm fb [ vint i; vint (cold i 60) ]);
      push (Vm.invoke vm fc [ vint i ]);
      if i mod 3 = 0 then push (Vm.invoke vm fd [ vint i ])
    done;
    Vm.quiesce vm;
    let entries = match t with Some t -> Trace.entries t | None -> [] in
    (List.rev !results, Stats.snapshot (Vm.stats vm), entries, vm, (fa, fc))
  in
  if trace then with_tracer (fun t -> body (Some t)) else body None

let test_stress_replay () =
  let results_r, sr, entries, vm, (fa, fc) = drive_stress ~trace:true Jit.Replay in
  (* real deopt storms happened, against installed background code *)
  Alcotest.(check bool) "deopts fired" true (sr.Stats.s_deopts >= 4);
  Alcotest.(check bool) "the storm guard pinned fa" true (Vm.interpreter_pinned vm fa);
  Alcotest.(check bool) "installs happened" true (sr.Stats.s_compile_installs > 0);
  Alcotest.(check bool) "backpressure exercised" true (sr.Stats.s_compile_drops > 0);
  (* no lost installs: after the drain, every enqueued task is accounted
     for as exactly one of installed / stale-discarded / failed *)
  Alcotest.(check int) "queue empty" 0 (Vm.pending_compiles vm);
  Alcotest.(check int) "enqueues all accounted" sr.Stats.s_compile_enqueues
    (sr.Stats.s_compile_installs + sr.Stats.s_compile_stale_discards
   + sr.Stats.s_compile_failures);
  Alcotest.(check int) "no compile failures" 0 sr.Stats.s_compile_failures;
  (* no double-installs: the epoch check means one install per
     (key, epoch) — a duplicate would be the same code installed twice *)
  let installs =
    List.filter_map
      (fun e ->
        match e.Trace.e_event with
        | Event.Compile_install { meth; osr_bci; epoch; _ } -> Some (meth, osr_bci, epoch)
        | _ -> None)
      entries
  in
  Alcotest.(check int) "every install unique per (key, epoch)" (List.length installs)
    (List.length (List.sort_uniq compare installs));
  (* the storm-free method ended up compiled *)
  Alcotest.(check bool) "fc installed" true (Vm.compiled_graph vm fc <> None);
  (* semantics: identical call-by-call results in both modes *)
  let results_s, ss, _, _, _ = drive_stress Jit.Sync in
  Alcotest.(check (list int)) "replay results = sync results" results_s results_r;
  (* determinism: a second (untraced) replay run agrees bit-for-bit on
     the whole counter surface *)
  let _, sr2, _, _, _ = drive_stress Jit.Replay in
  Alcotest.(check bool) "replay counters identical across runs" true (sr = sr2);
  (* and sync saw none of the queue *)
  Alcotest.(check int) "sync never enqueues" 0 ss.Stats.s_compile_enqueues

(* The stale-discard path, arising naturally: in the paper's cache loop
   the pruned miss branch deopts every 100th call, and under background
   compilation one of those deopts lands while a recompile of getValue
   is still in flight — the finished code is compiled against the old
   blacklist and must be discarded (and requeued), never installed. *)
let test_stale_discard_on_racing_deopt () =
  let program = Link.compile_source Programs.cache_loop in
  let config =
    { Jit.default_config with Jit.compile_threshold = 5; compile_mode = Jit.Replay }
  in
  let vm = Vm.create ~config program in
  let r = Vm.run_main_iterations vm 50 in
  Vm.quiesce vm;
  let reference = Run.run_source Programs.cache_loop in
  Alcotest.(check string) "same result as the interpreter"
    (Test_support.string_of_result reference.Run.return_value)
    (Test_support.string_of_result r.Vm.return_value);
  let s = Stats.snapshot (Vm.stats vm) in
  Alcotest.(check bool) "a deopt raced an in-flight compile" true
    (s.Stats.s_compile_stale_discards >= 1);
  Alcotest.(check bool) "the requeued compile installed" true (s.Stats.s_compile_installs >= 1);
  Alcotest.(check int) "queue drained" 0 (Vm.pending_compiles vm);
  Alcotest.(check int) "everything accounted" s.Stats.s_compile_enqueues
    (s.Stats.s_compile_installs + s.Stats.s_compile_stale_discards + s.Stats.s_compile_failures)

(* ------------------------------------------------------------------ *)
(* Differential properties over the shared matrix                      *)
(* ------------------------------------------------------------------ *)

(* Every cell of opt × OSR × {sync, replay} equals the interpreter on
   results and prints. *)
let prop_matrix_differential =
  let iters = 6 in
  QCheck2.Test.make ~name:"all compile-mode cells = interpreter"
    ~count:(Test_env.qcheck_count 25)
    ~print:(fun (name, _) -> name)
    (QCheck2.Gen.oneofl Programs.corpus)
    (fun (_, src) ->
      let reference = Test_support.interp_reference ~iterations:iters src in
      let cells = Test_support.run_all_configs ~iterations:iters src in
      List.for_all (fun (_, r) -> Test_support.outcome r = reference) cells)

(* Replay is a function of the program and the configuration: two runs
   agree on the outcome and on the whole counter snapshot, queue
   counters included. *)
let prop_replay_deterministic =
  let iters = 6 in
  let module G = QCheck2.Gen in
  let gen =
    G.map3
      (fun (name, src) opt osr -> (name, src, opt, osr))
      (G.oneofl Programs.corpus)
      (G.oneofl [ Jit.O_none; Jit.O_ea; Jit.O_pea ])
      G.bool
  in
  QCheck2.Test.make ~name:"replay runs agree on results and every counter"
    ~count:(Test_env.qcheck_count 12)
    ~print:(fun (name, _, opt, osr) ->
      Printf.sprintf "%s opt=%s osr=%b" name (Test_support.opt_name opt) osr)
    gen
    (fun (_, src, opt, osr) ->
      let run () =
        let program = Link.compile_source src in
        let config =
          {
            Jit.default_config with
            Jit.opt;
            osr;
            compile_threshold = 4;
            osr_threshold = 3;
            compile_mode = Jit.Replay;
          }
        in
        let vm = Vm.create ~config program in
        let r = Vm.run_main_iterations vm iters in
        Vm.quiesce vm;
        (Test_support.outcome r, r.Vm.stats)
      in
      run () = run ())

let () =
  Alcotest.run "async"
    [
      ( "replay-goldens",
        [
          Alcotest.test_case "queue decision stream" `Quick test_replay_queue_golden;
          Alcotest.test_case "trace byte-identical across runs" `Quick
            test_replay_trace_deterministic;
          Alcotest.test_case "sync untouched, replay wins time-to-steady" `Quick
            test_sync_untouched_by_queue_counters;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "compiler fault (replay)" `Quick test_compile_failure_replay;
          Alcotest.test_case "compiler fault (replay, OSR entry)" `Quick
            test_compile_failure_replay_osr;
        ] );
      ( "stress",
        [
          Alcotest.test_case "hot methods x deopt storms" `Quick test_stress_replay;
          Alcotest.test_case "stale discard on racing deopt" `Quick
            test_stale_discard_on_racing_deopt;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_matrix_differential;
          QCheck_alcotest.to_alcotest prop_replay_deterministic;
        ] );
    ]
