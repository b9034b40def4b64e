(* serve-mixed and serve-storm: the multi-tenant server under a closed
   loop.

   Measured operations run in [Replay] mode: one domain executes the
   requests and the barrier in script order. Deployments run [Threaded],
   but on a shared 2-core VM [Threaded 2] round times switched between
   regimes about 2x apart from run to run (a storm session took 15-24 ms
   in some runs and 29-37 ms in others, against 3 ms in Replay), nearly
   all of it spawning and joining the worker domains every round. No
   regression bound could absorb that. [Threaded 2] stays in the checks:
   the first segment or sessions are served again on two workers and
   must report exactly what the measured run reported, and a traced run
   reports their time over the measured time ("serve.threaded_ratio").

   serve-mixed is read-heavy use of the shared code cache with tiny
   requests ([Sessions.mixed_script]: 8 tenants, 32 requests a round,
   compile threshold 4). An operation is one round. Each segment of
   [segment_rounds] rounds runs on a fresh server after [warm_rounds]
   warm-up rounds (its set-up), so memory does not grow with the run;
   model metrics cover the first [min_segments] segments, so they do not
   depend on how many rounds fit in the time.

   serve-storm drives the same layers with writes: each operation is one
   whole session of [Sessions.storm_script ~storm:true] (a deopt storm
   in tenant 0, 4 victims, 40 rounds, threshold 20) timed from
   [Server.create] to [Server.report]: deopts, rematerialization, epoch
   bumps, recompiles and a quarantine. *)

open Pea_rt
open Pea_vm
module Server = Pea_serve.Server
module Sessions = Pea_workloads.Sessions

let threaded = Server.Threaded 2

let config ~threshold mode =
  {
    Server.default_config with
    Server.sv_mode = mode;
    sv_jit = { Jit.default_config with Jit.compile_threshold = threshold };
  }

(* One round as [Server.run_rounds] runs it, split so each call can be
   timed. [run_rounds] also suspends globally installed profilers; the
   benchmark installs none. *)
let round tr ~op server reqs =
  Span.with_span tr "serve.run_round" ~op (fun () -> Server.run_round server reqs);
  Span.with_span tr "serve.barrier" ~op (fun () -> Server.barrier server reqs);
  server.Server.round <- server.Server.round + 1

(* What a run keeps of a served session until the checks after its
   measured loop: a digest of each tenant's results and of the whole
   report. Checking inline would leave the checks' garbage in the heap
   the next measured rounds run on, and round time depends on the
   collector's state. *)
let keep (rep : Server.report) =
  (List.map (fun (t : Server.tenant_report) -> Reference.digest t.Server.tr_results) rep.Server.r_tenants,
   Reference.digest rep)

(* Digests of the result streams an interpreter-only VM gives each
   tenant of [script]. *)
let expected_results (script : Server.script) =
  List.map Reference.digest (Reference.tenant_results script script.Server.sc_rounds)

(* Every kept session's tenants against the interpreter (one check per
   tenant), the sessions spread over two domains. *)
let check_results tally script_of kept =
  List.iter2
    (fun (_, (got, _)) want -> List.iter2 (fun got want -> Workload.check tally ~got ~want) got want)
    kept
    (Reference.parallel_map (fun (i, _) -> expected_results (script_of i)) kept)

(* Model totals over every tenant: (requests, cycles, allocations, bytes). *)
let model_totals (rep : Server.report) =
  List.fold_left
    (fun (c, a, b) (tr : Server.tenant_report) ->
      let s = tr.Server.tr_stats in
      (c + s.Stats.s_cycles, a + s.Stats.s_allocations, b + s.Stats.s_allocated_bytes))
    (0, 0, 0) rep.Server.r_tenants

(* The model metrics per request over [sessions], each given as
   (requests, [model_totals]). *)
let model_metrics sessions =
  let requests = float_of_int (List.fold_left (fun n (r, _) -> n + r) 0 sessions) in
  let per_request f = float_of_int (List.fold_left (fun n (_, t) -> n + f t) 0 sessions) /. requests in
  [
    ("model_cycles_per_unit", per_request (fun (c, _, _) -> c));
    ("allocs_per_unit", per_request (fun (_, a, _) -> a));
    ("alloc_bytes_per_unit", per_request (fun (_, _, b) -> b));
  ]

(* Per-layer work after a session: the front end on every app, the
   phase replay of the code the first tenant of each app runs, and the
   server's and tenants' counters. *)
let trace_server tr ~op totals (script : Server.script) server (rep : Server.report) =
  let sv_jit = server.Server.config.Server.sv_jit in
  List.iteri
    (fun k (_, src) ->
      ignore (Front.trace_all tr ~op ~require_main:false src);
      let ap = server.Server.apps.(k) in
      match
        List.find_opt
          (fun i -> Server.tenant_app_index server i = k)
          (List.init (List.length script.Server.sc_tenants) Fun.id)
      with
      | None -> ()
      | Some i ->
          ignore
            (Replay.replay_vm tr ~op ~blacklist:(Hashtbl.mem ap.Server.ap_blacklist) sv_jit
               ap.Server.ap_program (Server.tenant_vm server i)))
    script.Server.sc_apps;
  Counts.record_server tr ~op totals rep.Server.r_stats;
  List.iter (fun (t : Server.tenant_report) -> Counts.record tr ~op totals t.Server.tr_stats) rep.Server.r_tenants

let req_cycles_p99 (rep : Server.report) =
  Sample.quantile
    (List.concat_map (fun (t : Server.tenant_report) -> List.map float_of_int t.Server.tr_latencies) rep.Server.r_tenants)
    0.99

(* A measured session served again on [threaded] workers, ending with
   [server] and its report [rep], which must equal the measured report
   (its digest is in [kept]). A traced run also records the per-layer
   work on [server]. *)
let check_threaded (ctx : Workload.ctx) tally totals ~op script (_, report) server rep =
  Workload.check tally ~got:report ~want:(Reference.digest rep);
  Option.iter (fun tr -> trace_server (Some tr) ~op totals script server rep) ctx.tracer

(* The per-layer result: [times] the measured operations, [threaded_ms]
   the [threaded] reruns' operation times. *)
let layer_outcome tally tr totals ~times ~threaded_ms ~p99 =
  let extra =
    Counts.ratios totals
    @ [
        ("serve.req_cycles_p99", Sample.median p99);
        ("serve.threaded_ratio", Sample.median threaded_ms /. Sample.median (List.map snd times));
      ]
  in
  Workload.layer_outcome tally tr ~agg:Sample.median ~samples:times ~extra

(* ------------------------------------------------------------------ *)
(* serve-mixed                                                         *)
(* ------------------------------------------------------------------ *)

let tenants = 8

let requests_per_round = 32

let mixed_threshold = 4

let warm_rounds = 20

let segment_rounds = 2000

(* Segments run whatever the time budget, and the set-up repetitions;
   peak memory is read after them. *)
let min_segments = Workload.setup_repeats

(* The warm-up rounds are the same on every seed: nearly all of the
   workload's heap allocations happen there, before handlers compile, so
   a seeded warm-up would make the allocation metrics vary with the seed
   by far more than their bound. *)
let segment_script seed k =
  let script ~rounds ~seed = Sessions.mixed_script ~tenants ~rounds ~requests_per_round ~seed () in
  let warm = script ~rounds:warm_rounds ~seed:0 in
  let measured = script ~rounds:segment_rounds ~seed:((seed * 7919) + k + 1) in
  { measured with Server.sc_rounds = warm.Server.sc_rounds @ measured.Server.sc_rounds }

let split_at n xs =
  let rec go i acc = function
    | x :: rest when i < n -> go (i + 1) (x :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  go 0 [] xs

(* Serves [script] on a fresh [mode] server: its warm-up rounds (timed
   as set-up), then its measured rounds, each timed. *)
let drive ?(tracer_for = fun _ -> None) mode script =
  let warm, measured = split_at warm_rounds script.Server.sc_rounds in
  let server, setup_ms =
    Workload.timed_setup (fun () ->
        let server = Server.create ~config:(config ~threshold:mixed_threshold mode) script in
        List.iter (fun reqs -> round None ~op:0 server reqs) warm;
        server)
  in
  let times =
    List.mapi
      (fun i reqs ->
        let tr = tracer_for i in
        let op = Workload.fresh_op () in
        let (), ms = Workload.timed_op tr ~op (fun () -> round tr ~op server reqs) in
        (Workload.traced tr, ms))
      measured
  in
  (server, times, setup_ms)

let run_mixed (ctx : Workload.ctx) =
  let tally = Workload.tally ctx in
  let totals = Counts.create () in
  let times = ref [] and setups = ref [] and kept = ref [] and model = ref [] and p99 = ref [] in
  let k = ref 0 and peak_rss_mb = ref 0. in
  let start = Sample.now_ms () in
  while Workload.measuring ctx ~start ~min_done:(!k >= min_segments) do
    let script, gen_ms = Workload.timed_setup (fun () -> segment_script ctx.seed !k) in
    let base = List.length !times in
    let server, seg_times, setup_ms =
      drive ~tracer_for:(fun i -> Workload.tracer_for ctx (base + i)) Server.Replay script
    in
    setups := (gen_ms +. setup_ms) :: !setups;
    times := List.rev_append seg_times !times;
    let op = Workload.fresh_op () in
    let report = Span.with_span ctx.tracer "serve.report" ~op (fun () -> Server.report server) in
    kept := (!k, keep report) :: !kept;
    if !k < min_segments then begin
      model := (report.Server.r_requests, model_totals report) :: !model;
      p99 := req_cycles_p99 report :: !p99
    end;
    if !k = min_segments - 1 then peak_rss_mb := Outcome.peak_rss_mb ();
    incr k
  done;
  let kept = List.rev !kept and times = List.rev !times in
  check_results tally (segment_script ctx.seed) kept;
  let first = segment_script ctx.seed 0 in
  let server, threaded_times, _ = drive threaded first in
  check_threaded ctx tally totals ~op:(Workload.fresh_op ()) first (snd (List.hd kept)) server
    (Server.report server);
  match ctx.tracer with
  | Some tr -> layer_outcome tally tr totals ~times ~threaded_ms:(List.map snd threaded_times) ~p99:!p99
  | None ->
      Workload.outcome tally ~ops:(List.length times)
        (Workload.wall ~median:Sample.median
           ~units:(fun _ -> float_of_int requests_per_round)
           ~ms:Fun.id (List.map snd times)
        @ model_metrics !model
        @ [ ("setup_s", Sample.median !setups /. 1000.); ("peak_rss_mb", !peak_rss_mb) ])

(* ------------------------------------------------------------------ *)
(* serve-storm                                                         *)
(* ------------------------------------------------------------------ *)

let victims = 4

let storm_rounds = 40

let storm_requests_per_round = 16

let storm_threshold = 20

(* Sessions measured whatever the time budget; the model metrics and the
   [Threaded 2] reruns cover them, and peak memory is read after them. *)
let min_sessions = 20

let storm_script seed i =
  Sessions.storm_script ~storm:true ~victims ~rounds:storm_rounds
    ~requests_per_round:storm_requests_per_round ~seed:(seed + i) ()

let session tr ~op mode script =
  let server =
    Span.with_span tr "serve.create" ~op (fun () ->
        Server.create ~config:(config ~threshold:storm_threshold mode) script)
  in
  List.iter (round tr ~op server) script.Server.sc_rounds;
  (server, Span.with_span tr "serve.report" ~op (fun () -> Server.report server))

let run_storm (ctx : Workload.ctx) =
  let tally = Workload.tally ctx in
  let totals = Counts.create () in
  (* set-up: generate a session and serve it once, untimed by the loop *)
  let (), setup_s =
    Workload.setup (fun ~last:_ -> ignore (session None ~op:0 Server.Replay (storm_script ctx.seed 1_000_000)))
  in
  let times = ref [] and model = ref [] and p99 = ref [] and kept = ref [] in
  let i = ref 0 and peak_rss_mb = ref 0. in
  let start = Sample.now_ms () in
  while Workload.measuring ctx ~start ~min_done:(!i >= min_sessions) do
    let script = storm_script ctx.seed !i in
    let tr = Workload.tracer_for ctx !i in
    let op = Workload.fresh_op () in
    let (_, report), ms = Workload.timed_op tr ~op (fun () -> session tr ~op Server.Replay script) in
    times := (Workload.traced tr, (report.Server.r_requests, ms)) :: !times;
    kept := (!i, keep report) :: !kept;
    if !i < min_sessions then begin
      model := (report.Server.r_requests, model_totals report) :: !model;
      p99 := req_cycles_p99 report :: !p99
    end;
    if !i = min_sessions - 1 then peak_rss_mb := Outcome.peak_rss_mb ();
    incr i
  done;
  let kept = List.rev !kept and times = List.rev !times in
  check_results tally (storm_script ctx.seed) kept;
  let threaded_ms =
    List.filteri (fun j _ -> j < min_sessions) kept
    |> List.map (fun (i, k) ->
           let script = storm_script ctx.seed i in
           let (server, rep), ms = Workload.timed_op None ~op:0 (fun () -> session None ~op:0 threaded script) in
           check_threaded ctx tally totals ~op:(Workload.fresh_op ()) script k server rep;
           ms)
  in
  match ctx.tracer with
  | Some tr ->
      layer_outcome tally tr totals ~times:(List.map (fun (t, (_, ms)) -> (t, ms)) times) ~threaded_ms ~p99:!p99
  | None ->
      Workload.outcome tally ~ops:(List.length times)
        (Workload.wall
           ~median:(fun b -> Sample.median (List.map snd b))
           ~units:(fun (requests, _) -> float_of_int requests)
           ~ms:snd (List.map snd times)
        @ model_metrics !model
        @ [ ("setup_s", setup_s); ("peak_rss_mb", !peak_rss_mb) ])
