(* Multi-tenant serving harness (lib/serve).

   - Storm isolation: a tenant driven through a deopt storm is
     quarantined to interpreter-only serving, while every victim
     tenant's results, per-request latencies and full VM counters are
     *exactly equal* to a quiet run where the storm never happens, and
     the victims' shared-cache entries survive the storm.
   - Epoch race: a deopt racing a cross-tenant compile moves the shared
     (app, method) epoch while the task is in flight; the finished graph
     is rejected ([cache_epoch_rejects]) and requeued — a stale epoch is
     never installed, and the entry eventually present carries the
     current epoch.
   - Compile queue: a fixed session's queue-decision stream is pinned;
     driven directly, [Compile_queue] dedups, drops, resolves by
     deadline in enqueue order, pins a failed key and counts only the
     installs its client accepts, and [Shared_cache] dooms an old epoch.
   - Replay determinism: two runs of the same session script produce
     structurally identical reports and byte-identical trace JSONL.
   - Threaded mode: real worker domains produce the same reports as
     replay — counter-identical, not just result-identical — and, since
     a server takes only a tracer and its tenant VMs carry no instrument
     in either mode, the same trace byte for byte.

   Serving configs are built explicitly; the harness runs its tenant
   VMs without OSR by design. *)

open Pea_rt
open Pea_vm
module Server = Pea_serve.Server
module Shared_cache = Pea_serve.Shared_cache
module Compile_queue = Pea_serve.Compile_queue
module Sessions = Pea_workloads.Sessions
module Trace = Pea_obs.Trace
module Event = Pea_obs.Event

(* Short-session config for the cache-sharing and determinism tests: a
   low threshold compiles quickly (pruning stays off below the pruner's
   20-execution floor, which these tests don't need). *)
let test_jit = { Jit.default_config with Jit.compile_threshold = 4 }

let test_config = { Server.default_config with Server.sv_jit = test_jit }

(* Deopt-driven tests keep the default threshold of 20: the compile
   profile snapshot must clear the pruner's floor, or the trap branches
   are never speculated and never deopt (see Sessions.storm_script). *)
let storm_config =
  { Server.default_config with Server.sv_jit = { Jit.default_config with Jit.compile_threshold = 20 } }

let storm_report ~storm () =
  Server.run ~config:storm_config
    (Sessions.storm_script ~storm ~victims:2 ~rounds:26 ~requests_per_round:6 ~seed:11 ())

let tenant report name =
  match List.find_opt (fun tr -> tr.Server.tr_name = name) report.Server.r_tenants with
  | Some tr -> tr
  | None -> Alcotest.failf "no tenant %s in report" name

(* ------------------------------------------------------------------ *)
(* Storm isolation                                                     *)
(* ------------------------------------------------------------------ *)

let test_storm_quarantines_stormy () =
  let r = storm_report ~storm:true () in
  Alcotest.(check (list string)) "only the stormy tenant is quarantined" [ "stormy" ]
    r.Server.r_quarantined;
  Alcotest.(check bool) "stormy tenant flagged" true (tenant r "stormy").Server.tr_quarantined;
  Alcotest.(check bool) "victims untouched" false
    ((tenant r "victim-0").Server.tr_quarantined || (tenant r "victim-1").Server.tr_quarantined);
  Alcotest.(check int) "one quarantine counted" 1 r.Server.r_stats.Stats.s_tenant_quarantines;
  (* the storm actually stormed: the stormy tenant's VM saw repeated
     deopts before the pin *)
  Alcotest.(check bool) "stormy tenant deopted repeatedly" true
    ((tenant r "stormy").Server.tr_stats.Stats.s_deopts >= 5)

let test_storm_quarantine_is_interp_only () =
  let script =
    Sessions.storm_script ~storm:true ~victims:2 ~rounds:26 ~requests_per_round:6 ~seed:11 ()
  in
  let server = Server.create ~config:storm_config script in
  Server.run_rounds server script.Server.sc_rounds;
  let r = Server.report server in
  Alcotest.(check (list string)) "stormy quarantined" [ "stormy" ] r.Server.r_quarantined;
  Alcotest.(check bool) "stormy VM demoted to interpreter-only" true
    (Vm.interp_only (Server.tenant_vm server 0));
  Alcotest.(check bool) "victim VMs still tiered" false
    (Vm.interp_only (Server.tenant_vm server 1) || Vm.interp_only (Server.tenant_vm server 2));
  (* nothing the stormy tenant did evicted the victims' app from the
     shared cache: their handlers are still installed *)
  let cache = Server.cache server in
  let app = Server.tenant_app_index server 1 in
  List.iter
    (fun name ->
      let m = Server.find_app_method server ~app "Svc" name in
      Alcotest.(check bool)
        (Printf.sprintf "pair-svc %s still cached after the storm" name)
        true
        (Shared_cache.mem cache (app, m.Pea_bytecode.Classfile.mth_id)))
    [ "handle"; "mix" ];
  (* the stormy tenant's own (trap-svc) entry is gone — its storm only
     ever cost itself *)
  Alcotest.(check int) "cache holds exactly the victims' methods" 2 r.Server.r_cache_entries

let test_storm_leaves_victims_bit_identical () =
  let stormy_run = storm_report ~storm:true () in
  let quiet_run = storm_report ~storm:false () in
  Alcotest.(check (list string)) "quiet run quarantines nobody" [] quiet_run.Server.r_quarantined;
  List.iter
    (fun name ->
      let a = tenant stormy_run name and b = tenant quiet_run name in
      Alcotest.(check (list string))
        (name ^ ": results identical under the storm")
        b.Server.tr_results a.Server.tr_results;
      Alcotest.(check (list int))
        (name ^ ": per-request latencies identical under the storm")
        b.Server.tr_latencies a.Server.tr_latencies;
      Alcotest.(check bool)
        (name ^ ": full VM counters identical under the storm")
        true
        (a.Server.tr_stats = b.Server.tr_stats))
    [ "victim-0"; "victim-1" ]

(* ------------------------------------------------------------------ *)
(* Shared cache: cross-tenant hits and the epoch race                  *)
(* ------------------------------------------------------------------ *)

let test_shared_cache_cross_tenant_hits () =
  let script = Sessions.mixed_script ~tenants:4 ~rounds:10 ~requests_per_round:12 ~seed:3 () in
  let r = Server.run ~config:test_config script in
  let total = List.fold_left (fun n rnd -> n + List.length rnd) 0 script.Server.sc_rounds in
  Alcotest.(check int) "every request served and counted" total r.Server.r_stats.Stats.s_serve_requests;
  Alcotest.(check bool) "code is shared across tenants" true
    (r.Server.r_stats.Stats.s_cache_shared_hits > 0);
  (* two tenants per app: each installed method is adopted by both, so
     hits strictly exceed installs *)
  Alcotest.(check bool) "more adoptions than compilations" true
    (r.Server.r_stats.Stats.s_cache_shared_hits > r.Server.r_stats.Stats.s_compile_installs);
  (* the server's hit counter is the sum of the per-tenant ones *)
  let tenant_hits =
    List.fold_left (fun n tr -> n + tr.Server.tr_shared_hits) 0 r.Server.r_tenants
  in
  Alcotest.(check int) "per-tenant hits sum to the server counter"
    r.Server.r_stats.Stats.s_cache_shared_hits tenant_hits

(* Both tenants share the trap app. A's deopt bumps the epoch and A's
   recompile is enqueued with deadline two barriers out; B — still
   running its locally installed copy of the dropped entry — deopts
   before that deadline, moving the epoch again. The in-flight result
   must be rejected, never installed, and recompiled against the fresh
   epoch. *)
let test_epoch_race_rejects_stale_install () =
  let req t x = { Server.rq_tenant = t; rq_class = "Svc"; rq_method = "handle"; rq_args = [ x ] } in
  (* five warm calls per tenant per round: invocations cross the
     threshold (20) at round 4 with the branch profile already past the
     pruner's floor *)
  let benign = List.concat_map (fun t -> List.init 5 (fun i -> req t (1 + i + (7 * t)))) [ 0; 1 ] in
  let rounds =
    [
      benign; (* 0-3: warm *)
      benign;
      benign;
      benign;
      benign; (* 4: both hot — both request; barrier enqueues (epoch 0, deadline 6) *)
      benign; (* 5: in flight *)
      benign; (* 6: barrier installs epoch 0 *)
      benign @ [ req 0 9001 ]; (* 7: both adopt; A deopts; barrier bumps to epoch 1 *)
      benign; (* 8: A re-requests; barrier enqueues epoch 1, deadline 10 *)
      benign @ [ req 1 9002 ]; (* 9: B (its local copy) deopts; barrier bumps to epoch 2 *)
      benign; (* 10: barrier: epoch-1 result is stale — rejected, requeued *)
      benign; (* 11 *)
      benign; (* 12: barrier installs the epoch-2 result *)
      benign; (* 13: both re-adopt *)
      benign; (* 14 *)
    ]
  in
  let script =
    {
      Server.sc_apps = [ ("trap-svc", Sessions.trap_app) ];
      sc_tenants = [ ("a", 0); ("b", 0) ];
      sc_rounds = rounds;
    }
  in
  let config = { storm_config with Server.sv_compile_rounds = 2 } in
  let trace = Trace.create () in
  let server = Server.create ~trace ~config script in
  Server.run_rounds server script.Server.sc_rounds;
  let r = Server.report server in
  Alcotest.(check bool) "the stale result was rejected" true
    (r.Server.r_stats.Stats.s_cache_epoch_rejects >= 1);
  Alcotest.(check (list string)) "nobody was quarantined" [] r.Server.r_quarantined;
  (* the invariant the reject protects: whatever is installed carries the
     key's current epoch *)
  let cache = Server.cache server in
  let m = Server.find_app_method server ~app:0 "Svc" "handle" in
  let key = (0, m.Pea_bytecode.Classfile.mth_id) in
  Alcotest.(check bool) "entry present after the race" true (Shared_cache.mem cache key);
  Alcotest.(check (option int)) "installed entry carries the current epoch"
    (Some (Shared_cache.epoch cache key))
    (Shared_cache.entry_epoch cache key);
  (* trace-level confirmation: a reject event fired, and no publish event
     ever carried a stale epoch *)
  let events = List.map (fun e -> e.Trace.e_event) (Trace.entries trace) in
  Alcotest.(check bool) "cache_epoch_reject event recorded" true
    (List.exists (function Event.Cache_epoch_reject _ -> true | _ -> false) events);
  let final_epoch = Shared_cache.epoch cache key in
  List.iter
    (function
      | Event.Cache_publish { epoch; _ } ->
          Alcotest.(check bool) "every publish was epoch-valid at install time" true
            (epoch = 0 || epoch = final_epoch)
      | _ -> ())
    events;
  (* both tenants end up back on shared code *)
  Alcotest.(check bool) "both tenants re-adopted the fresh code" true
    (List.for_all (fun tr -> tr.Server.tr_shared_hits >= 2) r.Server.r_tenants)

(* ------------------------------------------------------------------ *)
(* Replay determinism                                                  *)
(* ------------------------------------------------------------------ *)

let mixed () = Sessions.mixed_script ~tenants:3 ~rounds:8 ~requests_per_round:9 ~seed:42 ()

let test_replay_deterministic_reports () =
  let r1 = Server.run ~config:test_config (mixed ()) in
  let r2 = Server.run ~config:test_config (mixed ()) in
  Alcotest.(check bool) "two replay runs: structurally identical reports" true (r1 = r2)

let test_replay_deterministic_trace () =
  let trace_of_run () =
    let trace = Trace.create () in
    ignore (Server.run ~trace ~config:test_config (mixed ()));
    Trace.jsonl_string trace
  in
  let j1 = trace_of_run () in
  let j2 = trace_of_run () in
  Alcotest.(check bool) "trace JSONL is non-trivial" true (String.length j1 > 0);
  Alcotest.(check string) "two replay runs: byte-identical trace JSONL" j1 j2

(* ------------------------------------------------------------------ *)
(* Shared compile queue: failure pinning and backpressure              *)
(* ------------------------------------------------------------------ *)

(* The same session with compilation never triggered: every tenant
   interprets every request. *)
let interp_only_results config script =
  let never = { config.Server.sv_jit with Jit.compile_threshold = max_int } in
  (Server.run ~config:{ config with Server.sv_jit = never } script).Server.r_tenants
  |> List.map (fun tr -> (tr.Server.tr_name, tr.Server.tr_results))

let check_results_match_interpreter config script (r : Server.report) =
  List.iter2
    (fun (name, expected) tr ->
      Alcotest.(check (list string))
        (name ^ ": results equal the interpreter-only run")
        expected tr.Server.tr_results)
    (interp_only_results config script) r.Server.r_tenants

(* A compile fault injected at the barrier. a and b both get pair-svc's
   [handle] hot in round 2, so the first compile the queue runs is that
   one, requested by both (b's request is a cross-tenant dedup hit);
   the hook fails that compile alone. c and d tier up later and compile
   normally, and c's [handle] gets hot only after the failure: the
   failed key must turn its request away, not enqueue or quarantine. *)
let test_compile_failure_quarantines_requesters () =
  let req t meth args = { Server.rq_tenant = t; rq_class = "Svc"; rq_method = meth; rq_args = args } in
  let round r =
    [ req 0 "handle" [ (2 * r) + 1 ]; req 0 "handle" [ (2 * r) + 2 ];
      req 1 "handle" [ r + 50 ]; req 1 "handle" [ r + 60 ];
      req 2 "mix" [ r; r + 1 ] ]
    @ (if r >= 4 then [ req 2 "handle" [ r + 30 ] ] else [])
    @ [ req 3 "handle" [ r + 7 ] ]
  in
  let script =
    {
      Server.sc_apps = [ ("pair-svc", Sessions.pair_app); ("calc-svc", Sessions.calc_app) ];
      sc_tenants = [ ("a", 0); ("b", 0); ("c", 0); ("d", 1) ];
      sc_rounds = List.init 12 round;
    }
  in
  let fired = ref false in
  Compile_queue.test_hook :=
    (fun _ ->
      if not !fired then begin
        fired := true;
        failwith "injected compiler fault"
      end);
  let server, r, events =
    Fun.protect
      ~finally:(fun () -> Compile_queue.test_hook := fun _ -> ())
      (fun () ->
        let trace = Trace.create () in
        let server = Server.create ~trace ~config:test_config script in
        Server.run_rounds server script.Server.sc_rounds;
        let r = Server.report server in
        (server, r, List.map (fun e -> e.Trace.e_event) (Trace.entries trace)))
  in
  Alcotest.(check int) "one failure counted" 1 r.Server.r_stats.Stats.s_compile_failures;
  Alcotest.(check (list string)) "one compile_failed event, for the faulted compile"
    [ "pair-svc:Svc.handle" ]
    (List.filter_map (function Event.Compile_failed { meth; _ } -> Some meth | _ -> None) events);
  Alcotest.(check (list string)) "exactly its requesters quarantined" [ "a"; "b" ]
    r.Server.r_quarantined;
  Alcotest.(check int) "the failed method is never enqueued again" 1
    (List.length
       (List.filter
          (function Event.Compile_enqueue { meth = "pair-svc:Svc.handle"; _ } -> true | _ -> false)
          events));
  let handle = Server.find_app_method server ~app:0 "Svc" "handle" in
  let c = Server.tenant_vm server 2 in
  Alcotest.(check bool) "c's handle got hot after the failure" true
    (Profile.invocations (Vm.profile c) handle >= test_jit.Jit.compile_threshold);
  Alcotest.(check bool) "c kept interpreting it" true (Vm.compiled_graph c handle = None);
  Alcotest.(check bool) "the queue kept installing other methods" true
    (r.Server.r_stats.Stats.s_compile_installs >= 2);
  check_results_match_interpreter test_config script r

(* Backpressure: a one-slot queue turns concurrent requests away; the
   tenants re-request at their next hot invocation and every result
   still equals the interpreter's. *)
let test_full_queue_drops_requests () =
  let config = { test_config with Server.sv_queue_cap = 1 } in
  let script = Sessions.mixed_script ~tenants:4 ~rounds:10 ~requests_per_round:24 ~seed:3 () in
  let r = Server.run ~config script in
  let s = r.Server.r_stats in
  Alcotest.(check bool) "requests dropped" true (s.Stats.s_compile_drops > 0);
  Alcotest.(check bool) "compiles still installed" true (s.Stats.s_compile_installs > 0);
  Alcotest.(check int) "every enqueue resolved exactly once" s.Stats.s_compile_enqueues
    (s.Stats.s_compile_installs + s.Stats.s_cache_epoch_rejects + s.Stats.s_compile_failures);
  check_results_match_interpreter config script r

(* The queue-decision stream of a fixed session: every queue and cache
   event. At threshold 4, a's and b's [handle] (two calls a round each)
   are hot in round 2: a's request enters the queue at that barrier and
   b's, the same pair-svc method, joins it (a cross-tenant dedup); the
   code is published at the next barrier, and both adopt it. b's [mix]
   and c's calc-svc [handle] (one call a round each) are hot in round 4,
   enqueued in tenant order and published together in round 5. Pinned:
   any change to the round clock, the latency, the sharing or the
   install order shows up here. *)
let queue_decisions events =
  List.filter_map
    (function
      | Event.Compile_enqueue { meth; epoch; depth; _ } ->
          Some (Printf.sprintf "enqueue %s epoch %d depth %d" meth epoch depth)
      | Event.Compile_dedup { meth; _ } -> Some ("dedup " ^ meth)
      | Event.Compile_drop { meth; _ } -> Some ("drop " ^ meth)
      | Event.Compile_failed { meth; _ } -> Some ("failed " ^ meth)
      | Event.Cache_publish { meth; epoch; round } ->
          Some (Printf.sprintf "publish %s epoch %d round %d" meth epoch round)
      | Event.Cache_epoch_reject { meth; round; _ } ->
          Some (Printf.sprintf "reject %s round %d" meth round)
      | _ -> None)
    events

let test_queue_decision_stream () =
  let req t meth args = { Server.rq_tenant = t; rq_class = "Svc"; rq_method = meth; rq_args = args } in
  let round r =
    [ req 0 "handle" [ r ]; req 0 "handle" [ r + 1 ]; req 1 "handle" [ r + 2 ];
      req 1 "handle" [ r + 5 ]; req 1 "mix" [ r; r + 3 ]; req 2 "handle" [ r + 4 ] ]
  in
  let script =
    {
      Server.sc_apps = [ ("pair-svc", Sessions.pair_app); ("calc-svc", Sessions.calc_app) ];
      sc_tenants = [ ("a", 0); ("b", 0); ("c", 1) ];
      sc_rounds = List.init 8 round;
    }
  in
  let run () =
    let trace = Trace.create () in
    let r = Server.run ~trace ~config:test_config script in
    (r, List.map (fun e -> e.Trace.e_event) (Trace.entries trace))
  in
  let r, events = run () in
  Alcotest.(check (list string)) "queue decision stream"
    [
      "enqueue pair-svc:Svc.handle epoch 0 depth 1";
      "dedup pair-svc:Svc.handle";
      "publish pair-svc:Svc.handle epoch 0 round 3";
      "enqueue pair-svc:Svc.mix epoch 0 depth 1";
      "enqueue calc-svc:Svc.handle epoch 0 depth 2";
      "publish pair-svc:Svc.mix epoch 0 round 5";
      "publish calc-svc:Svc.handle epoch 0 round 5";
    ]
    (queue_decisions events);
  let s = r.Server.r_stats in
  Alcotest.(check int) "one enqueue per method" 3 s.Stats.s_compile_enqueues;
  Alcotest.(check int) "one install per method" 3 s.Stats.s_compile_installs;
  Alcotest.(check int) "nothing dropped" 0 s.Stats.s_compile_drops;
  Alcotest.(check int) "each tenant adopts each published method it runs" 4
    s.Stats.s_cache_shared_hits;
  check_results_match_interpreter test_config script r;
  let _, again = run () in
  Alcotest.(check (list string)) "the same stream on a second run" (queue_decisions events)
    (queue_decisions again)

(* ------------------------------------------------------------------ *)
(* Deopt reports: a site inlined from a callee                         *)
(* ------------------------------------------------------------------ *)

(* [handle] calls [helper] on even [x]; the JIT inlines [helper], so its
   cold [flip == 1] branch becomes a deopt site inside [handle]'s code
   that belongs to [helper]. [handle_direct] writes the same branch in
   the handler itself. *)
let inlined_app =
  "class Svc {\n\
  \  static int helper(int x, int flip) {\n\
  \    int r = x + 1;\n\
  \    if (flip == 1) { r = r * 3; }\n\
  \    return r;\n\
  \  }\n\
  \  static int handle(int x, int flip) {\n\
  \    if (x % 2 == 0) { return Svc.helper(x, flip); }\n\
  \    return x - 1;\n\
  \  }\n\
  \  static int handle_direct(int x, int flip) {\n\
  \    if (x % 2 == 0) {\n\
  \      int r = x + 1;\n\
  \      if (flip == 1) { r = r * 3; }\n\
  \      return r;\n\
  \    }\n\
  \    return x - 1;\n\
  \  }\n\
   }\n"

(* Two tenants, six requests each a round (three on even [x]); from
   round 10 tenant 1 takes the cold branch once a round, at request 2.
   Threshold 45: [handle] is hot by round 7 and [helper], called on even
   [x] only, never gets hot while it runs inlined. *)
let inlined_session ~meth =
  let round r =
    List.concat_map
      (fun t ->
        List.init 6 (fun i ->
            let flip = if t = 1 && i = 2 && r >= 10 then 1 else 0 in
            { Server.rq_tenant = t; rq_class = "Svc"; rq_method = meth;
              rq_args = [ (100 * t) + (6 * r) + i; flip ] }))
      [ 0; 1 ]
  in
  {
    Server.sc_apps = [ ("inline-svc", inlined_app) ];
    sc_tenants = [ ("steady", 0); ("flipper", 0) ];
    sc_rounds = List.init 20 round;
  }

let inlined_config mode =
  {
    Server.default_config with
    Server.sv_mode = mode;
    sv_jit = { Jit.default_config with Jit.compile_threshold = 45 };
  }

(* The fired site is [helper]'s, inside [handle]'s code. The tenant's
   deopt report carries it to the app's shared blacklist, so the shared
   recompile stops speculating on it: one deopt and two installs, the
   same as with the branch written in the handler. *)
let test_inlined_site_reaches_shared_blacklist () =
  let modes = [ Server.Replay; Server.Threaded 2 ] in
  List.iter
    (fun mode ->
      let run meth =
        let script = inlined_session ~meth in
        let config = inlined_config mode in
        let server = Server.create ~config script in
        Server.run_rounds server script.Server.sc_rounds;
        let r = Server.report server in
        check_results_match_interpreter config script r;
        (server, r)
      in
      let server, r = run "handle" and _, direct = run "handle_direct" in
      List.iter
        (fun (label, (r : Server.report)) ->
          Alcotest.(check int) (label ^ ": the flipping tenant deopts once") 1
            (tenant r "flipper").Server.tr_stats.Stats.s_deopts;
          Alcotest.(check int) (label ^ ": two installs") 2
            r.Server.r_stats.Stats.s_compile_installs)
        [ ("branch in the inlined helper", r); ("branch in the handler", direct) ];
      let helper = Server.find_app_method server ~app:0 "Svc" "helper" in
      let mid = helper.Pea_bytecode.Classfile.mth_id in
      let fired = Vm.blacklisted_sites (Server.tenant_vm server 1) helper in
      Alcotest.(check int) "the tenant's VM lists one fired site under helper" 1
        (List.length fired);
      List.iter
        (fun bci ->
          Alcotest.(check bool) "helper's fired site is in the app's shared blacklist" true
            (Hashtbl.mem server.Server.apps.(0).Server.ap_blacklist (mid, bci)))
        fired)
    modes

(* One compile-queue key per (app, method): an app's size is not
   bounded by the key. *)
let test_serves_an_app_of_4100_methods () =
  let n = 4100 in
  let buf = Buffer.create (n * 48) in
  Buffer.add_string buf "class Big {\n";
  for i = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "  static int f%d(int x) { return x + %d; }\n" i i)
  done;
  Buffer.add_string buf "}\n";
  let req x = { Server.rq_tenant = 0; rq_class = "Big"; rq_method = "f4099"; rq_args = [ x ] } in
  let script =
    {
      Server.sc_apps = [ ("big", Buffer.contents buf) ];
      sc_tenants = [ ("t", 0) ];
      sc_rounds = List.init 4 (fun r -> List.init 3 (fun i -> req ((3 * r) + i)));
    }
  in
  let r = Server.run ~config:test_config script in
  Alcotest.(check (list string)) "every request answered"
    (List.init 12 (fun x -> string_of_int (x + 4099)))
    (tenant r "t").Server.tr_results;
  Alcotest.(check int) "the hot method was compiled and installed" 1
    r.Server.r_stats.Stats.s_compile_installs

(* [Threaded n] must leave room for the coordinator within the runtime's
   domain limit, and a worker count below 1 has no domain to run on. *)
let test_threaded_worker_bounds () =
  let script = Sessions.mixed_script ~tenants:2 ~rounds:1 ~requests_per_round:2 ~seed:1 () in
  List.iter
    (fun n ->
      match Server.create ~config:{ test_config with Server.sv_mode = Server.Threaded n } script with
      | _ -> Alcotest.failf "Threaded %d accepted" n
      | exception Invalid_argument msg ->
          Alcotest.(check string)
            (Printf.sprintf "Threaded %d refused before any domain starts" n)
            (Printf.sprintf "Server.create: Threaded %d is outside 1..127" n)
            msg)
    [ 0; -1; Server.max_workers + 1 ]

(* ------------------------------------------------------------------ *)
(* Compile_queue and Shared_cache, driven directly                     *)
(* ------------------------------------------------------------------ *)

let tiny_code =
  lazy
    (let program =
       Pea_bytecode.Link.compile_source ~require_main:false
         "class C { static int f(int x) { return x + 1; } }"
     in
     let m = Pea_bytecode.Link.find_method program "C" "f" in
     Jit.compile Jit.default_config program (Profile.create program) m)

let request_name = function
  | Compile_queue.Queued -> "queued"
  | Compile_queue.Inflight p -> "inflight " ^ p
  | Compile_queue.Dropped -> "dropped"
  | Compile_queue.Failed_before -> "failed before"

(* [ask q key payload] requests [key] at clock 0, latency 2; the log
   records each snapshot [make] takes and each compile the queue runs. *)
let ask ?(now = 0) ?(latency = 2) ?(log = ref []) q key payload =
  request_name
    (Compile_queue.request q key ~meth:payload ~epoch:0 ~now ~latency (fun () ->
         log := ("snapshot " ^ payload) :: !log;
         ( payload,
           fun () ->
             log := ("compile " ^ payload) :: !log;
             Lazy.force tiny_code )))

let no_failures _ error = Alcotest.failf "unexpected compile failure: %s" error

let test_queue_dedup () =
  let stats = Stats.create () in
  let q = Compile_queue.create ~cap:4 stats in
  let log = ref [] in
  Alcotest.(check string) "first request queued" "queued" (ask ~log q (0, 7) "a");
  Alcotest.(check string) "a second request joins the first task" "inflight a"
    (ask ~log q (0, 7) "b");
  Alcotest.(check (list string)) "only the queued request took a snapshot" [ "snapshot a" ] !log;
  Alcotest.(check int) "one task" 1 (Compile_queue.depth q);
  Alcotest.(check int) "one dedup hit" 1 (Stats.get stats Stats.compile_dedup_hits);
  Alcotest.(check int) "one enqueue" 1 (Stats.get stats Stats.compile_enqueues);
  Alcotest.(check string) "the same method id in another app is another key" "queued"
    (ask ~log q (1, 7) "c")

let test_queue_drops_when_full () =
  let stats = Stats.create () in
  let q = Compile_queue.create ~cap:1 stats in
  let log = ref [] in
  Alcotest.(check string) "fills the queue" "queued" (ask ~log q (0, 1) "a");
  Alcotest.(check string) "a full queue turns a new key away" "dropped" (ask ~log q (0, 2) "b");
  Alcotest.(check string) "a dedup hit still lands" "inflight a" (ask ~log q (0, 1) "c");
  Alcotest.(check (list string)) "a drop takes no snapshot" [ "snapshot a" ] !log;
  Alcotest.(check int) "one drop counted" 1 (Stats.get stats Stats.compile_drops);
  Compile_queue.resolve q ~now:max_int ~on_failed:no_failures ~install:(fun _ _ -> true);
  Alcotest.(check string) "the dropped key is accepted once there is room" "queued"
    (ask ~log q (0, 2) "b")

let test_queue_deadline_order () =
  let stats = Stats.create () in
  let q = Compile_queue.create ~cap:4 stats in
  let log = ref [] in
  ignore (ask ~log ~now:0 ~latency:5 q (0, 1) "k1");
  ignore (ask ~log ~now:1 ~latency:2 q (0, 2) "k2");
  ignore (ask ~log ~now:1 ~latency:4 q (0, 3) "k3");
  log := [];
  let resolve now =
    Compile_queue.resolve q ~now ~on_failed:no_failures ~install:(fun task _ ->
        log := ("install " ^ task.Compile_queue.t_payload) :: !log;
        true)
  in
  resolve 2;
  Alcotest.(check (list string)) "nothing due at 2" [] !log;
  resolve 3;
  Alcotest.(check (list string)) "k2 due at 3" [ "compile k2"; "install k2" ] (List.rev !log);
  log := [];
  resolve 5;
  Alcotest.(check (list string)) "every due task compiles, then each installs, in enqueue order"
    [ "compile k1"; "compile k3"; "install k1"; "install k3" ]
    (List.rev !log);
  Alcotest.(check bool) "queue drained" false (Compile_queue.has_inflight q);
  Alcotest.(check int) "three installs counted" 3 (Stats.get stats Stats.compile_installs)

let test_queue_failure_pins_key () =
  let stats = Stats.create () in
  let q = Compile_queue.create ~cap:4 stats in
  ignore (ask q (0, 1) "bad");
  ignore (ask q (0, 2) "good");
  let failures = ref [] and installs = ref [] in
  Compile_queue.test_hook :=
    (fun key -> if key = (0, 1) then failwith "injected compiler fault");
  Fun.protect
    ~finally:(fun () -> Compile_queue.test_hook := fun _ -> ())
    (fun () ->
      Compile_queue.resolve q ~now:max_int
        ~on_failed:(fun task error ->
          failures := (task.Compile_queue.t_payload, Test_support.contains error "injected") :: !failures)
        ~install:(fun task _ ->
          installs := task.Compile_queue.t_payload :: !installs;
          true));
  Alcotest.(check (list (pair string bool))) "the faulted compile reported with its error"
    [ ("bad", true) ] !failures;
  Alcotest.(check (list string)) "the other task installed" [ "good" ] (List.rev !installs);
  Alcotest.(check bool) "the key is pinned" true (Compile_queue.failed q (0, 1));
  let log = ref [] in
  Alcotest.(check string) "the pinned key is turned away" "failed before" (ask ~log q (0, 1) "again");
  Alcotest.(check (list string)) "without a snapshot" [] !log;
  Alcotest.(check int) "one failure counted" 1 (Stats.get stats Stats.compile_failures);
  Alcotest.(check int) "one install counted" 1 (Stats.get stats Stats.compile_installs)

(* The server refuses a stale install and requeues from inside
   [install]; only installs that [install] accepts are counted. *)
let test_queue_refused_install () =
  let stats = Stats.create () in
  let q = Compile_queue.create ~cap:4 stats in
  ignore (ask q (0, 1) "first");
  let requeued = ref "" in
  Compile_queue.resolve q ~now:max_int ~on_failed:no_failures ~install:(fun _ _ ->
      requeued := ask ~now:10 q (0, 1) "second";
      false);
  Alcotest.(check string) "the callback may request the key again" "queued" !requeued;
  Alcotest.(check int) "a refused install is not counted" 0 (Stats.get stats Stats.compile_installs);
  Alcotest.(check int) "two enqueues" 2 (Stats.get stats Stats.compile_enqueues);
  Compile_queue.resolve q ~now:11 ~on_failed:no_failures ~install:(fun _ _ -> true);
  Alcotest.(check bool) "not due before its own deadline" true (Compile_queue.has_inflight q);
  Compile_queue.resolve q ~now:12 ~on_failed:no_failures ~install:(fun _ _ -> true);
  Alcotest.(check int) "the requeued task installs" 1 (Stats.get stats Stats.compile_installs)

(* A bump moves the key's epoch, drops its entry and its profile, and
   dooms a compile validated against the old epoch; other keys keep
   theirs. Every lookup hands back the published record. *)
let test_shared_cache_epochs () =
  let c = Shared_cache.create () in
  let k = (0, 7) and other = (1, 7) in
  let code = Lazy.force tiny_code in
  let program =
    Pea_bytecode.Link.compile_source ~require_main:false "class C { static int f() { return 0; } }"
  in
  let p1 = Profile.create program and p2 = Profile.create program in
  Alcotest.(check bool) "empty" true (Shared_cache.lookup c k = None);
  Alcotest.(check bool) "publish at the current epoch installs" true
    (Shared_cache.publish c k ~epoch:0 code = `Installed);
  Alcotest.(check bool) "other apps' keys are separate" true
    (Shared_cache.publish c other ~epoch:0 code = `Installed);
  (match (Shared_cache.lookup c k, Shared_cache.lookup c k) with
  | Some (a, 0), Some (b, 0) ->
      Alcotest.(check bool) "every lookup hands back the published record" true
        (a == code && b == code)
  | _ -> Alcotest.fail "the published entry is not found at epoch 0");
  Shared_cache.remember_profile c k p1;
  Shared_cache.remember_profile c k p2;
  Alcotest.(check bool) "the first requester's profile is kept" true
    (match Shared_cache.profile_of c k with Some p -> p == p1 | None -> false);
  Shared_cache.bump c k;
  Alcotest.(check int) "epoch moved" 1 (Shared_cache.epoch c k);
  Alcotest.(check bool) "entry dropped" false (Shared_cache.mem c k);
  Alcotest.(check bool) "profile dropped" true (Shared_cache.profile_of c k = None);
  Alcotest.(check bool) "a compile from the old epoch is refused" true
    (Shared_cache.publish c k ~epoch:0 code = `Stale 1);
  Alcotest.(check bool) "and not installed" false (Shared_cache.mem c k);
  Alcotest.(check bool) "a compile at the new epoch installs" true
    (Shared_cache.publish c k ~epoch:1 code = `Installed);
  Alcotest.(check (option int)) "carrying the new epoch" (Some 1) (Shared_cache.entry_epoch c k);
  Alcotest.(check (option int)) "the other key untouched" (Some 0)
    (Shared_cache.entry_epoch c other);
  Alcotest.(check int) "two entries" 2 (Shared_cache.size c)

let test_percentile_nearest_rank () =
  let samples = [ 5; 1; 9; 3; 7 ] in
  Alcotest.(check int) "p50 of odd-length sample" 5 (Server.percentile samples 50);
  Alcotest.(check int) "p99 is the max here" 9 (Server.percentile samples 99);
  Alcotest.(check int) "p0 clamps to the min" 1 (Server.percentile samples 0);
  Alcotest.(check int) "empty sample" 0 (Server.percentile [] 99)

(* ------------------------------------------------------------------ *)
(* Escape summaries reach the shared compiles                          *)
(* ------------------------------------------------------------------ *)

(* [Svc.handle] passes a fresh Key to [Cache.find], whose 60-statement
   body is too big to inline. With summaries PEA keeps the Key virtual
   across the call and hands the callee a stack scratch object; without
   them the call forces a heap allocation. The served tenant must follow
   [sv_jit.summaries] the way a plain VM follows [Jit.summaries]. *)
let key_app =
  "class Key { int a; int b; }\n\
   class Cache {\n\
  \  static int find(Key k) {\n\
  \    int s = 0;\n"
  ^ String.concat ""
      (List.init 60 (fun i ->
           Printf.sprintf "    s = s + %s + %d;\n" (if i mod 2 = 0 then "k.a" else "k.b") i))
  ^ "    return s;\n\
  \  }\n\
   }\n\
   class Svc {\n\
  \  static int handle(int x) {\n\
  \    Key k = new Key();\n\
  \    k.a = x;\n\
  \    k.b = x + 1;\n\
  \    return Cache.find(k);\n\
  \  }\n\
   }\n"

let key_script =
  {
    Server.sc_apps = [ ("key-svc", key_app) ];
    sc_tenants = [ ("t", 0) ];
    sc_rounds =
      List.init 10 (fun r ->
          List.init 10 (fun i ->
              { Server.rq_tenant = 0; rq_class = "Svc"; rq_method = "handle"; rq_args = [ (10 * r) + i ] }));
  }

let test_summaries_follow_config () =
  let served summaries =
    let config = { test_config with Server.sv_jit = { test_jit with Jit.summaries } } in
    let r = Server.run ~config key_script in
    check_results_match_interpreter config key_script r;
    (tenant r "t").Server.tr_stats
  in
  let plain summaries =
    let program = Pea_bytecode.Link.compile_source ~require_main:false key_app in
    let vm = Vm.create ~config:{ test_jit with Jit.summaries } program in
    let m = Pea_bytecode.Link.find_method program "Svc" "handle" in
    List.iter
      (fun rq -> ignore (Vm.invoke vm m (List.map (fun i -> Value.Vint i) rq.Server.rq_args)))
      (List.concat key_script.Server.sc_rounds);
    Stats.snapshot (Vm.stats vm)
  in
  let counts (s : Stats.snapshot) = (s.Stats.s_allocations, s.Stats.s_stack_allocs) in
  let off = served false and plain_off = plain false in
  Alcotest.(check (pair int int)) "summaries off: the plain VM's allocations, no stack objects"
    (counts plain_off) (counts off);
  Alcotest.(check int) "summaries off: every request allocates its Key" 100
    off.Stats.s_allocations;
  let on = served true in
  Alcotest.(check bool) "summaries on: the Key goes to the stack" true (on.Stats.s_stack_allocs > 0);
  Alcotest.(check bool) "summaries on: fewer heap allocations" true
    (on.Stats.s_allocations < off.Stats.s_allocations)

(* ------------------------------------------------------------------ *)
(* Threaded mode (real domains)                                        *)
(* ------------------------------------------------------------------ *)

let threaded_config workers =
  { test_config with Server.sv_mode = Server.Threaded workers }

let test_threaded_equals_replay () =
  let replay = Server.run ~config:test_config (mixed ()) in
  List.iter
    (fun workers ->
      let threaded = Server.run ~config:(threaded_config workers) (mixed ()) in
      Alcotest.(check bool)
        (Printf.sprintf "%d worker domains: report identical to replay" workers)
        true (threaded = replay))
    [ 1; 2; 4 ]

let test_threaded_storm_isolation () =
  let script ~storm =
    Sessions.storm_script ~storm ~victims:3 ~rounds:26 ~requests_per_round:6 ~seed:5 ()
  in
  let threaded_storm = { storm_config with Server.sv_mode = Server.Threaded 4 } in
  let stormy_run = Server.run ~config:threaded_storm (script ~storm:true) in
  let quiet_run = Server.run ~config:threaded_storm (script ~storm:false) in
  Alcotest.(check (list string)) "threaded: stormy quarantined" [ "stormy" ]
    stormy_run.Server.r_quarantined;
  List.iter
    (fun i ->
      let name = Printf.sprintf "victim-%d" i in
      let a = tenant stormy_run name and b = tenant quiet_run name in
      Alcotest.(check bool)
        (name ^ ": threaded victims bit-identical under the storm")
        true
        (a.Server.tr_results = b.Server.tr_results
        && a.Server.tr_latencies = b.Server.tr_latencies
        && a.Server.tr_stats = b.Server.tr_stats))
    [ 0; 1; 2 ]

(* A server's tenant VMs carry no instrument in either mode: the
   server's tracer holds the server's own events alone (the barrier's,
   the queue's and the shared compiles'), which the coordinator emits in
   a fixed order. So a deopt storm served in replay and on two worker
   domains gives equal reports and byte-identical traces, with no
   tenant-VM event in them. *)
let test_trace_same_in_both_modes () =
  let serve mode =
    let trace = Trace.create () in
    let config = { storm_config with Server.sv_mode = mode } in
    let r =
      Server.run ~trace ~config
        (Sessions.storm_script ~storm:true ~victims:3 ~rounds:26 ~requests_per_round:6 ~seed:5 ())
    in
    (r, trace)
  in
  let replay, replay_trace = serve Server.Replay in
  let threaded, threaded_trace = serve (Server.Threaded 2) in
  Alcotest.(check bool) "the server's own events are traced" true (Trace.length replay_trace > 0);
  Alcotest.(check (list string)) "no tenant-VM event" []
    (List.filter_map
       (fun e ->
         match e.Trace.e_event with
         | Event.Deopt _ | Event.Tier_promote _ | Event.Site_blacklist _ | Event.Ic_transition _ ->
             Some (Event.name e.Trace.e_event)
         | _ -> None)
       (Trace.entries replay_trace));
  Alcotest.(check bool) "threaded report = replay report" true (threaded = replay);
  Alcotest.(check string) "threaded trace JSONL = replay trace JSONL"
    (Trace.jsonl_string replay_trace) (Trace.jsonl_string threaded_trace)

let () =
  let threaded =
    [
      Alcotest.test_case "threaded report = replay report" `Quick test_threaded_equals_replay;
      Alcotest.test_case "threaded storm isolation" `Quick test_threaded_storm_isolation;
      Alcotest.test_case "a session's trace is the same in both modes" `Quick
        test_trace_same_in_both_modes;
    ]
  in
  Alcotest.run "serving"
    [
      ( "isolation",
        [
          Alcotest.test_case "storm quarantines only the stormy tenant" `Quick
            test_storm_quarantines_stormy;
          Alcotest.test_case "quarantine demotes to interpreter, cache survives" `Quick
            test_storm_quarantine_is_interp_only;
          Alcotest.test_case "victims bit-identical storm vs quiet" `Quick
            test_storm_leaves_victims_bit_identical;
        ] );
      ( "shared-cache",
        [
          Alcotest.test_case "cross-tenant shared hits" `Quick test_shared_cache_cross_tenant_hits;
          Alcotest.test_case "epoch race rejects the stale install" `Quick
            test_epoch_race_rejects_stale_install;
          Alcotest.test_case "bump dooms the old epoch" `Quick test_shared_cache_epochs;
        ] );
      ( "compile-queue",
        [
          Alcotest.test_case "queue decision stream" `Quick test_queue_decision_stream;
          Alcotest.test_case "dedup joins the in-flight task" `Quick test_queue_dedup;
          Alcotest.test_case "full queue drops without a snapshot" `Quick
            test_queue_drops_when_full;
          Alcotest.test_case "deadline and enqueue order" `Quick test_queue_deadline_order;
          Alcotest.test_case "a raised compile pins its key" `Quick test_queue_failure_pins_key;
          Alcotest.test_case "a refused install is not counted" `Quick test_queue_refused_install;
          Alcotest.test_case "compile failure quarantines its requesters" `Quick
            test_compile_failure_quarantines_requesters;
          Alcotest.test_case "full queue drops requests" `Quick test_full_queue_drops_requests;
          Alcotest.test_case "summaries follow sv_jit.summaries" `Quick
            test_summaries_follow_config;
        ] );
      ( "deopt-reports",
        [
          Alcotest.test_case "an inlined callee's site reaches the shared blacklist" `Quick
            test_inlined_site_reaches_shared_blacklist;
          Alcotest.test_case "an app of 4100 methods is served" `Quick
            test_serves_an_app_of_4100_methods;
          Alcotest.test_case "Threaded n outside 1..127 is refused" `Quick
            test_threaded_worker_bounds;
        ] );
      ( "replay",
        [
          Alcotest.test_case "deterministic reports" `Quick test_replay_deterministic_reports;
          Alcotest.test_case "byte-identical trace" `Quick test_replay_deterministic_trace;
          Alcotest.test_case "percentile (nearest rank)" `Quick test_percentile_nearest_rank;
        ] );
      ("threaded", threaded);
    ]
