(* Multi-tenant request server on OCaml 5 domains.

   N worker domains serve MJ request handlers over per-tenant VM
   instances, backed by the {!Shared_cache} and one {!Compile_queue}
   serving every tenant. The design invariant — the one "Correctness of
   Speculative Optimizations with Dynamic Deoptimization" frames — is
   that one tenant's deopt/invalidation storm may never corrupt or stall
   another tenant's speculation state.

   Determinism model: a session is a sequence of *rounds* of requests.
   Within a round every tenant is fully isolated — its VM, heap, profile
   and counters are its own, and the shared cache is frozen (workers only
   read it) — so a tenant's counters do not depend on how rounds
   interleave across domains. All cross-tenant interaction happens at
   the round *barrier* on the coordinator, in tenant-id order:

     1. deopt reports — each deopt a tenant's VM reported this round
        ({!Vm.code_source}'s [cs_deopt]) moves the shared epoch of the
        compiled (app, method) and drops its cache entry, and the fired
        site, an inlined callee's when that is where it fired, joins the
        app's shared blacklist;
     2. install — compile tasks whose deadline (in rounds) arrived are
        compiled; a task whose enqueue-time epoch no longer matches is
        rejected ([cache_epoch_rejects]) and requeued against fresh
        snapshots, never installed;
     3. quarantine — a tenant whose reported deopt storm-pinned a method
        (or whose requested compile failed) is demoted to
        interpreter-only serving; nothing it owns is evicted from the
        shared cache;
     4. enqueue — compile requests collected by the tenants' code-source
        hooks enter the shared queue, deduplicated across tenants, with
        the first requester's profile snapshot as the compile input.

   Replay mode runs the same schedule single-threaded; threaded mode runs
   each round's tenants on 1..[max_workers] [Domain]s (statically
   assigned: tenant id mod workers). Both modes compile at the barrier,
   on the coordinator, and make exactly the same model decisions, so
   every deterministic counter is bit-for-bit identical — threaded
   mode's only divergence is wall-clock, which is the point of the
   scaling benchmark.

   A server's one instrument is the tracer [create] is handed, for the
   server's own events — the barrier's, the compile queue's and the
   shared compiles' — which the coordinator emits in a fixed order. Its
   tenant VMs carry no instrument in either mode: a worker's events would
   interleave with the coordinator's in wall-clock order, a profiler is
   a single-domain instrument (shadow stack, site table) whose clock is
   one VM's cycle counter, and a profile keyed by method id cannot tell
   the session's apps apart. So a session's trace is the same in both
   modes, and per-tenant counts are in each tenant's report. *)

open Pea_bytecode
open Pea_rt
module Vm = Pea_vm.Vm
module Jit = Pea_vm.Jit
module Trace = Pea_obs.Trace
module Event = Pea_obs.Event

type request = {
  rq_tenant : int; (* index into [sc_tenants] *)
  rq_class : string;
  rq_method : string;
  rq_args : int list;
}

type script = {
  sc_apps : (string * string) list; (* (app name, MJ source) *)
  sc_tenants : (string * int) list; (* (tenant name, app index) *)
  sc_rounds : request list list;
}

type mode = Replay | Threaded of int (* worker domains, 1..[max_workers] *)

(* The worker domains and the coordinator's must fit the runtime's domain
   limit (Max_domains, 128 in OCaml 5.1). *)
let max_workers = 127

type config = {
  sv_mode : mode;
  sv_queue_cap : int; (* shared compile-queue bound *)
  sv_compile_rounds : int; (* barrier-to-install latency, in rounds *)
  sv_jit : Jit.config; (* per-tenant VM configuration *)
}

let default_config =
  { sv_mode = Replay; sv_queue_cap = 16; sv_compile_rounds = 1; sv_jit = Jit.default_config }

type tenant_report = {
  tr_name : string;
  tr_app : string;
  tr_results : string list; (* one rendered result per request, script order *)
  tr_latencies : int list; (* tenant VM cycles per request, script order *)
  tr_shared_hits : int;
  tr_quarantined : bool;
  tr_stats : Stats.snapshot;
}

type report = {
  r_requests : int;
  r_rounds : int;
  r_tenants : tenant_report list;
  r_stats : Stats.snapshot; (* the server's own counters *)
  r_cache_entries : int;
  r_quarantined : string list;
}

type app = {
  ap_index : int;
  ap_name : string;
  ap_program : Link.program;
  ap_summaries : Pea_analysis.Summary.t option;
      (* shared across every tenant and compile of this app; None when
         [sv_jit.summaries] is off *)
  ap_blacklist : (int * int, unit) Hashtbl.t;
      (* (mth_id, bci) deopt sites merged across all tenants: shared
         compiles never re-speculate on a site any tenant has fired *)
}

type tenant = {
  tn_id : int;
  tn_name : string;
  tn_app : app;
  tn_vm : Vm.t;
  mutable tn_deopts_rev : (Classfile.rt_method * (int * int)) list;
      (* this round's deopt reports: (compiled root, fired site) *)
  tn_pending : (int, unit) Hashtbl.t; (* mth_ids the code source requested this round *)
  tn_adopted : (int, int) Hashtbl.t;
      (* mth_id -> shared epoch of the entry this tenant last adopted.
         Reaching the lookup hook again for the same epoch means the
         tenant deopted that code: re-adopting it would replay the same
         deopt, so the tenant waits for the next epoch's compile instead
         — the serving twin of the per-site recompilation policy *)
  mutable tn_round_log_rev : (request * int) list; (* (request, latency) this round *)
  mutable tn_hits_rev : string list; (* shared-cache adoptions this round *)
  mutable tn_results_rev : string list;
  mutable tn_latencies_rev : int list;
  mutable tn_shared_hits : int;
  mutable tn_quarantined : bool;
}

(* Compile-task payload: which (app, method) a task compiles and which
   tenants asked for it (quarantined on compile failure). *)
type pending = { pm_app : app; pm_mid : int; mutable pm_requesters : int list }

type t = {
  config : config;
  apps : app array;
  tenants : tenant array;
  cache : Shared_cache.t;
  queue : pending Compile_queue.t;
  stats : Stats.t; (* the server's own counters *)
  trace : Trace.t option; (* the server's own events *)
  mutable round : int; (* the serving layer's deterministic clock *)
}

let qualified (ap : app) (m : Classfile.rt_method) =
  ap.ap_name ^ ":" ^ Classfile.qualified_name m

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create ?trace ?(config = default_config) (script : script) : t =
  (match config.sv_mode with
  | Threaded n when n < 1 || n > max_workers ->
      invalid_arg (Printf.sprintf "Server.create: Threaded %d is outside 1..%d" n max_workers)
  | Replay | Threaded _ -> ());
  let apps =
    Array.of_list
      (List.mapi
         (fun i (name, src) ->
           let program = Link.compile_source ~require_main:false src in
           {
             ap_index = i;
             ap_name = name;
             ap_program = program;
             ap_summaries =
               (if config.sv_jit.Jit.summaries then Some (Pea_analysis.Summary.analyze program)
                else None);
             ap_blacklist = Hashtbl.create 8;
           })
         script.sc_apps)
  in
  let cache = Shared_cache.create () in
  (* every tenant VM: compilation routed through the server, OSR off so
     normal entries are the only tier-up path — the one the code-source
     hook covers. The shared compiles take [ap_summaries], so a tenant
     needs no summary table of its own. *)
  let tenant_jit = { config.sv_jit with Jit.osr = false; summaries = false } in
  let tenants =
    Array.of_list
      (List.mapi
         (fun i (name, app_idx) ->
           let ap = apps.(app_idx) in
           let vm = Vm.create ~config:tenant_jit ap.ap_program in
           {
             tn_id = i;
             tn_name = name;
             tn_app = ap;
             tn_vm = vm;
             tn_deopts_rev = [];
             tn_pending = Hashtbl.create 8;
             tn_adopted = Hashtbl.create 8;
             tn_round_log_rev = [];
             tn_hits_rev = [];
             tn_results_rev = [];
             tn_latencies_rev = [];
             tn_shared_hits = 0;
             tn_quarantined = false;
           })
         script.sc_tenants)
  in
  let stats = Stats.create () in
  let server =
    {
      config;
      apps;
      tenants;
      cache;
      queue = Compile_queue.create ?trace ~cap:config.sv_queue_cap stats;
      stats;
      trace;
      round = 0;
    }
  in
  (* wire each tenant's tier-up decisions into the shared cache: adopt
     ready code (a shared hit) or register the want for the next barrier;
     and keep its deopt reports for the next barrier. Everything the hooks
     touch is tenant-local except the cache read, and the cache is only
     written at barriers, so workers stay race-free. *)
  Array.iter
    (fun tn ->
      let ap = tn.tn_app in
      Vm.set_code_source tn.tn_vm
        {
          Vm.cs_code =
            (fun m ->
              let mid = m.Classfile.mth_id in
              match Shared_cache.lookup cache (ap.ap_index, mid) with
              | Some (code, epoch) when Hashtbl.find_opt tn.tn_adopted mid <> Some epoch ->
                  Hashtbl.replace tn.tn_adopted mid epoch;
                  tn.tn_shared_hits <- tn.tn_shared_hits + 1;
                  tn.tn_hits_rev <- qualified ap m :: tn.tn_hits_rev;
                  Stats.incr (Vm.stats tn.tn_vm) Stats.cache_shared_hits;
                  Some code
              | Some _ | None ->
                  Hashtbl.replace tn.tn_pending mid ();
                  None);
          cs_deopt = (fun m ~site -> tn.tn_deopts_rev <- (m, site) :: tn.tn_deopts_rev);
        })
    tenants;
  server

(* ------------------------------------------------------------------ *)
(* Request execution (tenant-local; runs on workers in threaded mode)  *)
(* ------------------------------------------------------------------ *)

let exec_request tn (rq : request) =
  let render, latency =
    match Link.find_method tn.tn_app.ap_program rq.rq_class rq.rq_method with
    | exception Not_found -> (Printf.sprintf "error:no-method %s.%s" rq.rq_class rq.rq_method, 0)
    | m ->
        let stats = Vm.stats tn.tn_vm in
        let before = Stats.get stats Stats.cycles in
        let render =
          match Vm.invoke tn.tn_vm m (List.map (fun i -> Value.Vint i) rq.rq_args) with
          | None -> "void"
          | Some v -> Value.string_of_value v
          | exception Interp.Mj_throw v -> "throw:" ^ Value.string_of_value v
          | exception Interp.Trap msg -> "trap:" ^ msg
        in
        (render, Stats.get stats Stats.cycles - before)
  in
  tn.tn_round_log_rev <- (rq, latency) :: tn.tn_round_log_rev;
  tn.tn_results_rev <- render :: tn.tn_results_rev;
  tn.tn_latencies_rev <- latency :: tn.tn_latencies_rev

let run_round server (reqs : request list) =
  match server.config.sv_mode with
  | Replay -> List.iter (fun rq -> exec_request server.tenants.(rq.rq_tenant) rq) reqs
  | Threaded workers ->
      (* static tenant→worker assignment keeps every tenant's state owned
         by exactly one domain for the whole round *)
      let per_worker = Array.make workers [] in
      List.iter
        (fun rq ->
          let w = rq.rq_tenant mod workers in
          per_worker.(w) <- rq :: per_worker.(w))
        reqs;
      let doms =
        Array.map
          (fun rev ->
            let mine = List.rev rev in
            Domain.spawn (fun () ->
                List.iter (fun rq -> exec_request server.tenants.(rq.rq_tenant) rq) mine))
          per_worker
      in
      Array.iter Domain.join doms

(* ------------------------------------------------------------------ *)
(* Barrier (coordinator only, deterministic order)                     *)
(* ------------------------------------------------------------------ *)

let quarantine server tn ~reason =
  if not tn.tn_quarantined then begin
    tn.tn_quarantined <- true;
    Vm.set_interp_only tn.tn_vm;
    Stats.incr server.stats Stats.tenant_quarantines;
    match server.trace with
    | Some t ->
        Trace.emit t (Event.Tenant_quarantine { tenant = tn.tn_name; reason; round = server.round })
    | None -> ()
  end

let enqueue_compile server (ap : app) mid ~requester =
  let ck = (ap.ap_index, mid) in
  if not (Shared_cache.mem server.cache ck) then begin
    let m = ap.ap_program.Link.methods.(mid) in
    let snapshot () =
      (* compile inputs from the shared profile store: the first
         requester's snapshot (for the current epoch) serves everyone *)
      let profile =
        match Shared_cache.profile_of server.cache ck with
        | Some p -> p
        | None ->
            let p = Profile.copy (Vm.profile server.tenants.(requester).tn_vm) in
            Shared_cache.remember_profile server.cache ck p;
            p
      in
      let blacklist_copy = Hashtbl.copy ap.ap_blacklist in
      let blacklist site = Hashtbl.mem blacklist_copy site in
      let config = { server.config.sv_jit with Jit.osr = false } in
      ( { pm_app = ap; pm_mid = mid; pm_requesters = [ requester ] },
        fun () ->
          Jit.compile ?summaries:ap.ap_summaries ~blacklist ?trace:server.trace config ap.ap_program
            profile m )
    in
    match
      Compile_queue.request server.queue ck ~meth:(qualified ap m)
        ~epoch:(Shared_cache.epoch server.cache ck) ~now:server.round
        ~latency:server.config.sv_compile_rounds snapshot
    with
    | Compile_queue.Inflight pm ->
        (* cross-tenant dedup: the win the shared queue exists for *)
        if not (List.mem requester pm.pm_requesters) then
          pm.pm_requesters <- requester :: pm.pm_requesters
    | Queued | Failed_before -> ()
    | Dropped -> () (* waits: the tenant's hook re-requests at its next hot invocation *)
  end

(* Resolve every due task: install into the shared cache, or reject the
   stale ones and requeue them against fresh snapshots. *)
let resolve_due server ~now =
  Compile_queue.resolve server.queue ~now
    ~on_failed:(fun task _error ->
      (* admission policy: a tenant whose requested compile fails is
         quarantined; the shared cache is untouched *)
      List.iter
        (fun id -> quarantine server server.tenants.(id) ~reason:"compile-failure")
        (List.sort compare task.Compile_queue.t_payload.pm_requesters))
    ~install:(fun { Compile_queue.t_payload = pm; t_meth = meth; t_epoch = epoch; _ } code ->
      match Shared_cache.publish server.cache (pm.pm_app.ap_index, pm.pm_mid) ~epoch code with
      | `Installed ->
          (match server.trace with
          | Some t -> Trace.emit t (Event.Cache_publish { meth; epoch; round = server.round })
          | None -> ());
          true
      | `Stale current ->
          (* the epoch race: a deopt beat the install. Never
             installed; recompiled against the moved blacklist. *)
          Stats.incr server.stats Stats.cache_epoch_rejects;
          (match server.trace with
          | Some t ->
              Trace.emit t
                (Event.Cache_epoch_reject
                   { meth; epoch; current_epoch = current; round = server.round })
          | None -> ());
          List.iter
            (fun id ->
              if not server.tenants.(id).tn_quarantined then
                enqueue_compile server pm.pm_app pm.pm_mid ~requester:id)
            (List.sort compare pm.pm_requesters);
          false)

let barrier server (reqs : request list) =
  let stats = server.stats in
  (* request accounting + serve events, in script order *)
  Stats.add stats Stats.serve_requests (List.length reqs);
  let cursors = Array.map (fun tn -> ref (List.rev tn.tn_round_log_rev)) server.tenants in
  List.iter
    (fun rq ->
      match !(cursors.(rq.rq_tenant)) with
      | [] -> ()
      | (logged, latency) :: rest ->
          cursors.(rq.rq_tenant) := rest;
          (* the label is built only for the trace *)
          match server.trace with
          | Some t ->
              Trace.emit t
                (Event.Serve_request
                   {
                     tenant = server.tenants.(rq.rq_tenant).tn_name;
                     meth = logged.rq_class ^ "." ^ logged.rq_method;
                     round = server.round;
                     latency;
                   })
          | None -> ())
    reqs;
  Array.iter (fun tn -> tn.tn_round_log_rev <- []) server.tenants;
  (* shared-hit accounting, tenant order *)
  Array.iter
    (fun tn ->
      List.iter
        (fun meth ->
          Stats.incr stats Stats.cache_shared_hits;
          match server.trace with
          | Some t ->
              Trace.emit t (Event.Cache_shared_hit { tenant = tn.tn_name; meth; round = server.round })
          | None -> ())
        (List.rev tn.tn_hits_rev);
      tn.tn_hits_rev <- [])
    server.tenants;
  (* 1. this round's deopt reports, tenant then report order: the fired
     site joins the app's blacklist, and each (app, method) whose code a
     deopt invalidated bumps at most once per barrier *)
  let bumped = Hashtbl.create 8 in
  Array.iter
    (fun tn ->
      let ap = tn.tn_app in
      List.iter
        (fun ((m : Classfile.rt_method), site) ->
          Hashtbl.replace ap.ap_blacklist site ();
          let ck = (ap.ap_index, m.Classfile.mth_id) in
          if not (Hashtbl.mem bumped ck) then begin
            Hashtbl.replace bumped ck ();
            Shared_cache.bump server.cache ck
          end)
        (List.rev tn.tn_deopts_rev))
    server.tenants;
  (* 2. resolve due compile work (stale tasks rejected, not installed) *)
  resolve_due server ~now:server.round;
  (* 3. quarantine the tenants whose reported deopts storm-pinned a method *)
  Array.iter
    (fun tn ->
      if List.exists (fun (m, _) -> Vm.interpreter_pinned tn.tn_vm m) tn.tn_deopts_rev then
        quarantine server tn ~reason:"deopt-storm";
      tn.tn_deopts_rev <- [])
    server.tenants;
  (* 4. enqueue this round's compile requests, tenant then method order *)
  Array.iter
    (fun tn ->
      let mids = Hashtbl.fold (fun mid () acc -> mid :: acc) tn.tn_pending [] in
      Hashtbl.reset tn.tn_pending;
      if not tn.tn_quarantined then
        List.iter (fun mid -> enqueue_compile server tn.tn_app mid ~requester:tn.tn_id) (List.sort compare mids))
    server.tenants

(* ------------------------------------------------------------------ *)
(* Session driving                                                     *)
(* ------------------------------------------------------------------ *)

let run_rounds server (rounds : request list list) =
  List.iter
    (fun reqs ->
      run_round server reqs;
      barrier server reqs;
      server.round <- server.round + 1)
    rounds

(* Drain the queue after the last round: no mutator runs between passes,
   so no epoch can move and the loop terminates. *)
let drain server =
  while Compile_queue.has_inflight server.queue do
    server.round <- server.round + 1;
    resolve_due server ~now:max_int
  done

let report server =
  drain server;
  {
    r_requests = Stats.get server.stats Stats.serve_requests;
    r_rounds = server.round;
    r_tenants =
      Array.to_list
        (Array.map
           (fun tn ->
             {
               tr_name = tn.tn_name;
               tr_app = tn.tn_app.ap_name;
               tr_results = List.rev tn.tn_results_rev;
               tr_latencies = List.rev tn.tn_latencies_rev;
               tr_shared_hits = tn.tn_shared_hits;
               tr_quarantined = tn.tn_quarantined;
               tr_stats = Stats.snapshot (Vm.stats tn.tn_vm);
             })
           server.tenants);
    r_stats = Stats.snapshot server.stats;
    r_cache_entries = Shared_cache.size server.cache;
    r_quarantined =
      Array.to_list server.tenants
      |> List.filter_map (fun tn -> if tn.tn_quarantined then Some tn.tn_name else None);
  }

let run ?trace ?config script =
  let server = create ?trace ?config script in
  run_rounds server script.sc_rounds;
  report server

(* Introspection for tests and the CLI. *)

let stats server = server.stats

let cache server = server.cache

let tenant_vm server i = server.tenants.(i).tn_vm

let tenant_app_index server i = server.tenants.(i).tn_app.ap_index

let find_app_method server ~app cls name =
  Link.find_method server.apps.(app).ap_program cls name

(* Latency percentile over a sample list: nearest-rank on the sorted
   sample (p in [0, 100]); 0 on an empty list. *)
let percentile samples p =
  match List.sort compare samples with
  | [] -> 0
  | sorted ->
      let n = List.length sorted in
      let rank = max 0 (min (n - 1) ((p * n / 100) + (if p * n mod 100 = 0 then -1 else 0))) in
      List.nth sorted rank
