(* The serving layer's background-compile queue; compile_queue.mli
   states its determinism contract and what it owns. *)

open Pea_rt
module Jit = Pea_vm.Jit
module Event = Pea_obs.Event
module Trace = Pea_obs.Trace

type key = Shared_cache.key

type 'p task = {
  t_key : key;
  t_meth : string;
  t_payload : 'p;
  t_epoch : int; (* the method's invalidation epoch at enqueue *)
  t_deadline : int; (* caller clock at enqueue + t_latency *)
  t_latency : int; (* the modeled compile latency *)
  t_compile : unit -> Jit.compiled; (* closed over enqueue-time snapshots *)
}

(* Test-only fault injection: raised exceptions fail the compile, which
   must leave the requesting tenants interpreting the method, never
   crashed or wedged. *)
let test_hook : (key -> unit) ref = ref (fun _ -> ())

type 'p t = {
  cap : int;
  stats : Stats.t; (* the client's counters *)
  trace : Trace.t option; (* the client's tracer *)
  mutable inflight : 'p task list; (* enqueue order, oldest first; |..| <= cap *)
  failed : (key, unit) Hashtbl.t; (* keys whose compile raised: never retried *)
}

let create ?trace ~cap stats =
  if cap <= 0 then invalid_arg "Compile_queue.create: cap must be positive";
  { cap; stats; trace; inflight = []; failed = Hashtbl.create 8 }

let note q ev = match q.trace with Some t -> Trace.emit t (ev ()) | None -> ()

let depth q = List.length q.inflight

let has_inflight q = q.inflight <> []

let failed q key = Hashtbl.mem q.failed key

type 'p request = Queued | Inflight of 'p | Dropped | Failed_before

let request q key ~meth ~epoch ~now ~latency make =
  if Hashtbl.mem q.failed key then Failed_before
  else
    match List.find_opt (fun t -> t.t_key = key) q.inflight with
    | Some task ->
        Stats.incr q.stats Stats.compile_dedup_hits;
        note q (fun () -> Event.Compile_dedup { meth });
        Inflight task.t_payload
    | None when depth q >= q.cap ->
        Stats.incr q.stats Stats.compile_drops;
        note q (fun () -> Event.Compile_drop { meth });
        Dropped
    | None ->
        let t_payload, t_compile = make () in
        q.inflight <-
          q.inflight
          @ [ { t_key = key; t_meth = meth; t_payload; t_epoch = epoch; t_deadline = now + latency;
                t_latency = latency; t_compile } ];
        let depth = depth q in
        Stats.incr q.stats Stats.compile_enqueues;
        Stats.observe q.stats Stats.compile_queue_depth depth;
        note q (fun () -> Event.Compile_enqueue { meth; epoch; depth });
        Queued

let run task =
  match
    !test_hook task.t_key;
    task.t_compile ()
  with
  | code -> Ok code
  | exception e -> Error (Printexc.to_string e)

(* Due tasks compile here, on the caller, so compile-internal trace spans
   appear at the deadline, all of them before the first task resolves. *)
let resolve q ~now ~on_failed ~install =
  if q.inflight <> [] then begin
    let ready, rest = List.partition (fun t -> t.t_deadline <= now) q.inflight in
    q.inflight <- rest;
    List.map (fun t -> (t, run t)) ready
    |> List.iter (fun (task, outcome) ->
           match outcome with
           | Error error ->
               Hashtbl.replace q.failed task.t_key ();
               Stats.incr q.stats Stats.compile_failures;
               note q (fun () -> Event.Compile_failed { meth = task.t_meth; error });
               on_failed task error
           | Ok code ->
               if install task code then begin
                 Stats.incr q.stats Stats.compile_installs;
                 Stats.observe q.stats Stats.compile_latency task.t_latency
               end)
  end
