(* Bounded deadline queue behind the Replay compile mode and the serving
   layer's shared compile queue.

   Tasks are keyed by (mth_id, osr_bci option) and deduplicated: the
   stream of "this is hot" requests the interpreter produces between the
   threshold and the install collapses into one queued task. The queue is
   bounded; the VM turns a refused request into drop-and-reprofile
   backpressure (resetting the hotness counter that fired it).

   Determinism contract: a task resolves at its *deadline* — enqueue time
   + latency on the caller's clock (VM cycles, or serving rounds). The
   queue compiles a due task on the caller, from the snapshots the task
   took at enqueue (profile copy, blacklist copy), so every queue
   decision (enqueue, dedup, drop, install, stale-discard) happens at
   the same deterministic point on every run. *)

type key = int * int option * bool
(* (mth_id, osr loop-header bci option, speculative-inlining bit). The
   inlining bit keys dedup to the config variant the task compiles under,
   so a toggled config can never be satisfied by the other variant. *)

type outcome =
  | Done of Jit.compiled
  | Failed of string (* the pipeline raised; never installed, never retried *)

type task = {
  t_key : key;
  t_epoch : int; (* the method's invalidation epoch at enqueue *)
  t_enqueued_at : int; (* caller clock at enqueue *)
  t_deadline : int; (* t_enqueued_at + the modeled compile latency *)
  t_compile : unit -> Jit.compiled; (* closed over enqueue-time snapshots *)
}

(* Test-only fault injection: raised exceptions surface as [Failed] and
   must leave the VM interpreting the method, never crashed or wedged. *)
let test_hook : (key -> unit) ref = ref (fun _ -> ())

type t = {
  cap : int;
  mutable inflight : task list; (* enqueue order, oldest first; |..| <= cap *)
}

let create ~cap =
  if cap <= 0 then invalid_arg "Compile_queue.create: cap must be positive";
  { cap; inflight = [] }

let depth q = List.length q.inflight

let is_full q = depth q >= q.cap

let mem q key = List.exists (fun t -> t.t_key = key) q.inflight

let has_inflight q = q.inflight <> []

let enqueue q task =
  if mem q task.t_key then invalid_arg "Compile_queue.enqueue: duplicate key";
  if is_full q then invalid_arg "Compile_queue.enqueue: full";
  q.inflight <- q.inflight @ [ task ]

let run task =
  match
    !test_hook task.t_key;
    task.t_compile ()
  with
  | code -> Done code
  | exception e -> Failed (Printexc.to_string e)

(* Due tasks compile here, on the caller, so compile-internal trace spans
   appear at the deadline. *)
let due q ~now =
  if q.inflight = [] then []
  else begin
    let ready, rest = List.partition (fun t -> t.t_deadline <= now) q.inflight in
    q.inflight <- rest;
    List.map (fun t -> (t, run t)) ready
  end
