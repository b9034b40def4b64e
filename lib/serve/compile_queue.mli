(** The serving layer's background-compile queue: one queue serves every
    tenant of a {!Server}, and the server drains it at round barriers.

    Tasks are keyed by (app, method) and deduplicated: the
    stream of "this is hot" requests the tenants send between the
    threshold and the install collapses into one queued task. The queue
    is bounded (a refused request waits; the tenant asks again at its
    next hot invocation) and refuses for good a key whose compile raised.
    A task resolves at its {e deadline}: enqueue time + latency on the
    caller's clock (serving rounds). {!resolve} compiles each due task on
    the caller, from the snapshots the task took at enqueue, so every
    queue decision (enqueue, dedup, drop, install, epoch reject) lands at
    the same deterministic point on every run.

    The queue owns the protocol's accounting: the [compile_dedup_hits],
    [compile_drops], [compile_enqueues], [compile_queue_depth],
    [compile_failures], [compile_installs] and [compile_latency] metrics
    and the [Compile_dedup], [Compile_drop], [Compile_enqueue] and
    [Compile_failed] events. The server keeps its policy: its clock, the
    compile inputs, what a drop or a failure costs, and the epoch check
    before an install. *)

type key = Shared_cache.key
(** The method key: [(app index, mth_id)], as in the shared cache. *)

type 'p task = {
  t_key : key;
  t_meth : string; (* the method's name in events and logs *)
  t_payload : 'p; (* the client's bookkeeping *)
  t_epoch : int; (* the method's invalidation epoch at enqueue *)
  t_deadline : int; (* caller clock at enqueue + t_latency *)
  t_latency : int; (* the modeled compile latency *)
  t_compile : unit -> Pea_vm.Jit.compiled;
}

val test_hook : (key -> unit) ref
(** Test-only fault injection, called before each compile; a raised
    exception fails the compile. Default is a no-op. *)

type 'p t

(** [create ?trace ~cap stats] — an empty queue holding at most [cap]
    tasks, counting on [stats] and recording its events in [trace]. *)
val create : ?trace:Pea_obs.Trace.t -> cap:int -> Pea_rt.Stats.t -> 'p t

val depth : 'p t -> int

val has_inflight : 'p t -> bool

val failed : 'p t -> key -> bool
(** Whether a compile of this key raised. *)

type 'p request =
  | Queued
  | Inflight of 'p  (** a dedup hit: the in-flight task's payload *)
  | Dropped  (** the queue is full *)
  | Failed_before  (** the key's compile raised earlier *)

val request :
  'p t -> key -> meth:string -> epoch:int -> now:int -> latency:int ->
  (unit -> 'p * (unit -> Pea_vm.Jit.compiled)) -> 'p request
(** [request q key ~meth ~epoch ~now ~latency make] asks for a compile of
    [key] due at [now + latency]. [make] builds the payload and the
    compile thunk; it runs only on [Queued], just before the task enters
    the queue, so a dedup hit or a drop takes no snapshot. *)

val resolve :
  'p t -> now:int -> on_failed:('p task -> string -> unit) ->
  install:('p task -> Pea_vm.Jit.compiled -> bool) -> unit
(** [resolve q ~now ~on_failed ~install] takes every task whose deadline
    has been reached, compiles them all in enqueue order, then resolves
    them in that order: a compile that raised pins its key and calls
    [on_failed] with the error; finished code goes to [install], which
    returns whether it installed it (only then is the install counted).
    Both callbacks may {!request} again. [now:max_int] takes every task. *)
