(** Bounded deadline queue behind the [Replay] compile mode (see
    {!Jit.compile_mode}) and the serving layer's shared compile queue.

    Tasks are keyed by [(mth_id, osr_bci option)] and never duplicated in
    flight; the queue is bounded (the VM turns refusals into
    drop-and-reprofile backpressure). A task resolves at its {e deadline}
    on the caller's clock — for the VM, enqueue cycles +
    {!Pea_rt.Cost.compile_latency}. {!due} compiles each due task on the
    caller, from the snapshots the task took at enqueue (profile copy,
    blacklist copy), so every queue decision lands at the same
    deterministic point on every run. *)

type key = int * int option * bool
(** [(mth_id, osr loop-header bci option, speculative-inlining bit)]. The
    inlining bit keys the dedup check to the config variant the task was
    compiled under, so toggling speculative inlining between enqueue and
    install can never satisfy a request with code of the other variant. *)

type outcome =
  | Done of Jit.compiled
  | Failed of string  (** the pipeline raised; never installed or retried *)

type task = {
  t_key : key;
  t_epoch : int; (* the method's invalidation epoch at enqueue *)
  t_enqueued_at : int; (* caller clock at enqueue *)
  t_deadline : int; (* t_enqueued_at + the modeled compile latency *)
  t_compile : unit -> Jit.compiled;
}

val test_hook : (key -> unit) ref
(** Test-only fault injection, called before each compile; a raised
    exception surfaces as {!Failed}. Default is a no-op. *)

type t

(** [create ~cap] — an empty queue holding at most [cap] tasks. *)
val create : cap:int -> t

val depth : t -> int

val is_full : t -> bool

val mem : t -> key -> bool
(** Whether a task with this key is in flight (the dedup check). *)

val has_inflight : t -> bool

val enqueue : t -> task -> unit
(** Queue a task.
    @raise Invalid_argument on a duplicate key or a full queue — callers
    must check {!mem} and {!is_full} first and apply their own dedup /
    backpressure policy. *)

val due : t -> now:int -> (task * outcome) list
(** [due q ~now] removes every task whose deadline has been reached and
    compiles it, in enqueue order. Pass [now:max_int] to drain the queue
    completely. *)
