(** Deterministic sampling profiler on the VM cycle clock.

    Samples are taken at safepoints (interpreter dispatch; in compiled
    code, the entry of a block, polled by the control transfer into it
    after the edge's phi moves, and the method entry) at every
    [interval]-cycle grid point of an injected clock, and attributed to
    the shadow call stack the VM maintains plus the leaf's bci bucket.
    Because the clock is the deterministic cost-model cycle counter,
    profiles are byte-identical across runs. The profiler never writes
    any {!Stats} counter: profiling cannot perturb the deterministic
    state it measures.

    A profiler is handed to the VM it watches ([Vm.create ~cpu]), which
    wires its clock and passes it to the interpreter and the closure
    tier as an option: with none, a safepoint costs one load and
    compare. A profiler is not shared across domains. *)

type tier =
  | T_interp  (** interpreted frames *)
  | T_jit  (** normal-entry compiled code *)
  | T_osr  (** compiled code entered at a loop header *)

val tier_string : tier -> string

type frame = { fr_mid : int; fr_tier : tier }

type t

val default_interval : int

val bucket_width : int
(** Leaf bcis are grouped into buckets of this many bytecode indices. *)

val bucket : int -> int
(** [bucket bci] is the first bci of [bci]'s bucket, or [-1] for [-1]. *)

val create : ?interval:int -> unit -> t

val set_clock : t -> (unit -> int) -> unit
(** Wire the deterministic clock (the VM's cycle counter) and restart
    the sampling grid. [Vm.create] calls this on the profiler it is
    handed. *)

val interval : t -> int

val total_weight : t -> int
(** Total sample weight recorded (proportional to profiled cycles). *)

val clear : t -> unit

(** {1 Shadow stack}

    The VM pushes a frame at method entry and truncates back to the
    pre-entry depth on every exit path (return, exception, trap,
    deoptimization). *)

val push : t -> int -> tier -> unit
(** [push t mid tier] enters method [mid] at [tier]. *)

val depth : t -> int

val truncate : t -> int -> unit
(** [truncate t d] drops shadow frames above depth [d]; idempotent. *)

val poll : t -> int -> unit
(** [poll t bci] — the safepoint hook: take a (weighted) sample if the
    clock reached the next grid point. [bci] is the leaf bytecode
    position, [-1] when unknown. *)

(** {1 Readout} *)

val fold :
  (frames:frame array -> bci:int -> weight:int -> 'a -> 'a) -> t -> 'a -> 'a
(** Iterate collapsed stacks in a deterministic (sorted) order.
    [frames] is outermost-first; [bci] is the leaf bucket start. *)
