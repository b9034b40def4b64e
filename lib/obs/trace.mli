(** Bounded event ring buffer with JSONL and Chrome trace_event sinks.

    One tracer can be installed globally; instrumentation sites guard
    emissions with [enabled ()] (a single bool load), so tracing off is
    a true no-op. Timestamps come from an injected clock — the VM wires
    the cost-model cycle counter — never wall clock, so traces are
    byte-for-byte reproducible. *)

type entry = { e_seq : int; e_cycles : int; e_event : Event.t }

type t

val default_capacity : int

val create : ?capacity:int -> unit -> t

val set_clock : t -> (unit -> int) -> unit
(** Install the deterministic timestamp source (defaults to [fun () -> 0]). *)

val emit : t -> Event.t -> unit
(** Stamp and append one event, dropping the oldest entry when full. *)

val entries : t -> entry list
(** Buffered entries, oldest first. *)

val length : t -> int

val dropped : t -> int
(** How many entries were evicted by ring overflow. *)

val clear : t -> unit

(** {2 Global installation} *)

val install : t -> unit

val uninstall : unit -> unit

val installed : unit -> t option

val enabled : unit -> bool
(** True iff a tracer is installed. Emission sites must check this
    before constructing an event so that tracing off allocates nothing. *)

val record : Event.t -> unit
(** Emit to the installed tracer, if any. No-op while the calling domain
    is inside {!suppress}. *)

val suppress : (unit -> 'a) -> 'a
(** [suppress f] runs [f] with event recording disabled on the calling
    domain. The serving layer's worker domains run each round under it:
    their events would otherwise interleave nondeterministically with the
    coordinator's, destroying trace reproducibility. *)

val span : meth:string -> string -> (unit -> 'a) -> 'a
(** [span ~meth phase f] wraps [f] in [Phase_start]/[Phase_end] events
    when tracing is enabled (the end event is emitted even if [f]
    raises); otherwise just runs [f]. *)

(** {2 Sinks} *)

type format = Jsonl | Chrome

val parse_format : string -> format option

val jsonl_string : t -> string
(** One JSON object per line: seq, cycles, event name, payload. *)

val chrome_string : t -> string
(** Chrome trace_event JSON ([{"traceEvents":[...]}]), loadable in
    about:tracing / Perfetto. [ts] is the seq logical clock; cycles ride
    in [args]. *)

val to_string : format -> t -> string

val write : format -> t -> out_channel -> unit
