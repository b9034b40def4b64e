(** Bounded event ring buffer with JSONL and Chrome trace_event sinks.

    A tracer is handed to what it watches ([Vm.create ~trace],
    [Server.create ~trace], [Jit.compile ~trace], [Pea.run ~trace]) as an
    option; emission sites match on it before building an event, so
    tracing off is one load and compare. Timestamps come from an
    injected clock — [Vm.create] wires the cycle counter of the VM it
    builds, and no other caller wires one — never wall clock, so traces
    are byte-for-byte reproducible. A tracer is not shared across
    domains. *)

type entry = { e_seq : int; e_cycles : int; e_event : Event.t }

type t

val default_capacity : int

val create : ?capacity:int -> unit -> t

val set_clock : t -> (unit -> int) -> unit
(** Install the deterministic timestamp source (defaults to [fun () -> 0]);
    [Vm.create] installs its cycle counter. *)

val emit : t -> Event.t -> unit
(** Stamp and append one event, dropping the oldest entry when full. *)

val entries : t -> entry list
(** Buffered entries, oldest first. *)

val length : t -> int

val dropped : t -> int
(** How many entries were evicted by ring overflow. *)

val clear : t -> unit

val span : t option -> meth:string -> string -> (unit -> 'a) -> 'a
(** [span trace ~meth phase f] wraps [f] in [Phase_start]/[Phase_end]
    events when [trace] is a tracer (the end event is emitted even if [f]
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
