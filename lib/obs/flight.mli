(** Flight recorder: snapshot the always-on bounded trace ring to disk
    when the VM hits a debuggable incident (deopt-storm pinning, compile
    failure, oracle divergence).

    Dump format: one JSON header line ([{"flight":reason, "events":N,
    "dropped":D, "dump":k}]) followed by the ring in JSONL trace format.
    Each trigger overwrites the file — the latest incident wins.

    A recorder is handed to the VM it watches ([Vm.create ~flight]) and
    holds no ring: it dumps the tracer of that VM, which [Vm.create]
    makes privately when it is handed a recorder but no tracer. The ring
    only holds what the VM traces into it. *)

type t

val create : path:string -> t

val dumps : t -> int
(** How many times this recorder has triggered. *)

val trigger : t -> Trace.t -> reason:string -> unit
(** [trigger t ring ~reason] snapshots [ring] (the watched VM's tracer)
    to the recorder's path, tagging the dump with [reason]. A write
    failure prints one warning to stderr and is otherwise swallowed (a
    bad dump path must never crash the VM). *)

(** {1 Reading dumps back} *)

type dump = {
  d_reason : string;
  d_events : int;
  d_dropped : int;
  d_ordinal : int;
  d_entries : Json.value list;  (** parsed event objects, in ring order *)
}

val parse_dump : string -> (dump, string) result

val read_file : string -> (dump, string) result
