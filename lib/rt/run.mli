(** Interpreter-only program runner.

    Executes [main] with every invoke going through the bytecode
    interpreter: the "without JIT" baseline and the reference semantics for
    all differential testing. *)

open Pea_bytecode

type result = {
  return_value : Value.value option;
  printed : Value.value list; (* in print order *)
  stats : Stats.snapshot;
}

(** [run_program program] interprets [main] once.
    @raise Link.Link_error if the program has no entry point.
    @raise Interp.Trap on runtime faults. *)
val run_program : ?stats:Stats.t -> Link.program -> result

(** [run_source src] compiles and interprets an MJ source string. *)
val run_source : ?stats:Stats.t -> string -> result

(** [profile program] is the interpreter profile of one run of [main]
    (a trap or an uncaught throw ends it), or an empty profile when
    [program] has no [main]. *)
val profile : Link.program -> Profile.t
