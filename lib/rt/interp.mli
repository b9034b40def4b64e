(** The bytecode interpreter tier.

    Plays the role HotSpot's interpreter plays in the paper: it can execute
    any method from any bytecode index with an explicit locals/stack state,
    which is exactly what deoptimization needs, and it feeds branch and
    invocation profiles to the JIT. *)

open Pea_bytecode

(** Raised on runtime faults (null dereference, division by zero, bad cast,
    array bounds, unbalanced monitors). The VM treats these as fatal. *)
exception Trap of string

(** An in-flight MJ exception ([throw e]); it unwinds OCaml frames across
    interpreter and compiled frames until an interpreter frame with a
    matching handler range catches it. Escapes [run] if uncaught. *)
exception Mj_throw of Value.value

(** [trap fmt ...] raises {!Trap} with the formatted message. Compiled
    code raises its traps through this and the two conversions below, so
    a fault reads the same in every tier. *)
val trap : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** [as_int v] is the int [v] holds.
    @raise Trap ["expected int, found ..."] on any other value. *)
val as_int : Value.value -> int

(** [as_bool v] is the boolean [v] holds.
    @raise Trap ["expected boolean, found ..."] on any other value. *)
val as_bool : Value.value -> bool

(** The VM's answer when the interpreter offers a hot back edge for
    on-stack replacement: [No_osr] keeps interpreting; [Osr_return r]
    means the rest of the frame already ran in OSR-compiled code and [r]
    is the method's result. *)
type osr_result =
  | No_osr
  | Osr_return of Value.value option

(** Observation hooks for shadow execution (the deopt oracle): [h_branch]
    fires at every conditional branch after the condition is popped, with
    [jump] true when the bytecode jumps to its target, and the live frame
    state at that point; [h_call]/[h_return] bracket every invoke
    (virtual dispatch already resolved) so an observer can track the
    interpreter call path. [h_return] also fires when the callee unwinds
    with an in-flight MJ exception. [h_virtual_call] fires at every
    virtual dispatch before the arguments are popped, with the pre-call
    frame state — the state a receiver-guard deopt resumes to — so the
    oracle can stop a shadow replay at a failed guard. *)
type hooks = {
  h_branch :
    Classfile.rt_method ->
    bci:int ->
    jump:bool ->
    locals:Value.value array ->
    stack:Value.value list ->
    unit;
  h_call : caller:Classfile.rt_method -> bci:int -> callee:Classfile.rt_method -> unit;
  h_return : caller:Classfile.rt_method -> bci:int -> unit;
  h_virtual_call :
    caller:Classfile.rt_method ->
    bci:int ->
    receiver:Value.value ->
    locals:Value.value array ->
    stack:Value.value list ->
    unit;
}

and env = {
  heap : Heap.t;
  stats : Stats.t;
  profile : Profile.t;
  globals : Value.value array; (* static fields, indexed by [sf_index] *)
  on_invoke : Classfile.rt_method -> Value.value list -> Value.value option;
      (** Called for every invoke; the VM decides whether the callee runs
          interpreted or compiled. The argument list includes the receiver
          for instance methods. Virtual dispatch has already happened. *)
  on_print : Value.value -> unit;
  on_back_edge : Classfile.rt_method -> header:int -> locals:Value.value array -> osr_result;
      (** Called at every back edge taken with an empty operand stack,
          after {!Profile.record_back_edge}. [locals] is the live locals
          array of the running frame: the VM may compile an OSR graph
          entered at [header], run it seeded from [locals], and hand the
          method's result back via [Osr_return]. Environments without a
          JIT answer [No_osr]. *)
  hooks : hooks option;
      (** [None] everywhere except deopt-oracle shadow replays: the hook
          dispatch is one option match per branch/invoke. *)
  instruments : Pea_obs.Instruments.t;
      (** what watches this environment: the interpreter polls the
          sampling profiler at every dispatch and brackets each frame on
          its shadow stack, the heap records every allocation in the
          heap profiler, and the closure tier, deoptimization and the VM
          read the rest. The oracle's shadow replay carries none, so
          what checks a deopt is never seen by what profiles it. *)
}

(** [make_env program] is an environment for [program]: [stats] (fresh
    by default), a fresh profile and a fresh heap, which records into
    the heap profiler of [instruments], [globals] (by default the
    static fields at their declared types' defaults), every invoke
    interpreted in this environment, no OSR, [on_print] (default
    [ignore]), [hooks] (default none) and [instruments] (default
    {!Pea_obs.Instruments.none}). A VM replaces [on_invoke] and
    [on_back_edge] with its tiering policy. *)
val make_env :
  ?stats:Stats.t ->
  ?globals:Value.value array ->
  ?on_print:(Value.value -> unit) ->
  ?hooks:hooks ->
  ?instruments:Pea_obs.Instruments.t ->
  Link.program ->
  env

(** [run env m args] executes [m] from bytecode index 0.
    Returns [Some v] for value-returning methods, [None] for void. *)
val run : env -> Classfile.rt_method -> Value.value list -> Value.value option

(** [resume env m ~locals ~stack ~bci] continues execution of [m] at [bci]
    with the given locals and operand stack (top of stack first). This is
    the deoptimization entry point. *)
val resume :
  env ->
  Classfile.rt_method ->
  locals:Value.value array ->
  stack:Value.value list ->
  bci:int ->
  Value.value option

(** [dispatch_target recv m] resolves the virtual-dispatch target of [m]
    for receiver value [recv].
    @raise Trap on a null receiver. *)
val dispatch_target : Value.value -> Classfile.rt_method -> Classfile.rt_method

(** [value_instanceof v cls] is the runtime subtype test used by
    [instanceof] and [checkcast] ([null] is never an instance). *)
val value_instanceof : Value.value -> Classfile.rt_class -> bool
