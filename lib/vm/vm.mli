(** The tiered virtual machine.

    Methods start in the bytecode interpreter, which collects invocation
    counts, branch profiles and per-loop-header back-edge counters. Hot
    methods are compiled through the {!Jit} pipeline and then run on the
    configured execution tier; a loop that gets hot inside a single
    interpreted invocation tiers up without waiting for a return, via
    on-stack replacement: the interpreter hands its live locals to the
    VM at a back edge, which compiles an OSR graph entered at the loop
    header ({!Jit.compile} with [~osr_at]) and transfers the running
    frame into it (normal-entry code is cached at the same time for
    subsequent calls).

    Hitting a pruned branch deoptimizes back to the interpreter
    (rematerializing scalar-replaced objects) and invalidates the
    compiled method's normal and OSR code — but speculation is disabled
    {e per deopt site}, not per method: the recompiled code keeps
    pruning and scalar-replacing everywhere except the exact (method,
    bci) sites that actually fired, each keyed by the innermost frame,
    so a site inlined from a callee is the callee's. A method
    invalidated {!Jit.config.deopt_storm_limit} times is pinned to the
    interpreter for good (deopt-storm guard).

    The VM keeps one record per method (indexed by [mth_id]): its
    normal code, its OSR code per loop header, each with the VM's own
    closure translation of it (built at the code's first execution), the
    headers OSR gave up on, its fired deopt sites, its invalidation
    count and its pin. *)

open Pea_bytecode
open Pea_rt

type t

(** The VM's [Logs] source ("pea.vm"): compile, OSR, deoptimization and
    invalidation events at [Debug] level. *)
val log_src : Logs.src

type result = {
  return_value : Value.value option;
  printed : Value.value list;
  stats : Stats.snapshot;
  jit_stats : Pea_core.Pea.pass_stats; (* aggregated over all compilations *)
}

(** [create ?trace ?cpu ?heap ?flight ?config program] builds a VM for
    [program], watched by the instruments it is handed and by no other,
    and is their one wiring point: [trace] receives its events
    (tier-ups, the JIT's compiles, deopts, blacklisted sites,
    inline-cache transitions) and [cpu] samples it, both stamped by its
    cycle counter, whose clock [create] wires into each; [heap] is
    handed to the VM's heap, which records every allocation at its
    site; and [flight] dumps the VM's tracer on an incident (a deopt
    storm, a compile failure, an oracle divergence). Handed [flight]
    without [trace], the VM keeps a private ring for it. *)
val create :
  ?trace:Pea_obs.Trace.t ->
  ?cpu:Pea_obs.Profile_cpu.t ->
  ?heap:Pea_obs.Profile_heap.t ->
  ?flight:Pea_obs.Flight.t ->
  ?config:Jit.config ->
  Link.program ->
  t

(** [invoke vm m args] calls a method through the tiering policy. *)
val invoke : t -> Classfile.rt_method -> Value.value list -> Value.value option

(** [run vm] executes [main] once and reports the result with statistics
    accumulated since VM creation. *)
val run : t -> result

(** [run_main_iterations vm n] calls [main] [n] times (benchmark harness). *)
val run_main_iterations : t -> int -> result

(** [stats vm] is the live statistics record. *)
val stats : t -> Stats.t

(** [profile vm] is the live interpreter profile (invocation counts,
    branch profiles, receiver histograms, back-edge counters). *)
val profile : t -> Profile.t

(** [jit_stats vm] — live PEA statistics aggregated over every
    compilation so far (the record also returned in {!result}). *)
val jit_stats : t -> Pea_core.Pea.pass_stats

(** [printed vm] is everything printed so far, oldest first. *)
val printed : t -> Value.value list

(** [compiled_graph vm m] returns the current normal-entry compiled IR
    for [m], if the method has been JIT-compiled. *)
val compiled_graph : t -> Classfile.rt_method -> Pea_ir.Graph.t option

(** [interpreter_pinned vm m] — whether the deopt-storm guard has pinned
    [m] to the interpreter. *)
val interpreter_pinned : t -> Classfile.rt_method -> bool

(** External code provider (the serving layer's shared code cache). A
    hot method asks [cs_code m] for ready-to-install code instead of
    compiling; [None] means the provider has registered the want, and
    the method keeps interpreting until it delivers. Every deopt calls
    [cs_deopt m ~site] with the compiled root method [m], whose code the
    deopt invalidated, and the fired site [(mth_id, bci)] of the
    innermost frame, which is an inlined callee's when the site was
    inlined. *)
type code_source = {
  cs_code : Classfile.rt_method -> Jit.compiled option;
  cs_deopt : Classfile.rt_method -> site:int * int -> unit;
}

(** [set_code_source vm cs] routes all future tier-up decisions through
    [cs]. The VM then never runs its own compiler for normal entries;
    OSR should be disabled in [vm]'s config when a code source is set so
    every compilation flows through the provider. *)
val set_code_source : t -> code_source -> unit

(** [set_interp_only vm] quarantines the VM: every method interprets from
    now on, including ones with installed code. Irreversible; the code
    tables are left intact. *)
val set_interp_only : t -> unit

(** [interp_only vm] — whether {!set_interp_only} was called. *)
val interp_only : t -> bool

(** [invalidation_count vm m] — how many times deopts have invalidated
    [m]'s code ({!Jit.config.deopt_storm_limit} pins the method). *)
val invalidation_count : t -> Classfile.rt_method -> int

(** [blacklisted_sites vm m] — bcis of [m]'s deopt sites excluded from
    speculation, ascending. A site of [m] that fired while [m] was
    inlined into another method is listed here, under [m]. *)
val blacklisted_sites : t -> Classfile.rt_method -> int list

(** [warm_up vm m args n] invokes [m] [n] times (to drive profiling and
    compilation) and discards the results. *)
val warm_up : t -> Classfile.rt_method -> Value.value list -> int -> unit

(** [run_source ?config src] compiles MJ source and runs [main] once. *)
val run_source : ?config:Jit.config -> string -> result
