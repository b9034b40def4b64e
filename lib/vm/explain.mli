(** Per-allocation-site PEA provenance report ([mjvm explain]).

    Compiles the method through the JIT itself ({!Jit.compile}; the CLI
    on the profile of one run of [main], {!Pea_rt.Run.profile}) and
    renders what its escape analysis decided about every allocation site
    in the method after inlining: virtualized or not, where and why it was
    materialized, and how many loads/stores/monitor operations its
    virtualization removed. *)

open Pea_bytecode

(** What the heap profiler actually saw at one bytecode site during an
    observation run — the empirical counterpart of the analysis verdict. *)
type observation = {
  ob_allocs : int;  (** materialized heap allocations *)
  ob_remat : int;  (** rematerializations at deopts resumed at this site *)
  ob_scratch : int;  (** scratch allocations backing virtual arguments *)
  ob_stack : int;  (** frame-bounded stack-region allocations *)
}

type t = {
  ex_method : string;  (** qualified method name *)
  ex_summaries : bool;  (** interprocedural summaries were enabled *)
  ex_stats : Pea_core.Pea.pass_stats;
  ex_spec : Pea_analysis.Spec_check.violation list;
      (** speculation-safety verifier verdict on the compiled graph
          (empty = every deopt state is rematerializable) *)
  ex_observed : (string * int, observation) Hashtbl.t option;
      (** per (method, bci) observed counts, when an observation ran *)
}

val observe :
  config:Jit.config ->
  ?iterations:int ->
  Link.program ->
  (string * int, observation) Hashtbl.t
(** [observe ~config program] runs [main] on a VM with [config] under
    private profilers ({!Report.profile}; [iterations] times, default 1)
    and returns observed per-site counts, for [analyze]'s [observed]. *)

val analyze :
  ?osr_at:int ->
  ?observed:(string * int, observation) Hashtbl.t ->
  Jit.config ->
  Link.program ->
  Pea_rt.Profile.t ->
  Classfile.rt_method ->
  t
(** [analyze config program profile m] reports [Jit.compile]'s
    [pea_stats] for [m] at [check_level = No_check], then runs the
    speculation-safety verifier once on the compiled graph. With [osr_at]
    it reports {!Jit.compile} entered at that loop-header bci: locals
    become parameters, so object locals alive at the header report as
    escaped on entry.
    @raise Invalid_argument when [config.opt] is [O_none].
    @raise Failure when the IR checker fails.
    @raise Pea_ir.Builder.Build_error when the JIT refuses [m] or
    [osr_at]. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
