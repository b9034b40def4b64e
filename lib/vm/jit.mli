(** The JIT compilation pipeline.

    Graph building → inlining → canonicalization + global value numbering
    + read elimination → profile-guided speculation (cold branches →
    [Deopt]) → escape analysis → final cleanup. Three escape-analysis
    configurations reproduce the paper's comparisons:

    - [O_none]: no escape analysis (the paper's "without PEA" baseline —
      original Graal performed none);
    - [O_ea]: whole-method equi-escape-set analysis with all-or-nothing
      scalar replacement (the HotSpot-server-compiler-style comparison of
      §6.2);
    - [O_pea]: partial escape analysis (§5).

    {!compile} is the one entry point: it runs the pipeline for a
    method's normal entry or, with [~osr_at], for an on-stack-replacement
    entry at a loop header. *)

open Pea_bytecode
open Pea_ir
open Pea_rt

type opt_level =
  | O_none
  | O_ea
  | O_pea

type config = {
  opt : opt_level;
  inline : bool;
  inlining : bool;
      (* speculative guarded inlining from receiver profiles: virtual
         call sites the profile sees as monomorphic are spliced behind an
         exact-class guard that deopts on a miss; [inline] gates the
         whole inliner, this gates only its guarded mode *)
  prune : bool; (* profile-guided cold-branch pruning *)
  read_elim : bool; (* early read elimination (block-local load forwarding) *)
  cond_elim : bool; (* dominance-based conditional elimination *)
  pea_prune_dead : bool; (* liveness-based state pruning inside PEA (ablation) *)
  verify : bool; (* run the IR checker after every pass *)
  check_level : Pea_analysis.Spec_check.level;
      (* when the speculation-safety verifier ({!Pea_analysis.Spec_check})
         runs: never, once after the full pipeline (default), or after
         every optimization phase *)
  oracle : bool;
      (* bisimulation-check every deopt against a shadow interpreter
         replay ({!Oracle}); diverging aborts the VM *)
  summaries : bool;
      (* consume interprocedural escape summaries ({!Pea_analysis.Summary})
         at call sites: PEA/EA keep summary-cleared arguments virtual, GVN
         merges provably pure calls, read elimination survives them *)
  stackalloc : bool;
      (* stack-allocation tier: materializations of frame-bounded objects
         ({!Pea_core.Escape.frame_bounded}) become [Stack_alloc Sk_frame]
         nodes placed in the frame's stack region and reclaimed in O(1)
         at frame pop instead of heap allocations *)
  compile_threshold : int; (* interpreter invocations before JIT *)
  max_callee_size : int; (* inlining budget per callee, in bytecodes *)
  osr : bool; (* on-stack replacement of hot interpreted loops *)
  osr_threshold : int; (* back edges to one loop header before OSR *)
  deopt_storm_limit : int;
      (* distinct invalidations of one method before the VM pins it to
         the interpreter (deopt-storm guard) *)
}

(** PEA on, everything enabled, threshold 10, OSR after 100
    back edges, interpreter-pinning after 5 invalidations. *)
val default_config : config

type compiled = {
  graph : Graph.t;
  pea_stats : Pea_core.Pea.pass_stats option; (* [None] under [O_none] *)
  prepared : Ir_exec.prepared; (* the tables {!Closure_compile} translates *)
  spec_inlines : int; (* guarded splices in this graph *)
  spec_blacklist_skips : int; (* speculation sites vetoed by the blacklist *)
}
(** Nothing writes compiled code after {!compile} returns it, so one
    record may be installed in many VMs (the serving layer's shared cache
    hands the same record to every tenant). Each VM builds its own closure
    translation of it, bound to its heap, globals and counters, at the
    code's first execution. *)

(** [compilable ?osr m] is whether the JIT compiles [m]: never a method
    with exception handlers or [athrow] (it runs interpreted), and, with
    [osr] (default [false]), never an OSR entry into a method that holds
    monitors. The VM, [mjvm check] and the benchmarks ask this before
    compiling; {!compile} refuses the rest. *)
val compilable : ?osr:bool -> Classfile.rt_method -> bool

(** [compile ?summaries ?after_phase ?blacklist ?osr_at ?trace config
    program profile m] runs the pipeline on [m]. Without [osr_at] the graph has
    the normal entry. With [~osr_at:bci] it is an on-stack-replacement
    graph entered at the loop header [bci] (see {!Pea_ir.Builder.build}):
    the compiled code takes the interpreter frame's local slots as its
    parameters, and the VM transfers into it at a back edge with the
    live locals. [blacklist (mth_id, bci)] vetoes
    speculation on one deopt site (the VM populates it from sites that
    actually deoptimized; every other branch keeps being pruned).
    [summaries] is the whole-program summary table; the VM computes it
    lazily once and passes it to every compilation when
    [config.summaries] is set. [after_phase phase g] sees each phase's
    graph after that phase's checks ("build", "inline", "simplify",
    "prune", "opt" | "escape-analysis" | "pea", "cleanup"); later phases
    mutate [g], and an exception it raises aborts the compile. [trace]
    receives the compile's events: its start and end, a span per phase,
    each speculative inline, PEA's site decisions and any verifier
    violation.
    @raise Pea_ir.Builder.Build_error when [m] is not {!compilable}
    (with [~osr:true] under [osr_at]), or the builder refuses it (e.g.
    [osr_at] cannot head an OSR graph).
    @raise Failure when a check configured in [config] fails. *)
val compile :
  ?summaries:Pea_analysis.Summary.t ->
  ?after_phase:(string -> Graph.t -> unit) ->
  ?blacklist:(int * int -> bool) ->
  ?osr_at:int ->
  ?trace:Pea_obs.Trace.t ->
  config ->
  Link.program ->
  Profile.t ->
  Classfile.rt_method ->
  compiled
