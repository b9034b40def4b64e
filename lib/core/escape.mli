(** Whole-method (control-flow-insensitive) escape analysis — the baseline
    the paper compares against (§3, §6.2).

    Uses equi-escape sets (Kotzmann & Mössenböck): nodes whose references
    flow together are merged with a union-find; external values (method
    parameters, loaded references, call results) are pre-marked as
    escaping, as are values that are stored into statics or arrays, passed
    to calls, or returned. An allocation whose set escapes anywhere is
    materialized at its allocation site; all other allocations are fully
    scalar-replaced by the shared virtualization engine ({!Pea}). *)

open Pea_ir

(** [escaping_allocations ?summaries g] computes the set of [New]/[Alloc]
    nodes whose equi-escape set contains an escape marker, as a predicate
    on node ids. When interprocedural [summaries] are supplied, call
    arguments whose position the callee provably neither retains nor
    mutates are no longer pre-marked as escaping. *)
val escaping_allocations :
  ?summaries:Pea_analysis.Summary.t -> Graph.t -> Node.node_id -> bool

(** [frame_bounded ?summaries g] computes which allocations provably never
    outlive their compiled activation, as a predicate on allocation node
    ids — the eligibility analysis of the stack-allocation tier. An
    allocation is frame-bounded when no alias of it is returned, stored
    into a static or into an object that may outlive the frame, printed,
    or passed to a callee whose summary admits a global escape at that
    position ([Arg_escape] — reachable from the return value only — is
    allowed; the call result is then tracked as a possible alias). Frame
    states are not escape sinks: deoptimization promotes live stack
    objects to the heap during rematerialization. PEA consults this
    predicate when it must materialize a virtual object
    ({!Pea.run}'s [stack_eligible]); eligible sites get
    [Node.Stack_alloc (Sk_frame, ...)] instead of a heap allocation. *)
val frame_bounded :
  ?summaries:Pea_analysis.Summary.t -> Graph.t -> Node.node_id -> bool

(** [run ?summaries ?trace g] is the all-or-nothing scalar replacement:
    classic escape analysis followed by whole-method scalar replacement
    of the non-escaping allocations ([trace] as in {!Pea.run}). *)
val run :
  ?summaries:Pea_analysis.Summary.t ->
  ?trace:Pea_obs.Trace.t ->
  Graph.t ->
  Graph.t * Pea.pass_stats
