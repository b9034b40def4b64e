(** Partial Escape Analysis and Scalar Replacement (Stadler, Würthinger,
    Mössenböck — CGO 2014).

    The analysis walks the control flow of an IR graph carrying the
    allocation state of §5.1 (Listing 7): every allocation starts
    {e virtual}; operations on virtual objects are interpreted at compile
    time (§5.2, Figure 4); control-flow merges run the MergeProcessor
    (§5.3, Figure 6); loops are processed iteratively to a fixpoint (§5.4,
    Figure 7); frame states are rewritten to reference virtual-object
    descriptors so deoptimization can rematerialize scalar-replaced
    allocations (§5.5, Figure 8). An object is {e materialized} — an
    explicit initialized allocation is emitted — exactly at the points
    where it escapes.

    This implementation rebuilds the graph rather than mutating it: the
    output graph mirrors the input CFG block-for-block, with virtualized
    operations elided and materializations inserted at escape points or at
    merge predecessors. *)

open Pea_ir

(** Per-allocation-site provenance: what the pass decided about one
    [New] / [Alloc] / [New_array] node and why. Counters accumulate over
    every speculative loop attempt (discarded attempts included, matching
    the aggregate counters in {!pass_stats}); the materialization list is
    deduplicated per (block, reason), chronological. *)
type site_report = {
  site_node : int;  (** input-graph node id of the allocation *)
  site_class : string;
  site_block : int;  (** block holding the allocation *)
  site_method : string;
      (** declaring method (innermost frame when the site was inlined) *)
  site_bci : int;  (** bytecode index of the allocation; [-1] if unknown *)
  mutable sr_virtualized : bool;
      (** tracked as a virtual object at least once *)
  mutable sr_forced : bool;
      (** pre-pass escape analysis pinned it escaping *)
  mutable sr_materialized : (int * Pea_obs.Event.pea_reason) list;
      (** (block, why) the object escaped there, chronological *)
  mutable sr_loads : int;  (** loads replaced by tracked values *)
  mutable sr_stores : int;
  mutable sr_locks : int;  (** monitor operations elided *)
  mutable sr_scratch : int;  (** passed to callees as scratch allocations *)
  mutable sr_stack : int;
      (** materializations that went to the frame's stack region instead
          of the heap (the site is frame-bounded) *)
  sr_origin : (string * string * int) list;
      (** inline provenance when the site lives in a spliced callee: one
          (caller, callee, call-site bci) triple per inline boundary,
          outermost first; [[]] for sites native to the compiled method *)
}

(** Statistics about one run of the analysis. *)
type pass_stats = {
  (* all fields are mutable so callers can aggregate across compilations *)
  mutable virtualized_allocs : int; (* New nodes turned into virtual objects *)
  mutable materializations : int; (* Alloc nodes inserted *)
  mutable removed_loads : int;
  mutable removed_stores : int;
  mutable removed_monitor_ops : int; (* enters + exits elided *)
  mutable folded_checks : int; (* reference equalities / instanceof / casts folded *)
  mutable scratch_args : int;
      (* virtual objects passed to non-inlined callees as scratch
         ([Stack_alloc]) objects instead of being materialized *)
  mutable stack_materializations : int;
      (* materializations emitted as frame-bounded stack allocations
         ([Stack_alloc Sk_frame]) — a subset of [materializations] *)
  mutable sites : site_report list;
      (* per-allocation-site provenance, sorted by input node id *)
}

(** [mk_stats ()] is a zeroed statistics record. *)
val mk_stats : unit -> pass_stats

(** [run ?force_escape ?prune_dead_objects g] analyses [g] and returns the
    transformed graph together with pass statistics. [g] is not modified.

    [force_escape] marks input allocation nodes ([New]/[Alloc], by node id)
    that must be materialized immediately at their allocation site; the
    whole-method escape analysis (see {!Escape}) uses it to reproduce the
    control-flow-insensitive behaviour of classic scalar replacement.

    [stack_eligible] marks input allocation nodes whose objects provably
    never outlive their compiled activation (see {!Escape.frame_bounded}).
    When such an object must materialize, the pass emits a frame-bounded
    stack allocation ([Stack_alloc (Sk_frame, ...)]) in place of a heap
    [Alloc]: same identity, field and lock semantics, but the runtime
    places it in the frame's stack region and reclaims it in O(1) at
    frame pop. Default: nothing is eligible (the stack tier is off).

    [prune_dead_objects] (default [true]) controls whether objects with no
    remaining uses are dropped from the state at control-flow merges
    instead of being materialized. Without it, an object that escaped on
    one branch is re-allocated on the other branch even when nothing reads
    it afterwards — which destroys the benefit whenever inlining turns the
    callee's returns into a merge. Exposed for the ablation benchmark.

    [summaries] supplies interprocedural escape summaries (see
    {!Pea_analysis.Summary}). With them, an [Invoke] is no longer a hard
    escape point: a virtual argument whose position the callee summary
    proves transparent (no escape, no write, and any reference loads
    satisfiable from the tracked fields) is passed as an uncharged
    scratch object ([Stack_alloc]) and stays virtual in the caller.

    [trace] receives one provenance event per site decision (virtualize,
    materialize, lock elided, scratch argument).

    @raise Failure on malformed input graphs. *)
val run :
  ?force_escape:(Node.node_id -> bool) ->
  ?stack_eligible:(Node.node_id -> bool) ->
  ?prune_dead_objects:bool ->
  ?summaries:Pea_analysis.Summary.t ->
  ?trace:Pea_obs.Trace.t ->
  Graph.t ->
  Graph.t * pass_stats
