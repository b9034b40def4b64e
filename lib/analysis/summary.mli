(** Interprocedural escape summaries.

    A bottom-up worklist fixpoint over the linked program's call graph
    that computes, per method: how far each parameter can escape, whether
    the return value is a fresh unaliased allocation, and a
    side-effect/purity bit usable by GVN and read elimination.

    The lattice per parameter is [No_escape < Arg_escape < Global_escape].
    Summaries start optimistic (nothing escapes, everything pure) and are
    escalated monotonically until the fixpoint, so recursion converges and
    the result is sound. Virtual call sites join the summaries of every
    CHA dispatch target; MJ has no dynamic class loading, so the class
    hierarchy in a {!Pea_bytecode.Link.program} is closed and the join is
    exhaustive.

    The fixpoint runs at the first {!of_method}, {!call_summary} or
    {!exact_summary} on a table, not in {!analyze}, so a compile whose
    calls are all inlined never runs it. That query raises any exception
    of the IR builder other than [Build_error], and [Failure] if the
    fixpoint does not converge; every later query raises the same
    exception. Queries run inside a compile. In a VM the exception
    triggers a flight dump and then ends the run. In the serving layer
    the compile queue turns it into a failed compile of the method being
    compiled ([compile_failures], a [Compile_failed] event), and the
    server quarantines the tenants that asked for it.

    The first query forces a [Lazy.t], so a table is queried from one
    domain at a time. *)

open Pea_bytecode

type escape_level =
  | No_escape (* the callee never creates a new alias of the argument *)
  | Arg_escape (* reachable from the return value, but not from the heap *)
  | Global_escape (* may be stored to the heap, a static, or printed *)

type param_summary = {
  ps_escape : escape_level;
  ps_written : bool; (* callee may store through this parameter *)
  ps_ref_loaded : bool; (* callee may load a reference field/element from it *)
}

type method_summary = {
  s_params : param_summary array; (* one per argument; 0 is [this] *)
  s_ret_fresh : bool; (* the return value is always a fresh, unaliased object *)
  s_pure : bool; (* no caller-visible writes and no output *)
  s_reads_heap : bool; (* the result may depend on mutable heap state *)
}

type t

val lvl_join : escape_level -> escape_level -> escape_level

(** [top n] is the most conservative summary for an [n]-argument method:
    every parameter globally escapes, nothing is known pure or fresh. *)
val top : int -> method_summary

(** [analyze program] is the summary table of [program]. The
    whole-program fixpoint runs at the first query. Methods that use
    exceptions (which the JIT bails out on), or that the IR builder
    rejects with [Build_error], get {!top} summaries. *)
val analyze : Link.program -> t

(** [solved t] holds once a query has computed the fixpoint. *)
val solved : t -> bool

(** [of_method t m] is the computed summary of [m]'s own body. *)
val of_method : t -> Classfile.rt_method -> method_summary

(** [call_summary t kind m] is the summary to assume at a call site with
    statically resolved target [m]: for [Static]/[Special] calls the
    summary of [m] itself; for [Virtual] calls the join over all CHA
    dispatch targets. *)
val call_summary : t -> Pea_ir.Node.invoke_kind -> Classfile.rt_method -> method_summary

(** [exact_summary t cls m] is the summary when the receiver's dynamic
    class is known to be exactly [cls] (e.g. the receiver is a virtual
    object): the single summary of [resolve_method cls m], no join. *)
val exact_summary : t -> Classfile.rt_class -> Classfile.rt_method -> method_summary

(** [transparent ps] — a virtual object may be passed at this position
    without conservatively escaping: the callee neither retains nor
    mutates it. (Reference loads are checked separately, per call site.) *)
val transparent : param_summary -> bool

(** [mergeable_call cs m] — two invocations of [m] with identical
    arguments compute identical results and have no observable effects,
    so GVN may merge them. Restricted to scalar returns: merging
    reference-returning calls would conflate object identities. *)
val mergeable_call : method_summary -> Classfile.rt_method -> bool

val pp_summary : Format.formatter -> method_summary -> unit

(** [pp_method t fmt m] prints [m]'s qualified name and summary. *)
val pp_method : t -> Format.formatter -> Classfile.rt_method -> unit
