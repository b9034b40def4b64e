(** The IR graph: basic blocks holding SSA instructions, linked by
    terminators.

    This is the post-schedule view of a Graal-style sea of nodes (the
    paper's algorithm consumes a scheduled order anyway, §7): values are
    produced by instructions that live in blocks in execution order, with
    {!Node.op.Phi} nodes at control-flow merges. Block 0 is the entry.
    Phi inputs are positional: input [i] of a phi in block [b] corresponds
    to predecessor [List.nth b.preds i]. Loop headers list their forward
    predecessors first, then back edges. *)

open Pea_bytecode

type block_id = int

type block_kind =
  | Plain
  | Merge (* ≥ 2 forward predecessors *)
  | Loop_header (* has at least one back-edge predecessor *)

(** Provenance of a {!Deopt} terminator: the pruned conditional branch
    whose cold edge it replaced. [de_src] is the bytecode index of the
    branch in [de_method]; [de_jump] is [true] when the deopt fires on the
    edge the bytecode would {e jump} along (rather than fall through). The
    deopt oracle uses this to stop its shadow replay at the exact
    branch-edge traversal that triggered the deopt. *)
type deopt_edge = {
  de_method : Classfile.rt_method;
  de_src : int;
  de_jump : bool;
}

(** Provenance of a {!Deopt} terminator that is the miss edge of a
    speculative inline's receiver-class guard: which virtual call site was
    guarded, which exact class the profile predicted, and which callee was
    spliced behind the guard. The oracle uses this to stop its shadow
    replay at the dispatch whose receiver broke the speculation; the VM
    counts guard deopts separately from branch deopts. *)
type deopt_guard = {
  dg_method : Classfile.rt_method; (* method containing the invokevirtual *)
  dg_bci : int; (* bytecode index of the guarded invokevirtual *)
  dg_expected : Classfile.rt_class; (* speculated exact receiver class *)
  dg_callee : Classfile.rt_method; (* target inlined behind the guard *)
}

type deopt = {
  d_state : Frame_state.t; (* interpreter state to rematerialize *)
  d_edge : deopt_edge option; (* [None] for deopts without branch provenance *)
  d_guard : deopt_guard option; (* [Some _] for receiver-guard miss edges *)
}

type terminator =
  | Goto of block_id
  | If of {
      cond : Node.node_id;
      tru : block_id;
      fls : block_id;
      br_bci : int; (* bytecode index of the branch, for profile lookup *)
      br_method : Classfile.rt_method; (* method the branch bytecode belongs to *)
      br_negated : bool;
          (* [true] when built from an [If_false] bytecode: the profile's
             "taken" count then corresponds to the [fls] edge *)
    }
  | Return of Node.node_id option
  | Deopt of deopt (* transfer to the interpreter *)
  | Trap of string (* guaranteed runtime fault *)
  | Unreachable (* placeholder during construction *)

type block = {
  b_id : block_id;
  mutable preds : block_id list;
  mutable phis : Node.t list;
  instrs : Node.t Pea_support.Dyn_array.t; (* execution order *)
  mutable term : terminator;
  mutable kind : block_kind;
  mutable entry_fs : Frame_state.t option;
      (* interpreter state at block entry; consumed by speculative
         branch pruning *)
}

type t = {
  g_method : Classfile.rt_method;
  blocks : block Pea_support.Dyn_array.t;
  nodes : Node.t option Pea_support.Dyn_array.t; (* id -> node; [None] = deleted *)
  mutable params : Node.t list; (* Param nodes, in parameter order *)
  mutable g_osr_entry : int option;
      (* [Some bci] for on-stack-replacement graphs: the loop-header
         bytecode index whose live locals the params transfer *)
}

val entry_id : block_id

(** {1 Construction} *)

val create : Classfile.rt_method -> t

val new_block : ?kind:block_kind -> t -> block

(** [new_node g op] registers a node without placing it in a block;
    callers almost always want {!append} or {!add_phi} instead. *)
val new_node : t -> Node.op -> Node.t

(** [add_param g i] creates and registers the [i]-th parameter node. *)
val add_param : t -> int -> Node.t

(** [append g b op] creates a node and appends it to [b]'s instructions. *)
val append : t -> block -> Node.op -> Node.t

(** [add_phi g b] creates an empty phi in [b]; the caller fills its
    inputs. *)
val add_phi : t -> block -> Node.t

(** {1 Access} *)

val block : t -> block_id -> block

val n_blocks : t -> int

(** [node g id] resolves a node id.
    @raise Invalid_argument if the node was deleted. *)
val node : t -> Node.node_id -> Node.t

val op_of : t -> Node.node_id -> Node.op

val n_nodes : t -> int

(** [delete_node g id] marks a node as deleted in the node table; the
    caller must already have unlinked it from its block. *)
val delete_node : t -> Node.node_id -> unit

val successors : terminator -> block_id list

(** [iter_successors f term] calls [f] on each successor, in
    {!successors} order, without allocating. *)
val iter_successors : (block_id -> unit) -> terminator -> unit

val iter_blocks : (block -> unit) -> t -> unit

(** [instr_list b] materializes the instruction sequence of [b]. *)
val instr_list : block -> Node.t list

(** {1 CFG queries and maintenance} *)

(** [recompute_preds g] rebuilds all predecessor lists from terminators.
    Destroys the pred order phis rely on; only usable before phis exist. *)
val recompute_preds : t -> unit

(** [reverse_postorder g] lists reachable blocks; loop headers appear
    before their bodies. *)
val reverse_postorder : t -> block_id list

(** [rpo_array g] is {!reverse_postorder} as an array. *)
val rpo_array : t -> block_id array

(** [reachable g] flags blocks reachable from the entry. *)
val reachable : t -> bool array

(** [simplify_trivial_phis g] replaces phis whose inputs are all equal
    (ignoring self-references) by that input, to a fixpoint. *)
val simplify_trivial_phis : t -> unit

(** [substitute_uses g f] rewrites every operand reference — phi inputs,
    terminators and frame states included — through [f]. *)
val substitute_uses : t -> (Node.node_id -> Node.node_id) -> unit
