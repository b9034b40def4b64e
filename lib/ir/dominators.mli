(** Dominator computation (Cooper–Harvey–Kennedy iterative algorithm).

    Used by dominator-based value numbering, loop detection, and the CFG
    cleanup that re-derives block kinds. *)

type t

(** [compute g] computes immediate dominators for every reachable block. *)
val compute : Graph.t -> t

(** [idom t b] is the immediate dominator of [b]; [None] for the entry
    block and for unreachable blocks. *)
val idom : t -> Graph.block_id -> Graph.block_id option

(** [dominates t a b] — does block [a] dominate block [b]? (Reflexive;
    O(1), from dominator-tree numbering.) *)
val dominates : t -> Graph.block_id -> Graph.block_id -> bool

(** [children t n_blocks] are the dominator-tree children lists, indexed by
    block id, for tree walks. *)
val children : t -> int -> Graph.block_id list array
