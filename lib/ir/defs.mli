(** Definition sites of a graph's values and the def-dominates-use test,
    shared by the IR checker ({!Check}) and the speculation-safety
    verifier. Queries are O(1) and allocate nothing. *)

type t

(** [compute g] records where every parameter and every phi and
    instruction of a reachable block is defined. When a node appears in
    more than one place, the last one in block order wins. *)
val compute : Graph.t -> t

(** The graph's reachable blocks ({!Graph.reachable}), by block id. *)
val reachable : t -> bool array

(** The graph's dominators, as {!Dominators.compute}. *)
val doms : t -> Dominators.t

(** [defined t id] — is [id] a parameter or defined in a reachable block? *)
val defined : t -> Node.node_id -> bool

(** [dominates_use t id ~ub ~ui] — does [id]'s definition dominate a use
    at instruction index [ui] of block [ub]? Parameters dominate every
    use, a phi is defined at index -1 of its block, and [ui = max_int]
    is the end of the block. [false] for undefined ids. *)
val dominates_use : t -> Node.node_id -> ub:Graph.block_id -> ui:int -> bool
