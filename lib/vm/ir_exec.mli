(** Per-graph execution tables for compiled code.

    {!Jit.compile} prepares every graph it emits; {!Closure_compile}
    translates the prepared record into closures. A [prepared] record is
    read-only after {!prepare} returns, so one record may back the
    translations of many VMs (the serving layer's shared code cache hands
    it to every tenant's domain). *)

open Pea_ir
open Pea_rt

(** Raised when execution reaches a [Deopt] terminator. Carries the deopt
    record (frame state plus pruned-branch provenance) and a
    register-lookup function for the values it references; the VM catches
    this and transfers to the interpreter via {!Deopt.handle}. *)
exception Deoptimize of Graph.deopt * (Node.node_id -> Value.value)

(** [const_value c] converts a compile-time constant to a runtime value
    ([Cundef] becomes [null]). *)
val const_value : Node.const -> Value.value

(** Phi routing of one block that has phis. *)
type phi_block = {
  pb_dsts : int array;  (** phi node ids, in phi order *)
  pb_srcs : int array array;
      (** per predecessor index (position in the block's [preds]), one
          input id per phi *)
  pb_route : int array;
      (** predecessor block id -> predecessor index; [-1] when the block
          is not a predecessor, the first index on a duplicated edge *)
}

type prepared = {
  p_graph : Graph.t;
  p_phis : phi_block option array;  (** per block id; [None] without phis *)
  p_sites : (int * int) array;
      (** per node id, the nearest enclosing [(method id, bci)]: the
          node's own frame state (innermost frame), else the last state
          seen earlier in its block, else the block entry state;
          [(-1, -1)] where the graph carries no frame states *)
  p_bcis : int array;
      (** per block id, a representative entry bci for safepoint samples;
          [-1] without an entry state *)
}

(** [prepare g] resolves the tables for [g]. The result is valid as long
    as [g]'s control-flow edges, phis and node frame states stay as they
    are. *)
val prepare : Graph.t -> prepared
