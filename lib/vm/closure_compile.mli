(** The closure execution tier: one-time translation of an optimized IR
    graph into a tree of OCaml closures, and the only executor of
    compiled code.

    Every instruction becomes a pre-bound closure that tail-calls the
    next, so every block is one threaded chain; every [(pred, block)]
    edge becomes a parallel phi move over the graph's
    {!Ir_exec.prepared} routing tables, every virtual call site a
    monomorphic inline cache, and register files are pooled across
    invocations.

    Cost accounting ({!Stats.cycles}, {!Stats.compiled_ops}, bumped
    through counter cells resolved at translation) charges each
    instruction [Cost.compiled_op] plus its operation-specific cost, and
    each [If] one [Cost.compiled_op]; how the closures are built is a
    wall-clock matter only and charges no model cycles. *)

open Pea_rt

type code

(** [compile env p] translates the prepared graph [p] into closure form.
    [env] is captured: heap, globals, statics, the invoke/print hooks, and
    the interpreter's receiver profile (used to seed the inline caches).
    [p] is only read, so one prepared graph can back the translations of
    many VMs. The result is valid as long as the graph's compiled code
    is; the VM discards it on deoptimization. Terminators are read here,
    at translation time. *)
val compile : Interp.env -> Ir_exec.prepared -> code

(** [run ?deopt code args] executes one invocation, using a pooled
    register file. The file is returned to the pool on normal return and
    on {!Interp.Mj_throw}. At a [Deopt] terminator, [deopt] (if given) is
    invoked in-frame with the deopt record and register lookup; the file is
    released once it finishes, so the pool depth recovers. Without [deopt]
    the {!Ir_exec.Deoptimize} exception propagates and the file leaks with
    its lookup closure.
    @raise Ir_exec.Deoptimize at [Deopt] terminators when [deopt] is absent.
    @raise Interp.Trap on runtime faults. *)
val run :
  ?deopt:(Pea_ir.Graph.deopt -> (Pea_ir.Node.node_id -> Value.value) -> Value.value option) ->
  code ->
  Value.value list ->
  Value.value option

(** Number of free register files currently pooled (for tests). *)
val pool_depth : code -> int
