(** Deoptimization: transfer from compiled code back to the interpreter
    (§2, §5.5 of the paper).

    The frame state attached to a [Deopt] terminator describes the
    interpreter state (locals, operand stack, locks) of the innermost
    frame, with an [fs_outer] chain for inlined callers. Scalar-replaced
    allocations appear as [F_virtual] references with descriptors; they
    are rematerialized here — allocated for real, fields/elements filled
    (two-phase, so cyclic structures work) and locks re-acquired — before
    the interpreter resumes. *)

open Pea_ir
open Pea_rt

(** [handle env d lookup] rematerializes the virtual objects of
    [d.d_state], reconstructs its interpreter frames, executes them
    innermost-first (passing return values outward) and returns the
    result of the outermost frame — i.e. of the method whose compiled
    code deopted.

    [reason] (default ["speculation-failed"]) labels the [Deopt] event in
    [env]'s tracer, and [env]'s heap profiler records each
    rematerialization and stack-object promotion at the deopt site. With [oracle] set, the rematerialized
    state is checked against a shadow interpreter replay before any
    reconstructed frame executes ({!Oracle.check}).
    @raise Oracle.Divergence when the oracle detects a mismatch. *)
val handle :
  ?reason:string ->
  ?oracle:Oracle.t ->
  Interp.env ->
  Graph.deopt ->
  (Node.node_id -> Value.value) ->
  Value.value option
