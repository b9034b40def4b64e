(** The dynamic deopt oracle: a bisimulation check between compiled code
    and the interpreter at every deoptimization.

    When compiled code is entered with the oracle enabled
    ([Jit.config.oracle]), the VM snapshots its entry state — arguments
    or OSR seed locals, plus the static fields — deep-cloning every
    reachable object. When that activation deopts, {!check} replays a
    shadow interpreter over the clones from the entry point, stops it at
    the exact branch-edge traversal the pruned [Deopt] replaced (located
    by the {!Pea_ir.Graph.deopt_edge} provenance plus the inline call
    path from the frame-state chain), and compares the rematerialized
    state against the shadow's live state: innermost-frame locals (dead
    [undef] slots are unobservable and skipped), the operand stack, lock
    depths, heap shape as an isomorphism over object graphs (a bijection
    over identities seeded with the entry clone map — addresses are never
    compared), and the static fields.

    The shadow runs in a separate environment (fresh heap, stats and
    profile, cloned globals, no instruments), so the oracle never
    perturbs the real execution's deterministic counters, and no trace
    or profile of the run sees the replay. *)

open Pea_bytecode
open Pea_ir
open Pea_rt

type divergence = {
  dv_method : string; (** innermost deopt frame's method *)
  dv_bci : int; (** innermost deopt bci *)
  dv_reason : string;
}

(** Raised by {!check} on any mismatch; a divergence is a compiler bug. *)
exception Divergence of divergence

val string_of_divergence : divergence -> string

(** An entry snapshot; consumed by at most one {!check}. *)
type t

(** [snapshot_call ~program env m args] snapshots a normal compiled entry
    of [m]. *)
val snapshot_call :
  program:Link.program -> Interp.env -> Classfile.rt_method -> Value.value list -> t

(** [snapshot_osr ~program env m ~header ~locals] snapshots an OSR entry
    at the loop [header] seeded with the interpreter frame's [locals]. *)
val snapshot_osr :
  program:Link.program ->
  Interp.env ->
  Classfile.rt_method ->
  header:int ->
  locals:Value.value array ->
  t

(** [check t ~env ~deopt ~resolve] replays the shadow and compares it to
    the rematerialized state ([resolve] maps frame-state values to
    runtime values, with virtual objects already rematerialized). A deopt
    without edge provenance ([d_edge = None]) is skipped — the replay
    could not locate its stop point.
    @raise Divergence on any mismatch. *)
val check :
  t ->
  env:Interp.env ->
  deopt:Graph.deopt ->
  resolve:(Frame_state.fs_value -> Value.value) ->
  unit
