(** Execution profiles collected by the interpreter tier and consumed by
    the JIT: invocation counters drive the compilation policy, per-loop-
    header back-edge counters drive on-stack replacement, per-branch taken
    counts drive speculative cold-branch pruning — the mechanism that
    makes deoptimization (and therefore §5.5 of the paper) observable —
    and per-call-site receiver classes seed the closure tier's inline
    caches. *)

open Pea_bytecode

(** One receiver class observed at a virtual call site; [rc_order] is the
    deterministic first-seen tie-break used by {!hot_receiver}. *)
type receiver_cell = {
  rc_cls : Classfile.rt_class;
  mutable rc_count : int;
  rc_order : int;
}

type call_site_profile = {
  site_receivers : (int, receiver_cell) Hashtbl.t; (* cls_id -> cell *)
  mutable site_next_order : int;
}

type method_profile = {
  mutable invocations : int;
  back_edges : int array; (* loop-header bci -> back edges taken to it *)
  branch_taken : int array; (* bci -> times the branch jumped *)
  branch_fallthrough : int array; (* bci -> times it fell through *)
  receivers : (int, call_site_profile) Hashtbl.t;
      (* bci of an Invokevirtual -> per-class dispatch counts *)
}

type t = method_profile array (* indexed by [mth_id] *)

(** [create program] allocates empty profiles for every method. *)
val create : Link.program -> t

val for_method : t -> Classfile.rt_method -> method_profile

(** [record_invocation t m] counts one interpreted entry of [m]. *)
val record_invocation : t -> Classfile.rt_method -> unit

(** [record_back_edge t m ~header] counts one back edge taken to the loop
    header at bci [header] while interpreting [m]. Out-of-range headers
    are ignored. *)
val record_back_edge : t -> Classfile.rt_method -> header:int -> unit

(** [back_edge_count t m ~header] is how many back edges have targeted the
    loop header at bci [header]. *)
val back_edge_count : t -> Classfile.rt_method -> header:int -> int

(** [record_branch t m ~bci ~taken] counts one execution of the branch at
    [bci], which must be a bci of [m]'s code. *)
val record_branch : t -> Classfile.rt_method -> bci:int -> taken:bool -> unit

(** [branch_counts t m ~bci] is [(taken, fallthrough)]; [(0, 0)] for a
    bci outside [m]'s code. *)
val branch_counts : t -> Classfile.rt_method -> bci:int -> int * int

(** [record_receiver t m ~bci cls] counts one dispatch on a receiver of
    class [cls] at the [Invokevirtual] at [bci]. O(1) per dispatch. *)
val record_receiver : t -> Classfile.rt_method -> bci:int -> Classfile.rt_class -> unit

(** [hot_receiver t m ~bci] is the most frequently observed receiver class
    at the call site, if any dispatch was recorded. Ties break towards the
    class seen first, so the result is deterministic. *)
val hot_receiver : t -> Classfile.rt_method -> bci:int -> Classfile.rt_class option

val invocations : t -> Classfile.rt_method -> int

(** [copy t] is a deep snapshot: mutating [t] afterwards never changes the
    copy (and vice versa). The serving layer's queued compiles work from
    such a snapshot taken at enqueue time, so the profile writes the
    interpreter makes before the deadline never reach it. *)
val copy : t -> t
