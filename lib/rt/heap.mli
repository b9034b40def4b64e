(** Allocation front end.

    Every object and array the VM creates goes through this module so that
    allocation counts, byte sizes and monitor operations are accounted
    exactly once — whether the allocation comes from interpreted code,
    compiled code, or deoptimization-time rematerialization. The heap
    keeps no per-class counts: the allocation-site heap profiler
    ({!Pea_obs.Profile_heap}, its [by_class] view) is the one per-class
    ledger, and the heap is its one feeder. Every allocation function
    takes the bytecode site [~mid ~bci] it allocates at and records its
    object there, in the ledger the heap was created with, under the kind
    the function implies: [alloc_*] an allocation, [*_scratch] a scratch
    object, [*_stack] a stack object, [remat_*] a rematerialization and
    {!promote} a promotion. Without a ledger a record costs one load and
    compare. *)

open Pea_bytecode

type t = {
  stats : Stats.t;
  ledger : Pea_obs.Profile_heap.t option;
  mutable next_id : int;
  mutable region_depth : int; (* active per-frame stack regions, 0 = none *)
  mutable regions : Value.value list list; (* innermost frame region first *)
}

(** [create ?ledger stats] is a fresh heap charging into [stats] and
    recording every allocation in [ledger], if given. *)
val create : ?ledger:Pea_obs.Profile_heap.t -> Stats.t -> t

(** [alloc_object t ~mid ~bci cls] allocates an instance with default
    field values at bytecode [bci] of method [mid], charging one
    allocation of {!Value.object_bytes}. *)
val alloc_object : t -> mid:int -> bci:int -> Classfile.rt_class -> Value.obj

exception Negative_array_size of int

(** [alloc_array t ~mid ~bci elem len] allocates an array of [len]
    default elements.
    @raise Negative_array_size if [len < 0]. *)
val alloc_array : t -> mid:int -> bci:int -> Pea_mjava.Ast.ty -> int -> Value.arr

(** [remat_object t ~mid ~bci cls] — {!alloc_object} for a scalar-replaced
    object rematerialized at a deoptimization; [(mid, bci)] is the deopt
    site. *)
val remat_object : t -> mid:int -> bci:int -> Classfile.rt_class -> Value.obj

(** [remat_array t ~mid ~bci elem len] — {!alloc_array} for a
    rematerialized array. *)
val remat_array : t -> mid:int -> bci:int -> Pea_mjava.Ast.ty -> int -> Value.arr

(** [alloc_object_scratch t ~mid ~bci cls] builds a real object without
    charging an allocation: it backs a virtual object passed to a callee
    whose summary proves the argument cannot escape. Only
    {!Stats.stack_allocs} and a small cycle cost are counted. *)
val alloc_object_scratch : t -> mid:int -> bci:int -> Classfile.rt_class -> Value.obj

(** [alloc_array_scratch t ~mid ~bci elem len] — scratch counterpart of
    {!alloc_array}; [len] comes from a virtual object's field count and is
    never negative. *)
val alloc_array_scratch : t -> mid:int -> bci:int -> Pea_mjava.Ast.ty -> int -> Value.arr

(** {1 Per-frame stack regions}

    A compiled activation that may stack-allocate pushes a region on
    entry and pops it on exit (return, throw, trap or deopt). Frame-
    bounded materializations register in the innermost region and are
    reclaimed in O(1) at the pop; reclaimed objects are scrubbed so a
    dangling read fails loudly. *)

(** [push_frame t] opens a stack region for a compiled activation. *)
val push_frame : t -> unit

(** [pop_frame t] closes the innermost region, reclaiming (and counting
    in {!Stats.stack_reclaimed}) every object still living in it.
    @raise Invalid_argument if no region is active. *)
val pop_frame : t -> unit

(** [alloc_object_stack t ~mid ~bci cls] — frame-bounded stack
    allocation: costed like scratch (no heap charge,
    {!Stats.stack_allocs} + {!Cost.stack_alloc} only) but registered in
    the innermost region for frame-pop reclamation. With no active region
    it degrades to a plain scratch allocation. *)
val alloc_object_stack : t -> mid:int -> bci:int -> Classfile.rt_class -> Value.obj

val alloc_array_stack : t -> mid:int -> bci:int -> Pea_mjava.Ast.ty -> int -> Value.arr

(** [promote t ~mid ~bci v] moves a live stack-region object to the heap
    during deoptimization rematerialization: charges the real allocation
    the stack tier elided, records it at the deopt site [(mid, bci)],
    clears the region marker (so the enclosing [pop_frame] leaves it
    alone) and counts one {!Stats.stack_promotions}. Heap values and
    primitives are left as they are. *)
val promote : t -> mid:int -> bci:int -> Value.value -> unit

exception Unbalanced_monitor of string

(** [monitor_enter t v] acquires [v]'s lock (recursively) and counts one
    monitor operation.
    @raise Unbalanced_monitor on a non-object operand. *)
val monitor_enter : t -> Value.value -> unit

(** [monitor_exit t v] releases one recursion level of [v]'s lock.
    @raise Unbalanced_monitor if [v] is not locked or not an object. *)
val monitor_exit : t -> Value.value -> unit
