(** Allocation front end.

    Every object and array the VM creates goes through this module so that
    allocation counts, byte sizes and monitor operations are accounted
    exactly once — whether the allocation comes from interpreted code,
    compiled code, or deoptimization-time rematerialization. The heap
    keeps no per-class counts: the allocation-site heap profiler
    ({!Pea_obs.Profile_heap}, its [by_class] view) is the one per-class
    ledger. *)

open Pea_bytecode

type t = {
  stats : Stats.t;
  mutable next_id : int;
  mutable region_depth : int; (* active per-frame stack regions, 0 = none *)
  mutable regions : Value.value list list; (* innermost frame region first *)
}

(** [create stats] is a fresh heap charging into [stats]. *)
val create : Stats.t -> t

(** [alloc_object t cls] allocates an instance with default field values,
    charging one allocation of {!Value.object_bytes}. *)
val alloc_object : t -> Classfile.rt_class -> Value.obj

exception Negative_array_size of int

(** [alloc_array t elem len] allocates an array of [len] default elements.
    @raise Negative_array_size if [len < 0]. *)
val alloc_array : t -> Pea_mjava.Ast.ty -> int -> Value.arr

(** [alloc_object_scratch t cls] builds a real object without charging an
    allocation: it backs a virtual object passed to a callee whose summary
    proves the argument cannot escape. Only {!Stats.stack_allocs} and a
    small cycle cost are counted. *)
val alloc_object_scratch : t -> Classfile.rt_class -> Value.obj

(** [alloc_array_scratch t elem len] — scratch counterpart of
    {!alloc_array}; [len] comes from a virtual object's field count and is
    never negative. *)
val alloc_array_scratch : t -> Pea_mjava.Ast.ty -> int -> Value.arr

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

(** [alloc_object_stack t cls] — frame-bounded stack allocation: costed
    like scratch (no heap charge, {!Stats.stack_allocs} +
    {!Cost.stack_alloc} only) but registered in the innermost region for
    frame-pop reclamation. With no active region it degrades to a plain
    scratch allocation. *)
val alloc_object_stack : t -> Classfile.rt_class -> Value.obj

val alloc_array_stack : t -> Pea_mjava.Ast.ty -> int -> Value.arr

(** [promote t v] moves a live stack-region object to the heap during
    deoptimization rematerialization: charges the real allocation the
    stack tier elided, clears the region marker (so the enclosing
    [pop_frame] leaves it alone) and counts one
    {!Stats.stack_promotions}. Returns whether [v] was promoted: [false]
    (and no effect) on heap values and primitives. *)
val promote : t -> Value.value -> bool

exception Unbalanced_monitor of string

(** [monitor_enter t v] acquires [v]'s lock (recursively) and counts one
    monitor operation.
    @raise Unbalanced_monitor on a non-object operand. *)
val monitor_enter : t -> Value.value -> unit

(** [monitor_exit t v] releases one recursion level of [v]'s lock.
    @raise Unbalanced_monitor if [v] is not locked or not an object. *)
val monitor_exit : t -> Value.value -> unit
