(** Frame states: the mapping from optimized-code state back to
    interpreter (bytecode) state (§2 and §5.5 of the paper).

    A frame state describes the interpreter frame at a specific bytecode
    index: local variables, operand stack, and held locks. After inlining,
    a state carries an [fs_outer] chain describing caller frames. Partial
    escape analysis rewrites values that refer to scalar-replaced
    allocations into {!fs_value.F_virtual} references with a descriptor
    snapshot in [fs_virtuals]; deoptimization rematerializes them. *)

open Pea_bytecode

type node_id = int

type virt_id = int

(** Compile-time constants; {!Node.const} re-exports this type. *)
type const =
  | Cint of int
  | Cbool of bool
  | Cnull
  | Cundef

val string_of_const : const -> string

type fs_value =
  | F_node of node_id (* a value available in compiled code *)
  | F_virtual of virt_id (* a scalar-replaced allocation *)
  | F_const of const

type t = {
  fs_method : Classfile.rt_method;
  fs_bci : int; (* bytecode index at which the interpreter resumes *)
  fs_locals : fs_value array;
  fs_stack : fs_value list; (* top of stack first *)
  fs_locks : fs_value list; (* innermost lock first *)
  fs_outer : t option; (* caller frame after inlining *)
  fs_virtuals : (virt_id * virtual_desc) list;
      (* descriptors for every [F_virtual] reachable from this state *)
}

and virtual_desc = {
  vd_shape : shape;
  vd_fields : fs_value array; (* field values, or array elements *)
  vd_lock : int; (* lock depth to restore on rematerialization *)
}

(** A scalar-replaced allocation is an object (fields indexed by layout
    slot) or a fixed-length array (fields are the elements). *)
and shape =
  | Obj_shape of Classfile.rt_class
  | Arr_shape of Pea_mjava.Ast.ty

(** [map_values f fs] rewrites every value in the state, including outer
    frames and descriptor fields. *)
val map_values : (fs_value -> fs_value) -> t -> t

val iter_values : (fs_value -> unit) -> t -> unit

(** [iter_nodes f fs] calls [f] on every [F_node] id in the state
    (outer frames and descriptor fields included), in {!iter_values}
    order, without allocating. *)
val iter_nodes : (node_id -> unit) -> t -> unit

(** [exists_node p fs] — does [p] hold for some [F_node] id in the
    state? Allocation-free, stops at the first hit. *)
val exists_node : (node_id -> bool) -> t -> bool

(** [iter_virtuals f fs] is {!iter_nodes} for [F_virtual] references. *)
val iter_virtuals : (virt_id -> unit) -> t -> unit

(** [iter_descs f fs] calls [f id desc] on every virtual-object
    descriptor of the chain, innermost frame first, in list order. *)
val iter_descs : (virt_id -> virtual_desc -> unit) -> t -> unit

(** [depth fs] is the number of frames in the chain. *)
val depth : t -> int

val string_of_fs_value : fs_value -> string

val pp : Format.formatter -> t -> unit
