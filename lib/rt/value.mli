(** Runtime values and heap objects.

    The OCaml GC manages actual memory; this module models object
    identity, field storage, per-object lock depth (the VM is
    single-threaded, so a lock is a recursion counter) and the byte-size
    accounting the paper's evaluation reports. *)

open Pea_bytecode

type value =
  | Vint of int
  | Vbool of bool
  | Vnull
  | Vobj of obj
  | Varr of arr

and obj = {
  o_id : int; (* identity, used by reference equality *)
  o_cls : Classfile.rt_class;
  o_fields : value array; (* indexed by field offset *)
  mutable o_lock : int; (* recursive lock depth *)
  mutable o_region : int;
      (* stack-region depth: 0 = heap, > 0 = live in that frame's stack
         region, -1 = reclaimed at frame pop *)
}

and arr = {
  a_id : int;
  a_elem : Pea_mjava.Ast.ty;
  a_elems : value array;
  mutable a_lock : int;
  mutable a_region : int;
}

(** [default_value ty] is the JVM default for a field/element of type
    [ty]: [0], [false] or [null]. *)
val default_value : Pea_mjava.Ast.ty -> value

(** Heap size accounting: 16-byte headers, 8 bytes per object field,
    4 bytes per [int]/[boolean] array element, 8 per reference element. *)

val header_bytes : int

val field_bytes : int

(** [elem_bytes ty] is the per-element size of an array of [ty]. *)
val elem_bytes : Pea_mjava.Ast.ty -> int

(** [object_bytes cls] is the heap footprint of an instance of [cls]. *)
val object_bytes : Classfile.rt_class -> int

(** [array_bytes elem len] is the heap footprint of an array. *)
val array_bytes : Pea_mjava.Ast.ty -> int -> int

(** [equal_value a b] is Java [==]: value equality for primitives,
    identity for references. *)
val equal_value : value -> value -> bool

(** [string_of_value v] renders a value for diagnostics and test output. *)
val string_of_value : value -> string

val pp : Format.formatter -> value -> unit
