(** IR nodes.

    SSA values produced by instructions that live in basic blocks (the
    post-schedule view of Graal IR). Side-effecting instructions carry a
    {!Frame_state.t} describing the interpreter state just after their
    effect (§2 of the paper); partial escape analysis rewrites those
    states when it removes allocations (§5.5). *)

open Pea_bytecode

type node_id = int

(** Compile-time constants (shared with {!Frame_state}). [Cundef] is the
    value of a local variable read before any write. *)
type const = Frame_state.const =
  | Cint of int
  | Cbool of bool
  | Cnull
  | Cundef

type arith =
  | Add
  | Sub
  | Mul
  | Div
  | Rem

type invoke_kind =
  | Virtual (* dispatched on the runtime receiver class *)
  | Static
  | Special (* constructor: no dispatch, no result *)

(** Which stack-allocation tier a {!Stack_alloc}/{!Stack_alloc_array}
    belongs to. [Sk_scratch] backs a summary-cleared scratch argument that
    dies with one call; [Sk_frame] is a frame-bounded materialization
    placed in the frame's stack region and reclaimed at frame pop. *)
type stack_kind =
  | Sk_scratch
  | Sk_frame

type op =
  | Const of const
  | Param of int (* argument index; 0 is [this] for instance methods *)
  | Phi of phi
  | Arith of arith * node_id * node_id
  | Neg of node_id
  | Not of node_id
  | Cmp of Classfile.cmp * node_id * node_id (* int comparison, or [==]/[!=] on two bools -> bool *)
  | RefCmp of Classfile.acmp * node_id * node_id (* reference equality *)
  | New of Classfile.rt_class (* allocation with default field values *)
  | Alloc of Classfile.rt_class * node_id array
      (* materialization: allocation initialized with the given field
         values (one per layout slot); inserted by escape analysis *)
  | Alloc_array of Pea_mjava.Ast.ty * node_id array
      (* materialization of a scalar-replaced fixed-length array *)
  | New_array of Pea_mjava.Ast.ty * node_id (* element type, dynamic length *)
  | Stack_alloc of stack_kind * Classfile.rt_class * node_id array
      (* stack materialization: builds a real object with the given field
         values but charges no heap allocation. [Sk_scratch] backs a
         virtual object passed to a non-inlined callee whose summary
         proves the argument cannot escape or be written (see
         {!Pea_analysis.Summary}); [Sk_frame] backs a frame-bounded
         object that must materialize (merge, lock, opaque call) but
         provably never outlives its frame *)
  | Stack_alloc_array of stack_kind * Pea_mjava.Ast.ty * node_id array
      (* stack materialization of a scalar-replaced fixed-length array *)
  | Load_field of node_id * Classfile.rt_field
  | Store_field of node_id * Classfile.rt_field * node_id
  | Load_static of Classfile.rt_static_field
  | Store_static of Classfile.rt_static_field * node_id
  | Array_load of node_id * node_id
  | Array_store of node_id * node_id * node_id (* array, index, value *)
  | Array_length of node_id
  | Monitor_enter of node_id
  | Monitor_exit of node_id
  | Invoke of invoke_kind * Classfile.rt_method * node_id array
  | Instance_of of node_id * Classfile.rt_class
  | Has_class of node_id * Classfile.rt_class
      (* exact-class test: true iff the operand is a non-null object whose
         runtime class is exactly the given class; false for null. The
         condition of the type guard protecting a speculatively inlined
         virtual call *)
  | Check_cast of node_id * Classfile.rt_class
  | Null_check of node_id
      (* traps on null; inserted when a devirtualized call is inlined, to
         preserve NullPointerException semantics *)
  | Print of node_id

and phi = { mutable inputs : node_id array (* one per predecessor, in pred order *) }

type t = {
  id : node_id;
  mutable op : op;
  mutable fs : Frame_state.t option; (* after-state for side-effecting ops *)
}

(** {1 Classification} *)

(** Pure operations can be value-numbered and dropped when unused.
    [Div]/[Rem] trap and are not pure. *)
val is_pure : op -> bool

(** Operations whose effects are visible outside the method; these carry
    frame states. *)
val has_side_effect : op -> bool

(** Does the node produce a value other nodes may use? *)
val produces_value : op -> bool

(** {1 Operand traversal} *)

val iter_operands : (node_id -> unit) -> op -> unit

(** [exists_operand p op] — does [p] hold for some operand of [op]? *)
val exists_operand : (node_id -> bool) -> op -> bool

val map_operands : (node_id -> node_id) -> op -> op

(** {1 Printing} *)

val string_of_const : const -> string

val string_of_arith : arith -> string

(** [""] for [Sk_scratch] (the historical default), [".frame"] for
    [Sk_frame]; used as a suffix in IR dumps. *)
val string_of_stack_kind : stack_kind -> string

val string_of_op : op -> string
