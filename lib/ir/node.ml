(* IR nodes. The IR is the post-schedule view of a Graal-style sea of
   nodes: SSA values produced by instructions that live in basic blocks, in
   execution order, with Phi nodes at control-flow merges. Side-effecting
   instructions carry a {!Frame_state.t} describing the interpreter state
   just after their effect (§2 of the paper). *)

open Pea_bytecode

type node_id = int

type const = Frame_state.const =
  | Cint of int
  | Cbool of bool
  | Cnull
  | Cundef (* value of a local that is read before being written *)

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

type stack_kind =
  | Sk_scratch
      (* summary-cleared scratch argument: the callee provably cannot
         retain it, so it dies with the call and needs no region *)
  | Sk_frame
      (* frame-bounded materialization: a real object with identity,
         field stores/loads and lock support, allocated in the current
         frame's stack region and reclaimed in O(1) at frame pop *)

type op =
  | Const of const
  | Param of int (* index into the argument list; 0 is [this] for instance methods *)
  | Phi of phi
  | Arith of arith * node_id * node_id
  | Neg of node_id
  | Not of node_id
  | Cmp of Classfile.cmp * node_id * node_id (* int comparison, or [==]/[!=] on two bools *)
  | RefCmp of Classfile.acmp * node_id * node_id
  | New of Classfile.rt_class (* allocation with default field values *)
  | Alloc of Classfile.rt_class * node_id array
      (* materialization: allocation initialized with the given field
         values (one per layout slot); inserted by escape analysis *)
  | Alloc_array of Pea_mjava.Ast.ty * node_id array
      (* materialization of a scalar-replaced fixed-length array,
         initialized with the given element values *)
  | New_array of Pea_mjava.Ast.ty * node_id (* element type, length *)
  | Stack_alloc of stack_kind * Classfile.rt_class * node_id array
      (* stack materialization: builds a real object with the given field
         values but charges no heap allocation. [Sk_scratch] is emitted
         by PEA when a virtual object is passed to a non-inlined callee
         whose summary proves the argument cannot escape or be written;
         [Sk_frame] when a materialization point is reached but the
         escape analysis proves the object never outlives its frame *)
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
         runtime class is exactly the given class (no subclass walk);
         false for null. The condition of the type guard protecting a
         speculatively inlined virtual call *)
  | Check_cast of node_id * Classfile.rt_class
  | Null_check of node_id
      (* traps on a null operand; inserted when a virtual call is
         devirtualized and inlined, to preserve NullPointerException
         semantics *)
  | Print of node_id

and phi = { mutable inputs : node_id array (* one per predecessor, in pred order *) }

type t = {
  id : node_id;
  mutable op : op;
  mutable fs : Frame_state.t option;
}

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

(* Pure operations can be value-numbered and dropped when unused. [Div] and
   [Rem] can trap, so they are not pure. *)
let is_pure (op : op) =
  match op with
  | Const _ | Param _ | Phi _ | Arith ((Add | Sub | Mul), _, _) | Neg _ | Not _ | Cmp _
  | RefCmp _ | Instance_of _ | Has_class _ ->
      true
  | Arith ((Div | Rem), _, _) | New _ | Alloc _ | Alloc_array _ | New_array _
  | Stack_alloc _ | Stack_alloc_array _ | Load_field _ | Store_field _
  | Load_static _ | Store_static _ | Array_load _ | Array_store _ | Array_length _
  | Monitor_enter _ | Monitor_exit _ | Invoke _ | Check_cast _ | Null_check _ | Print _ ->
      false

(* Operations whose effects are visible outside the method: these carry
   frame states and act as deoptimization anchors. *)
let has_side_effect (op : op) =
  match op with
  | Store_field _ | Store_static _ | Array_store _ | Monitor_enter _ | Monitor_exit _
  | Invoke _ | Print _ ->
      true
  | Const _ | Param _ | Phi _ | Arith _ | Neg _ | Not _ | Cmp _ | RefCmp _ | New _ | Alloc _
  | Alloc_array _ | New_array _ | Stack_alloc _ | Stack_alloc_array _ | Load_field _
  | Load_static _ | Array_load _ | Array_length _ | Instance_of _ | Has_class _
  | Check_cast _ | Null_check _ ->
      false

(* Does the node produce a value that other nodes may use? *)
let produces_value (op : op) =
  match op with
  | Store_field _ | Store_static _ | Array_store _ | Monitor_enter _ | Monitor_exit _
  | Null_check _ | Print _ ->
      false
  | Invoke (Special, _, _) -> false
  | Invoke (_, m, _) -> m.Classfile.mth_ret <> None
  | Const _ | Param _ | Phi _ | Arith _ | Neg _ | Not _ | Cmp _ | RefCmp _ | New _ | Alloc _
  | Alloc_array _ | New_array _ | Stack_alloc _ | Stack_alloc_array _ | Load_field _
  | Load_static _ | Array_load _ | Array_length _ | Instance_of _ | Has_class _
  | Check_cast _ ->
      true

(* ------------------------------------------------------------------ *)
(* Operand traversal                                                   *)
(* ------------------------------------------------------------------ *)

let iter_operands f (op : op) =
  match op with
  | Const _ | Param _ | New _ | Load_static _ -> ()
  | Phi p -> Array.iter f p.inputs
  | Arith (_, a, b) | Cmp (_, a, b) | RefCmp (_, a, b) | Array_load (a, b) ->
      f a;
      f b
  | Neg a | Not a | New_array (_, a) | Load_field (a, _) | Store_static (_, a)
  | Array_length a | Monitor_enter a | Monitor_exit a | Instance_of (a, _)
  | Has_class (a, _) | Check_cast (a, _) | Null_check a | Print a ->
      f a
  | Store_field (a, _, b) ->
      f a;
      f b
  | Array_store (a, b, c) ->
      f a;
      f b;
      f c
  | Alloc (_, args) | Alloc_array (_, args) | Stack_alloc (_, _, args)
  | Stack_alloc_array (_, _, args) | Invoke (_, _, args) ->
      Array.iter f args

let exists_operand p (op : op) =
  match op with
  | Const _ | Param _ | New _ | Load_static _ -> false
  | Phi { inputs = args } | Alloc (_, args) | Alloc_array (_, args) | Stack_alloc (_, _, args)
  | Stack_alloc_array (_, _, args) | Invoke (_, _, args) ->
      Array.exists p args
  | Arith (_, a, b) | Cmp (_, a, b) | RefCmp (_, a, b) | Array_load (a, b)
  | Store_field (a, _, b) ->
      p a || p b
  | Neg a | Not a | New_array (_, a) | Load_field (a, _) | Store_static (_, a)
  | Array_length a | Monitor_enter a | Monitor_exit a | Instance_of (a, _)
  | Has_class (a, _) | Check_cast (a, _) | Null_check a | Print a ->
      p a
  | Array_store (a, b, c) -> p a || p b || p c

let map_operands f (op : op) : op =
  match op with
  | Const _ | Param _ | New _ | Load_static _ -> op
  | Phi p -> Phi { inputs = Array.map f p.inputs }
  | Arith (k, a, b) -> Arith (k, f a, f b)
  | Cmp (k, a, b) -> Cmp (k, f a, f b)
  | RefCmp (k, a, b) -> RefCmp (k, f a, f b)
  | Array_load (a, b) -> Array_load (f a, f b)
  | Neg a -> Neg (f a)
  | Not a -> Not (f a)
  | New_array (t, a) -> New_array (t, f a)
  | Load_field (a, fld) -> Load_field (f a, fld)
  | Store_static (s, a) -> Store_static (s, f a)
  | Array_length a -> Array_length (f a)
  | Monitor_enter a -> Monitor_enter (f a)
  | Monitor_exit a -> Monitor_exit (f a)
  | Instance_of (a, c) -> Instance_of (f a, c)
  | Has_class (a, c) -> Has_class (f a, c)
  | Check_cast (a, c) -> Check_cast (f a, c)
  | Null_check a -> Null_check (f a)
  | Print a -> Print (f a)
  | Store_field (a, fld, b) -> Store_field (f a, fld, f b)
  | Array_store (a, b, c) -> Array_store (f a, f b, f c)
  | Alloc (c, args) -> Alloc (c, Array.map f args)
  | Alloc_array (t, args) -> Alloc_array (t, Array.map f args)
  | Stack_alloc (k, c, args) -> Stack_alloc (k, c, Array.map f args)
  | Stack_alloc_array (k, t, args) -> Stack_alloc_array (k, t, Array.map f args)
  | Invoke (k, m, args) -> Invoke (k, m, Array.map f args)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let string_of_const = Frame_state.string_of_const

let string_of_arith = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Rem -> "%"

let v n = Printf.sprintf "v%d" n

(* Scratch is the historical default and prints bare; the frame tier is
   annotated so IR dumps distinguish the two. *)
let string_of_stack_kind = function Sk_scratch -> "" | Sk_frame -> ".frame"

let string_of_op (op : op) =
  match op with
  | Const c -> Printf.sprintf "const %s" (string_of_const c)
  | Param i -> Printf.sprintf "param %d" i
  | Phi p -> Printf.sprintf "phi(%s)" (String.concat ", " (Array.to_list (Array.map v p.inputs)))
  | Arith (k, a, b) -> Printf.sprintf "%s %s %s" (v a) (string_of_arith k) (v b)
  | Neg a -> Printf.sprintf "-%s" (v a)
  | Not a -> Printf.sprintf "!%s" (v a)
  | Cmp (c, a, b) -> Printf.sprintf "%s %s %s" (v a) (Classfile.string_of_cmp c) (v b)
  | RefCmp (AEq, a, b) -> Printf.sprintf "%s === %s" (v a) (v b)
  | RefCmp (ANe, a, b) -> Printf.sprintf "%s !== %s" (v a) (v b)
  | New c -> Printf.sprintf "new %s" c.cls_name
  | Alloc (c, fields) ->
      Printf.sprintf "alloc %s(%s)" c.cls_name
        (String.concat ", " (Array.to_list (Array.map v fields)))
  | Alloc_array (t, elems) ->
      Printf.sprintf "allocarray %s[%s]" (Pea_mjava.Ast.string_of_ty t)
        (String.concat ", " (Array.to_list (Array.map v elems)))
  | New_array (t, len) -> Printf.sprintf "newarray %s[%s]" (Pea_mjava.Ast.string_of_ty t) (v len)
  | Stack_alloc (k, c, fields) ->
      Printf.sprintf "stackalloc%s %s(%s)" (string_of_stack_kind k) c.cls_name
        (String.concat ", " (Array.to_list (Array.map v fields)))
  | Stack_alloc_array (k, t, elems) ->
      Printf.sprintf "stackallocarray%s %s[%s]" (string_of_stack_kind k)
        (Pea_mjava.Ast.string_of_ty t)
        (String.concat ", " (Array.to_list (Array.map v elems)))
  | Load_field (o, f) -> Printf.sprintf "%s.%s" (v o) f.fld_name
  | Store_field (o, f, x) -> Printf.sprintf "%s.%s = %s" (v o) f.fld_name (v x)
  | Load_static s -> Printf.sprintf "%s.%s" s.sf_owner s.sf_name
  | Store_static (s, x) -> Printf.sprintf "%s.%s = %s" s.sf_owner s.sf_name (v x)
  | Array_load (a, i) -> Printf.sprintf "%s[%s]" (v a) (v i)
  | Array_store (a, i, x) -> Printf.sprintf "%s[%s] = %s" (v a) (v i) (v x)
  | Array_length a -> Printf.sprintf "%s.length" (v a)
  | Monitor_enter a -> Printf.sprintf "monitorenter %s" (v a)
  | Monitor_exit a -> Printf.sprintf "monitorexit %s" (v a)
  | Invoke (Virtual, m, args) ->
      Printf.sprintf "invokevirtual %s(%s)" (Classfile.qualified_name m)
        (String.concat ", " (Array.to_list (Array.map v args)))
  | Invoke (Static, m, args) ->
      Printf.sprintf "invokestatic %s(%s)" (Classfile.qualified_name m)
        (String.concat ", " (Array.to_list (Array.map v args)))
  | Invoke (Special, m, args) ->
      Printf.sprintf "invokespecial %s(%s)" (Classfile.qualified_name m)
        (String.concat ", " (Array.to_list (Array.map v args)))
  | Instance_of (a, c) -> Printf.sprintf "%s instanceof %s" (v a) c.cls_name
  | Has_class (a, c) -> Printf.sprintf "%s hasclass %s" (v a) c.cls_name
  | Check_cast (a, c) -> Printf.sprintf "(%s) %s" c.cls_name (v a)
  | Null_check a -> Printf.sprintf "nullcheck %s" (v a)
  | Print a -> Printf.sprintf "print %s" (v a)
