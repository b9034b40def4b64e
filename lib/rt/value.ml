(* Runtime values and heap objects. The OCaml GC manages the actual memory;
   we model object identity, field storage, per-object lock depth (the VM
   is single-threaded, so a lock is just a recursion counter) and the
   byte-size accounting the paper reports. *)

open Pea_bytecode

type value =
  | Vint of int
  | Vbool of bool
  | Vnull
  | Vobj of obj
  | Varr of arr

and obj = {
  o_id : int;
  o_cls : Classfile.rt_class;
  o_fields : value array;
  mutable o_lock : int; (* recursive lock depth; single-threaded VM *)
  mutable o_region : int;
      (* stack-region depth this object lives in: 0 for ordinary heap
         objects, > 0 for frame-bounded stack allocations (reclaimed at
         frame pop unless promoted first), -1 once reclaimed *)
}

and arr = {
  a_id : int;
  a_elem : Pea_mjava.Ast.ty;
  a_elems : value array;
  mutable a_lock : int;
  mutable a_region : int;
}

let default_value (ty : Pea_mjava.Ast.ty) =
  match ty with
  | Tint -> Vint 0
  | Tbool -> Vbool false
  | Tclass _ | Tarray _ | Tnull -> Vnull

(* Size accounting: 16-byte header; 8 bytes per object field (uniform
   value-sized slots); arrays use 4 bytes per int/boolean element and
   8 per reference element. *)
let header_bytes = 16

let field_bytes = 8

let elem_bytes (ty : Pea_mjava.Ast.ty) =
  match ty with Tint | Tbool -> 4 | Tclass _ | Tarray _ | Tnull -> 8

let object_bytes (cls : Classfile.rt_class) =
  header_bytes + (field_bytes * Array.length cls.cls_instance_fields)

let array_bytes elem len = header_bytes + (elem_bytes elem * len)

let rec equal_value a b =
  match a, b with
  | Vint x, Vint y -> x = y
  | Vbool x, Vbool y -> x = y
  | Vnull, Vnull -> true
  | Vobj x, Vobj y -> x.o_id = y.o_id
  | Varr x, Varr y -> x.a_id = y.a_id
  | (Vint _ | Vbool _ | Vnull | Vobj _ | Varr _), _ -> ignore equal_value; false

(* decimal digits of [k <= 0]; negative, so [min_int] needs no case *)
let rec neg_digits k = if k > -10 then 1 else 1 + neg_digits (k / 10)

(* the digits of [k <= 0] into [b], the last one at [i] *)
let rec write_neg_digits b k i =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 - (k mod 10)));
  if k <= -10 then write_neg_digits b (k / 10) (i - 1)

(* [string_of_int n], without the format string [caml_format_int] parses
   on every call: a served request renders its int result with this *)
let decimal n =
  let k = if n > 0 then -n else n in
  let sign = if n < 0 then 1 else 0 in
  let b = Bytes.create (sign + neg_digits k) in
  write_neg_digits b k (Bytes.length b - 1);
  if n < 0 then Bytes.unsafe_set b 0 '-';
  Bytes.unsafe_to_string b

let string_of_value = function
  | Vint n -> decimal n
  | Vbool b -> string_of_bool b
  | Vnull -> "null"
  | Vobj o -> Printf.sprintf "%s@%d" o.o_cls.cls_name o.o_id
  | Varr a -> Printf.sprintf "%s[%d]@%d" (Pea_mjava.Ast.string_of_ty a.a_elem) (Array.length a.a_elems) a.a_id

let pp ppf v = Fmt.string ppf (string_of_value v)
