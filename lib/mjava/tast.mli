(** Typed abstract syntax produced by {!Typecheck}.

    All names are resolved: locals carry slot numbers, field and method
    accesses carry fully qualified references, and every expression carries
    its static type. *)

open Ast

type var = {
  v_slot : int; (* local-variable slot; 0 is [this] in instance methods *)
  v_name : string;
  v_ty : ty;
}

type field_ref = {
  fr_class : string; (* declaring class *)
  fr_name : string;
  fr_ty : ty;
  fr_static : bool;
}

type method_ref = {
  mr_class : string; (* statically resolved declaring class *)
  mr_name : string;
  mr_params : ty list;
  mr_ret : ty option;
  mr_static : bool;
}

type texpr = {
  tex : tex;
  ty : ty;
}

and tex =
  | Tint_lit of int
  | Tbool_lit of bool
  | Tnull_lit
  | Tthis
  | Tlocal of var
  | Tunary of unop * texpr
  | Tbinary of binop * texpr * texpr
  | Tand of texpr * texpr (* short-circuit *)
  | Tor of texpr * texpr
  | Tfield of texpr * field_ref
  | Tstatic_field of field_ref
  | Tindex of texpr * texpr
  | Tlength of texpr
  | Tcall of texpr * method_ref * texpr list (* virtual dispatch *)
  | Tstatic_call of method_ref * texpr list
  | Tnew of string * texpr list
  | Tnew_array of ty * texpr (* element type, length *)
  | Tinstance_of of texpr * string
  | Tcast of string * texpr

type tstmt =
  | Tdecl of var * texpr option
  | Tassign_local of var * texpr
  | Tassign_field of texpr * field_ref * texpr
  | Tassign_static of field_ref * texpr
  | Tassign_index of texpr * texpr * texpr (* array, index, value *)
  | Tif of texpr * tstmt * tstmt option
  | Twhile of texpr * tstmt
  | Treturn of texpr option
  | Tsync of texpr * tstmt list
  | Tblock of tstmt list
  | Texpr of texpr
  | Tprint of texpr
  | Tthrow of texpr
  | Ttry of tstmt list * (string * var * tstmt list) list
      (* caught class, binding, handler body *)

type tmethod = {
  tm_class : string;
  tm_name : string;
  tm_static : bool;
  tm_sync : bool;
  tm_ret : ty option;
  tm_params : var list; (* excluding [this] *)
  tm_body : tstmt list;
  tm_max_locals : int; (* including [this] for instance methods *)
}

type tclass = {
  tc_name : string;
  tc_super : string option; (* [None] means Object *)
  tc_instance_fields : (string * ty) list; (* own fields, declaration order *)
  tc_static_fields : (string * ty) list;
  tc_methods : tmethod list; (* includes the constructor, {!Ast.ctor_name} *)
}

type tprogram = {
  tp_classes : tclass list;
}

val find_class : tprogram -> string -> tclass option

val find_method : tclass -> string -> tmethod option
