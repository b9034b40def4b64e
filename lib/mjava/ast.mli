(** Abstract syntax of MiniJava (MJ), the Java subset used as the frontend
    of this reproduction.

    MJ keeps exactly the features that matter to partial escape analysis:
    object allocation, field access, static fields, single inheritance
    with virtual dispatch, [synchronized] blocks and methods, arrays, and
    structured control flow. [for] loops, compound assignment and
    [++]/[--] exist as parser sugar and never appear in this tree. *)

type pos = {
  line : int;
  col : int;
}

val dummy_pos : pos

(** Types. [Tnull] is the type of the [null] literal and cannot be written
    in source. *)
type ty =
  | Tint
  | Tbool
  | Tclass of string
  | Tarray of ty (* element type *)
  | Tnull

val string_of_ty : ty -> string

val equal_ty : ty -> ty -> bool

type unop =
  | Neg
  | Not

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | Lt
  | Le
  | Gt
  | Ge
  | Eq (* int/bool equality *)
  | Ne
  | RefEq (* reference equality; produced by the typechecker *)
  | RefNe

val string_of_unop : unop -> string

val string_of_binop : binop -> string

type expr = {
  ex : ex;
  epos : pos;
}

and ex =
  | Int of int
  | Bool of bool
  | Null
  | This
  | Name of string (* local, param or implicit this-field; resolved by the checker *)
  | Unary of unop * expr
  | Binary of binop * expr * expr
  | And of expr * expr (* short-circuit *)
  | Or of expr * expr
  | Field of expr * string
  | Static_field of string * string (* class name, field name *)
  | Index of expr * expr
  | Length of expr (* produced by the checker for [arr.length] *)
  | Call of expr * string * expr list
  | Name_call of string * expr list (* bare call: this-call or same-class static *)
  | Static_call of string * string * expr list
  | New of string * expr list
  | New_array of ty * expr
  | Instance_of of expr * string
  | Cast of string * expr

type stmt = {
  st : st;
  spos : pos;
}

and st =
  | Decl of ty * string * expr option
  | Assign of expr * expr (* lvalue, rvalue *)
  | If of expr * stmt * stmt option
  | While of expr * stmt
  | Return of expr option
  | Sync of expr * stmt list (* synchronized (e) { ... } *)
  | Block of stmt list
  | Expr_stmt of expr
  | Print of expr (* builtin: prints an int or boolean *)
  | Throw of expr (* throw e; unwinds to the nearest matching catch *)
  | Try of stmt list * catch_clause list

and catch_clause = {
  cc_class : string; (* caught class (and subclasses) *)
  cc_var : string; (* binding for the caught object *)
  cc_body : stmt list;
  cc_pos : pos;
}

type method_decl = {
  m_name : string;
  m_static : bool;
  m_sync : bool; (* synchronized instance method *)
  m_ret : ty option; (* [None] for void and constructors *)
  m_params : (ty * string) list;
  m_body : stmt list;
  m_pos : pos;
}

(** Constructors are represented as methods with this name. *)
val ctor_name : string

type class_decl = {
  c_name : string;
  c_super : string option; (* [None] means extends Object *)
  c_fields : (bool * ty * string * pos) list; (* static?, type, name, pos *)
  c_methods : method_decl list;
  c_pos : pos;
}

type program = class_decl list

(** The implicit root class, ["Object"]. *)
val object_class : string

(** [is_ref_ty t] — whether values of [t] are references: classes, arrays
    and [null]. *)
val is_ref_ty : ty -> bool
