(* Abstract syntax of MiniJava (MJ), the Java subset used as the frontend of
   this reproduction. MJ keeps exactly the features that matter to partial
   escape analysis: object allocation, field access, static fields, single
   inheritance with virtual dispatch, [synchronized] blocks and methods,
   arrays, and structured control flow. *)

type pos = {
  line : int;
  col : int;
}

let dummy_pos = { line = 0; col = 0 }

(* Types. [Tclass "Object"] is the implicit root of the class hierarchy. *)
type ty =
  | Tint
  | Tbool
  | Tclass of string
  | Tarray of ty (* element type *)
  | Tnull (* type of the [null] literal; never written in source *)

let rec string_of_ty = function
  | Tint -> "int"
  | Tbool -> "boolean"
  | Tclass c -> c
  | Tarray t -> string_of_ty t ^ "[]"
  | Tnull -> "null"

let equal_ty (a : ty) (b : ty) = a = b

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
  | RefEq (* reference equality *)
  | RefNe

let string_of_unop = function Neg -> "-" | Not -> "!"

let string_of_binop = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Rem -> "%"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="
  | RefEq -> "=="
  | RefNe -> "!="

type expr = {
  ex : ex;
  epos : pos;
}

and ex =
  | Int of int
  | Bool of bool
  | Null
  | This
  | Name of string (* local, param, or implicit this-field; resolved by the checker *)
  | Unary of unop * expr
  | Binary of binop * expr * expr
  | And of expr * expr (* short-circuit && *)
  | Or of expr * expr (* short-circuit || *)
  | Field of expr * string
  | Static_field of string * string (* class name, field name *)
  | Index of expr * expr
  | Length of expr
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

(* Constructors are represented as methods named {!ctor_name}. *)
let ctor_name = "<init>"

type class_decl = {
  c_name : string;
  c_super : string option; (* [None] means extends Object *)
  c_fields : (bool * ty * string * pos) list; (* static?, type, name, pos *)
  c_methods : method_decl list;
  c_pos : pos;
}

type program = class_decl list

(* The implicit root class. *)
let object_class = "Object"

let is_ref_ty = function Tclass _ | Tarray _ | Tnull -> true | Tint | Tbool -> false
