(** Minimal JSON emission for the observability sinks and the bench
    files: objects of string, int, bool and fixed-decimal float fields and
    arrays, with correct string escaping and byte-stable output. *)

val escape : string -> string
(** [escape s] is [s] with JSON string escapes applied (no quotes added). *)

val str : string -> string
(** [str s] is [s] escaped and double-quoted. *)

type field = string * string
(** A field name paired with its already-serialized value. *)

val int_field : string -> int -> field

val str_field : string -> string -> field

val bool_field : string -> bool -> field

val float_field : string -> decimals:int -> float -> field
(** [float_field name ~decimals x] prints [x] with [decimals] digits after
    the point. Raises [Invalid_argument] if [decimals < 1] or [x] is not
    finite. *)

val arr : string list -> string
(** [arr values] is a one-line JSON array of already-serialized values. *)

val obj : field list -> string
(** [obj fields] is a one-line JSON object in the given field order. *)

(** {1 Parsing}

    Recursive-descent parser over the subset the emitters write, used to
    read flight-recorder dumps and bench files back. *)

type value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of value list
  | Obj of (string * value) list

exception Parse_error of string

val parse : string -> value
(** Parse one complete JSON value; raises {!Parse_error} on malformed
    input, an integer outside OCaml's [int] range, or trailing garbage. *)

val member : string -> value -> value option
(** [member name v] is field [name] of object [v], if any. *)

val to_int : value -> int option

val to_str : value -> string option
