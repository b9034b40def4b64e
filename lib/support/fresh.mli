(** Fresh integer id generators. *)

type t

(** [create ()] is a generator whose first id is [0]. *)
val create : unit -> t

(** [next t] returns the next id and advances the generator. *)
val next : t -> int

(** [peek t] is the id [next] would return, without advancing. *)
val peek : t -> int

(** [reserve t n] skips ids so that the next id is at least [n]. *)
val reserve : t -> int -> unit
