(** Reusable sets of ints with O(1) [clear].

    Membership is a generation stamp per slot, so clearing never touches
    the slots and a set reused across many small queries allocates only
    when it grows. Any int, negative ones included, can be a member. *)

type t

(** [create ()] is an empty set. *)
val create : unit -> t

(** [clear t] empties [t] in O(1). *)
val clear : t -> unit

(** [add t i] makes [i] a member until the next [clear]. *)
val add : t -> int -> unit

(** [remove t i] makes [i] a non-member. *)
val remove : t -> int -> unit

(** [mem t i] — is [i] a member? *)
val mem : t -> int -> bool
