(** A named counter/histogram registry.

    A [schema] is populated once, at module-initialization time, by
    declaring metrics; [create schema] then yields independent instances
    (flat int-array storage) that all share the declarations. Adding a
    metric is one line at the declaration site — reset, dump and
    [to_json] follow for free. The first [create] seals the schema, so a
    late declaration (which an existing instance could not store) raises
    [Invalid_argument]. Counters and histograms have distinct handle
    types, so passing one where the other is expected is a type error. *)

type counter
(** Handle to a declared counter. *)

type histogram
(** Handle to a declared histogram. *)

type schema

val make_schema : unit -> schema

val counter : schema -> string -> counter
(** [counter schema name] declares a counter. *)

val histogram : schema -> string -> histogram
(** [histogram schema name] declares a histogram tracking count, sum,
    min and max of observed values. *)

type t
(** One instance of a schema's metrics, all zero initially. *)

val create : schema -> t
(** Seals [schema] and returns a fresh zeroed instance. *)

val reset : t -> unit

val get : t -> counter -> int

val set : t -> counter -> int -> unit

val add : t -> counter -> int -> unit

val incr : t -> counter -> unit

val cell : t -> counter -> int array * int
(** [cell t c] is the storage of counter [c] in [t]: an array and the
    index of [c]'s slot in it. The array is [t]'s own, so writes through
    it are writes to the counter. For hot paths that resolve a counter
    once and then bump it without a call; {!reset} keeps the array. The
    pair is built when [t] is created, so [cell] allocates nothing and a
    caller may resolve it once per activation. *)

val observe : t -> histogram -> int -> unit
(** Record one histogram observation. *)

type hview = { h_count : int; h_sum : int; h_min : int; h_max : int }
(** Histogram summary; [h_min]/[h_max] are 0 while [h_count] is 0. *)

val hist : t -> histogram -> hview

type value = V_counter of int | V_histogram of hview

val dump : t -> (string * value) list
(** All metrics with their current values, in declaration order. *)

val to_json : t -> string
(** One-line JSON object: [{"counters":{...},"histograms":{...}}]. *)
