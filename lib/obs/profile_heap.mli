(** Allocation-site heap profiler.

    Attributes every materialized allocation — ordinary heap
    allocations, scalar-replaced scratch and stack allocations, and deopt
    rematerializations and stack-object promotions — to its bytecode
    site [(method id, bci)] and class. Cross-referenced with PEA site
    reports by {!Report} to show the compiler's decision and the
    observed outcome side by side. It is also the VM's one per-class
    allocation ledger ({!by_class}): its charged records add up to
    [Stats.allocations] and [Stats.allocated_bytes] of a run it watched
    from the start ([Vm.create ~heap]). Its one feeder is the VM's heap
    ([Heap], created with it by [Interp.make_env]), which records each
    allocation it charges or backs, at the site it is given, in the same
    call: no other code calls {!record}. Never writes [Stats] or [Heap]
    counters. A profiler is not shared across domains. *)

type kind =
  | K_alloc  (** ordinary heap allocation (charged to Stats) *)
  | K_scratch  (** scalar-replaced scratch allocation *)
  | K_stack
      (** frame-bounded stack-region allocation, reclaimed at frame pop *)
  | K_remat  (** rematerialized at deoptimization (charged) *)
  | K_promote
      (** stack-region object promoted to the heap at deoptimization,
          recorded at the deopt site (charged) *)

val kind_string : kind -> string

type t

val create : unit -> t

val clear : t -> unit

val total_records : t -> int

val record :
  t -> mid:int -> bci:int -> cls:string -> kind:kind -> bytes:int -> unit
(** Record one allocation at site [(mid, bci)] of class [cls]. Use
    [mid = -1] / [bci = -1] when the site is unknown. *)

(** {1 Readout} *)

val fold :
  (mid:int ->
  bci:int ->
  cls:string ->
  kind:kind ->
  count:int ->
  bytes:int ->
  'a ->
  'a) ->
  t ->
  'a ->
  'a
(** Iterate sites in a deterministic (sorted) order. *)

val by_class : t -> (string * int * int) list
(** Per-class [(class, count, bytes)] over the kinds charged to
    [Stats.allocations] ([K_alloc], [K_remat], [K_promote]), bytes
    descending, ties broken by class name. Arrays appear as ["int[]"],
    ["Object[]"], etc. The paper's §6.1 observation — allocations that
    survive PEA are dominated by arrays — is directly visible here. *)
