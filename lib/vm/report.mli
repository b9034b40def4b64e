(** [mjvm report]: aggregate the sampling profile, the allocation-site
    heap profile, PEA site provenance and flight-recorder dumps into
    deterministic human-readable and JSON reports. *)

module Pcpu = Pea_obs.Profile_cpu
module Pheap = Pea_obs.Profile_heap
module Flight = Pea_obs.Flight

type method_row = {
  mr_name : string;
  mr_tier : string;  (** tier of the sampled leaf frames *)
  mr_self : int;  (** sample weight with this (method, tier) at the leaf *)
  mr_total : int;  (** sample weight with it anywhere on the stack *)
}

type alloc_row = {
  ar_method : string;
  ar_bci : int;
  ar_cls : string;
  ar_kind : string;  (** alloc | scratch | stack | remat | promote *)
  ar_count : int;
  ar_bytes : int;
  ar_pea : string option;  (** what PEA decided about this site, if known *)
}

type t = {
  rp_interval : int;  (** cycles per sample; 0 when no cpu profile *)
  rp_total : int;  (** total sample weight *)
  rp_methods : method_row list;  (** sorted by self weight desc *)
  rp_tiers : (string * int) list;  (** leaf-tier residency *)
  rp_allocs : alloc_row list;  (** sorted by count desc *)
  rp_stacks : (string * int) list;  (** collapsed stacks, sorted *)
}

val collect :
  program:Pea_bytecode.Link.program ->
  ?cpu:Pcpu.t ->
  ?heap:Pheap.t ->
  ?pea_sites:Pea_core.Pea.site_report list ->
  unit ->
  t
(** Aggregate profiler state into a report. [pea_sites] (typically the
    VM's accumulated [jit_stats.sites]) annotates allocation rows with
    the compiler's per-site decision. *)

val profile :
  ?interval:int ->
  config:Jit.config ->
  iterations:int ->
  Pea_bytecode.Link.program ->
  Vm.t * Pcpu.t * Pheap.t
(** [profile ~config ~iterations program] runs [main] [iterations] times
    on one new VM under fresh CPU ([interval] cycles per sample, default
    {!Pcpu.default_interval}) and heap profilers handed to that VM, and
    returns the VM and both profiles. *)

val method_name : Pea_bytecode.Link.program -> int -> string
(** Qualified name of a [mth_id]; ["<unknown>"] outside the program. *)

val to_string : ?top:int -> t -> string
(** Human-readable report; [top] (default 10) caps the method and
    allocation lists. Byte-deterministic for a deterministic profile. *)

val to_json : ?top:int -> t -> string
(** One-line JSON object; [top] defaults to unlimited. *)

val collapsed : t -> string
(** Only the collapsed stacks, one ["frame;frame;@bci count\n"] line per
    distinct stack — flamegraph-tool input. *)

(** {1 Flight dumps} *)

val flight_to_string : Flight.dump -> string

val flight_to_json : Flight.dump -> string
