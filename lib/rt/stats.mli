(** Runtime statistics — the quantities Table 1 of the paper reports:
    number of allocations, allocated bytes, monitor operations, and a
    deterministic cycle count that stands in for wall-clock time.

    Backed by a {!Pea_obs.Metrics} registry: each counter below is a
    metric handle into a shared schema, mutated with [incr]/[add]/[set]
    and read with [get]. Adding a counter is one declaration line in the
    implementation; [snapshot]/[diff]/[pp] stay as thin shims so callers
    and the [--stats] output are unchanged. *)

module Metrics = Pea_obs.Metrics

type t = Metrics.t

type metric = Metrics.metric

val schema : Metrics.schema

val allocations : metric

val allocated_bytes : metric

val monitor_ops : metric
(** Monitor enter/exit operations actually performed. *)

val stack_allocs : metric
(** Stack (uncharged) allocations: scratch objects emitted when an
    interprocedural summary lets PEA pass a virtual object to a
    non-inlined callee, plus frame-bounded materializations placed in a
    frame's stack region. *)

val stack_reclaimed : metric
(** Stack-region objects reclaimed in O(1) at frame pop
    (return/throw/deopt). *)

val stack_promotions : metric
(** Stack-region objects promoted to the heap during deoptimization
    rematerialization — each promotion charges a real allocation. *)

val cycles : metric
(** Cost-model cycles, see {!Cost}. *)

val deopts : metric

val rematerialized : metric
(** Virtual objects re-allocated during deopt. *)

val interpreted_instrs : metric

val compiled_ops : metric

val invocations : metric

val compiled_methods : metric

val closure_compiled_methods : metric
(** Methods translated to the closure execution tier. *)

val ic_hits : metric
(** Closure-tier inline-cache fast-path dispatches (wall-clock-only
    accounting: inline caches charge no cost-model cycles). *)

val ic_misses : metric

val osr_compiles : metric
(** OSR graphs compiled — one per hot loop header that tiered up. *)

val osr_entries : metric
(** Interpreter frames that transferred into OSR-compiled code at a loop
    back edge. *)

val site_blacklists : metric
(** Deopt sites excluded from further speculation by the per-site
    recompilation policy. *)

val speculative_inlines : metric
(** Virtual call sites spliced behind a receiver-class guard, summed over
    installed compilations. *)

val guard_deopts : metric
(** Receiver-class guards that missed at runtime (subset of [deopts]). *)

val inline_blacklist_skips : metric
(** Speculation sites the inliner declined because the deopt blacklist
    already holds their (method, bci) key. *)

val compile_enqueues : metric
(** Compile requests accepted by the background queue (async/replay). *)

val compile_dedup_hits : metric
(** Requests coalesced into an already-queued [(method, osr)] task. *)

val compile_drops : metric
(** Requests refused by a full queue (drop-and-reprofile backpressure). *)

val compile_installs : metric
(** Finished background compilations installed at a safepoint. *)

val compile_stale_discards : metric
(** Finished compilations discarded because the method's epoch moved
    (a deopt invalidated its speculation basis while it compiled). *)

val compile_failures : metric
(** Compiler-domain failures; the method stays interpreted for good. *)

val compile_stall_cycles : metric
(** Mutator cycles stalled in synchronous compilation. Async and replay
    modes never charge it; [cycles + compile_stall_cycles] is a mode's
    time-to-steady-state. *)

val serve_requests : metric
(** Requests completed across all tenants of a serving-harness run. *)

val cache_shared_hits : metric
(** Compiled graphs adopted from the shared cross-tenant code cache. *)

val cache_epoch_rejects : metric
(** Shared-cache installs refused because a deopt moved the
    (app, method) epoch while the compile was in flight. *)

val tenant_quarantines : metric
(** Tenants demoted to interpreter-only serving (deopt storm or a
    failing compile). *)

val remat_per_deopt : metric
(** Histogram: rematerialized objects per deopt event. *)

val compiled_graph_nodes : metric
(** Histogram: optimized-graph size at the end of each compilation. *)

val compile_queue_depth : metric
(** Histogram: queue depth observed after each background enqueue. *)

val compile_latency : metric
(** Histogram: modeled cycles between a task's enqueue and its install. *)

(** [create ()] is a zeroed statistics instance. *)
val create : unit -> t

(** [reset t] zeroes every metric in place. *)
val reset : t -> unit

val get : t -> metric -> int

val set : t -> metric -> int -> unit

val add : t -> metric -> int -> unit

val incr : t -> metric -> unit

val observe : t -> metric -> int -> unit
(** Record one histogram observation. *)

val dump : t -> (string * Metrics.value) list
(** Every registered metric with its current value, declaration order. *)

val to_json : t -> string

(** An immutable copy of the legacy counters at one instant. *)
type snapshot = {
  s_allocations : int;
  s_allocated_bytes : int;
  s_monitor_ops : int;
  s_stack_allocs : int;
  s_stack_reclaimed : int;
  s_stack_promotions : int;
  s_cycles : int;
  s_deopts : int;
  s_rematerialized : int;
  s_interpreted_instrs : int;
  s_compiled_ops : int;
  s_invocations : int;
  s_compiled_methods : int;
  s_closure_compiled_methods : int;
  s_ic_hits : int;
  s_ic_misses : int;
  s_osr_compiles : int;
  s_osr_entries : int;
  s_site_blacklists : int;
  s_speculative_inlines : int;
  s_guard_deopts : int;
  s_inline_blacklist_skips : int;
  s_compile_enqueues : int;
  s_compile_dedup_hits : int;
  s_compile_drops : int;
  s_compile_installs : int;
  s_compile_stale_discards : int;
  s_compile_failures : int;
  s_compile_stall_cycles : int;
  s_serve_requests : int;
  s_cache_shared_hits : int;
  s_cache_epoch_rejects : int;
  s_tenant_quarantines : int;
}

val snapshot : t -> snapshot

(** [diff later earlier] is the activity between two snapshots. *)
val diff : snapshot -> snapshot -> snapshot

val pp : Format.formatter -> t -> unit
