(** Runtime statistics — the quantities Table 1 of the paper reports:
    number of allocations, allocated bytes, monitor operations, and a
    deterministic cycle count that stands in for wall-clock time.

    An instance stores its own counters (a flat int array) and one
    count/sum/min/max cell per histogram. Each counter below is a
    handle, mutated with [incr]/[add] and read with [get]; each
    histogram is fed with [observe]. Adding a metric is one declaration
    line in the implementation, and [dump] prints it. Counters and
    histograms have distinct handle types, so passing one where the
    other is expected is a type error. *)

type t

type counter

type histogram

val allocations : counter

val allocated_bytes : counter

val monitor_ops : counter
(** Monitor enter/exit operations actually performed. *)

val stack_allocs : counter
(** Stack (uncharged) allocations: scratch objects emitted when an
    interprocedural summary lets PEA pass a virtual object to a
    non-inlined callee, plus frame-bounded materializations placed in a
    frame's stack region. *)

val stack_reclaimed : counter
(** Stack-region objects reclaimed in O(1) at frame pop
    (return/throw/deopt). *)

val stack_promotions : counter
(** Stack-region objects promoted to the heap during deoptimization
    rematerialization — each promotion charges a real allocation. *)

val cycles : counter
(** Cost-model cycles, see {!Cost}. *)

val deopts : counter

val rematerialized : counter
(** Virtual objects re-allocated during deopt. *)

val interpreted_instrs : counter

val compiled_ops : counter

val invocations : counter

val compiled_methods : counter

val closure_compiled_methods : counter
(** Methods translated to the closure execution tier. *)

val ic_hits : counter
(** Closure-tier inline-cache fast-path dispatches (wall-clock-only
    accounting: inline caches charge no cost-model cycles). *)

val ic_misses : counter

val osr_compiles : counter
(** OSR graphs compiled — one per hot loop header that tiered up. *)

val osr_entries : counter
(** Interpreter frames that transferred into OSR-compiled code at a loop
    back edge. *)

val site_blacklists : counter
(** Deopt sites excluded from further speculation by the per-site
    recompilation policy. *)

val speculative_inlines : counter
(** Virtual call sites spliced behind a receiver-class guard, summed over
    installed compilations. *)

val guard_deopts : counter
(** Receiver-class guards that missed at runtime (subset of [deopts]). *)

val inline_blacklist_skips : counter
(** Speculation sites the inliner declined because the deopt blacklist
    already holds their (method, bci) key. *)

val compile_enqueues : counter
(** Compile requests accepted by the serving layer's compile queue. *)

val compile_dedup_hits : counter
(** Requests coalesced into an already-queued [(method, osr)] task. *)

val compile_drops : counter
(** Requests refused by a full queue; the tenant asks again at its next
    hot invocation. *)

val compile_installs : counter
(** Finished background compilations installed in the shared code cache. *)

val compile_failures : counter
(** Queued compiles that raised; the key is never compiled again. *)

val compile_stall_cycles : counter
(** Mutator cycles stalled in the VM's inline compilation: each compile
    charges its modeled latency ({!Cost.compile_latency}) here, never to
    [cycles]; [cycles + compile_stall_cycles] is the time to steady
    state. *)

val serve_requests : counter
(** Requests completed across all tenants of a serving-harness run. *)

val cache_shared_hits : counter
(** Compiled graphs adopted from the shared cross-tenant code cache. *)

val cache_epoch_rejects : counter
(** Shared-cache installs refused because a deopt moved the
    (app, method) epoch while the compile was in flight. *)

val tenant_quarantines : counter
(** Tenants demoted to interpreter-only serving (deopt storm or a
    failing compile). *)

val remat_per_deopt : histogram
(** Histogram: rematerialized objects per deopt event. *)

val compiled_graph_nodes : histogram
(** Histogram: optimized-graph size at the end of each compilation. *)

val compile_queue_depth : histogram
(** Histogram: queue depth observed after each background enqueue. *)

val compile_latency : histogram
(** Histogram: serving rounds between a task's enqueue and its install. *)

(** [create ()] is a zeroed statistics instance. *)
val create : unit -> t

val get : t -> counter -> int

val add : t -> counter -> int -> unit

val incr : t -> counter -> unit

val cell : t -> counter -> int array * int
(** [cell t c] is the storage of counter [c] in [t]: an array and the
    index of [c]'s slot in it. The array is [t]'s own, so writes through
    it are writes to the counter. The pair is built when [t] is created,
    so [cell] allocates nothing. The closure tier resolves
    [compiled_ops] and [cycles] once per translation, the interpreter
    [interpreted_instrs] and [cycles] once per frame, and the VM
    [invocations] once, and each bumps them without a call. *)

val observe : t -> histogram -> int -> unit
(** Record one histogram observation. *)

val dump : t -> string list
(** Every metric as one line, declaration order (counters, then
    histograms): [name: value] for a counter, [name: n=N sum=S min=A
    max=B] for a histogram ([min] and [max] are 0 while [n] is 0). These
    are the lines [mjvm run --stats] and [mjvm serve --stats] print. *)

(** An immutable copy of the counters at one instant. *)
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
