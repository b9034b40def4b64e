(* Runtime statistics. These are the quantities Table 1 of the paper
   reports: number of allocations, allocated bytes, monitor operations, and
   a deterministic cycle count that stands in for wall-clock time.

   The storage is a Pea_obs.Metrics registry instance: adding a counter is
   one [Metrics.counter] line here, and reset and dump follow for free.
   [snapshot]/[diff] are kept as thin shims over the registry. *)

module Metrics = Pea_obs.Metrics

type t = Metrics.t

type counter = Metrics.counter

type histogram = Metrics.histogram

let schema = Metrics.make_schema ()

(* Declaration order is dump order, the order --stats prints. *)
let allocations = Metrics.counter schema "allocations"

let allocated_bytes = Metrics.counter schema "allocated_bytes"

let monitor_ops = Metrics.counter schema "monitor_ops"

(* scratch allocations from summary-backed PEA, plus frame-bounded stack
   allocations from the stack tier *)
let stack_allocs = Metrics.counter schema "stack_allocs"

(* stack-region objects reclaimed in O(1) at frame pop *)
let stack_reclaimed = Metrics.counter schema "stack_reclaimed"

(* stack-region objects promoted to heap during deopt rematerialization *)
let stack_promotions = Metrics.counter schema "stack_promotions"

let cycles = Metrics.counter schema "cycles"

let deopts = Metrics.counter schema "deopts"

(* virtual objects re-allocated during deopt *)
let rematerialized = Metrics.counter schema "rematerialized"

let interpreted_instrs = Metrics.counter schema "interpreted_instrs"

let compiled_ops = Metrics.counter schema "compiled_ops"

let invocations = Metrics.counter schema "invocations"

let compiled_methods = Metrics.counter schema "compiled_methods"

let closure_compiled_methods = Metrics.counter schema "closure_compiled_methods"

let ic_hits = Metrics.counter schema "ic_hits"

let ic_misses = Metrics.counter schema "ic_misses"

(* OSR graphs compiled (one per hot loop header) *)
let osr_compiles = Metrics.counter schema "osr_compiles"

(* interpreter frames that transferred into OSR-compiled code *)
let osr_entries = Metrics.counter schema "osr_entries"

(* deopt sites excluded from further speculation (per-site policy) *)
let site_blacklists = Metrics.counter schema "site_blacklists"

(* virtual calls spliced behind a receiver-class guard *)
let speculative_inlines = Metrics.counter schema "speculative_inlines"

(* receiver-class guards that missed at runtime *)
let guard_deopts = Metrics.counter schema "guard_deopts"

(* speculation sites the inliner skipped because of the deopt blacklist *)
let inline_blacklist_skips = Metrics.counter schema "inline_blacklist_skips"

(* the serving layer's background-compile queue (lib/serve) *)
let compile_enqueues = Metrics.counter schema "compile_enqueues"

let compile_dedup_hits = Metrics.counter schema "compile_dedup_hits"

(* requests refused by a full queue; the tenant asks again later *)
let compile_drops = Metrics.counter schema "compile_drops"

let compile_installs = Metrics.counter schema "compile_installs"

(* queued compiles that raised; the key is never compiled again *)
let compile_failures = Metrics.counter schema "compile_failures"

(* mutator cycles stalled waiting for the VM's inline compilation *)
let compile_stall_cycles = Metrics.counter schema "compile_stall_cycles"

(* multi-tenant serving harness (lib/serve): requests completed across
   all tenants of a server run *)
let serve_requests = Metrics.counter schema "serve_requests"

(* compiled graphs adopted from the shared cross-tenant code cache
   instead of being compiled again *)
let cache_shared_hits = Metrics.counter schema "cache_shared_hits"

(* shared-cache installs refused because a deopt moved the (app, method)
   epoch while the compile was in flight — the stale graph is never
   installed, the work is requeued against fresh snapshots *)
let cache_epoch_rejects = Metrics.counter schema "cache_epoch_rejects"

(* tenants demoted to interpreter-only serving (deopt-storm pinning or a
   failing compile); quarantine never evicts other tenants' cache entries *)
let tenant_quarantines = Metrics.counter schema "tenant_quarantines"

(* distribution of rematerialized objects per deopt event *)
let remat_per_deopt = Metrics.histogram schema "remat_per_deopt"

(* distribution of optimized-graph sizes at the end of JIT compilation *)
let compiled_graph_nodes = Metrics.histogram schema "compiled_graph_nodes"

(* queue depth observed after each background-compile enqueue *)
let compile_queue_depth = Metrics.histogram schema "compile_queue_depth"

(* modeled compile latency (serving rounds between enqueue and install) *)
let compile_latency = Metrics.histogram schema "compile_latency"

let create () = Metrics.create schema

let reset = Metrics.reset

let get = Metrics.get

let set = Metrics.set

let add = Metrics.add

let incr = Metrics.incr

let cell = Metrics.cell

let observe = Metrics.observe

let dump = Metrics.dump

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

let snapshot t =
  {
    s_allocations = get t allocations;
    s_allocated_bytes = get t allocated_bytes;
    s_monitor_ops = get t monitor_ops;
    s_stack_allocs = get t stack_allocs;
    s_stack_reclaimed = get t stack_reclaimed;
    s_stack_promotions = get t stack_promotions;
    s_cycles = get t cycles;
    s_deopts = get t deopts;
    s_rematerialized = get t rematerialized;
    s_interpreted_instrs = get t interpreted_instrs;
    s_compiled_ops = get t compiled_ops;
    s_invocations = get t invocations;
    s_compiled_methods = get t compiled_methods;
    s_closure_compiled_methods = get t closure_compiled_methods;
    s_ic_hits = get t ic_hits;
    s_ic_misses = get t ic_misses;
    s_osr_compiles = get t osr_compiles;
    s_osr_entries = get t osr_entries;
    s_site_blacklists = get t site_blacklists;
    s_speculative_inlines = get t speculative_inlines;
    s_guard_deopts = get t guard_deopts;
    s_inline_blacklist_skips = get t inline_blacklist_skips;
    s_compile_enqueues = get t compile_enqueues;
    s_compile_dedup_hits = get t compile_dedup_hits;
    s_compile_drops = get t compile_drops;
    s_compile_installs = get t compile_installs;
    s_compile_failures = get t compile_failures;
    s_compile_stall_cycles = get t compile_stall_cycles;
    s_serve_requests = get t serve_requests;
    s_cache_shared_hits = get t cache_shared_hits;
    s_cache_epoch_rejects = get t cache_epoch_rejects;
    s_tenant_quarantines = get t tenant_quarantines;
  }

(* [diff later earlier] — the activity between two snapshots. *)
let diff a b =
  {
    s_allocations = a.s_allocations - b.s_allocations;
    s_allocated_bytes = a.s_allocated_bytes - b.s_allocated_bytes;
    s_monitor_ops = a.s_monitor_ops - b.s_monitor_ops;
    s_stack_allocs = a.s_stack_allocs - b.s_stack_allocs;
    s_stack_reclaimed = a.s_stack_reclaimed - b.s_stack_reclaimed;
    s_stack_promotions = a.s_stack_promotions - b.s_stack_promotions;
    s_cycles = a.s_cycles - b.s_cycles;
    s_deopts = a.s_deopts - b.s_deopts;
    s_rematerialized = a.s_rematerialized - b.s_rematerialized;
    s_interpreted_instrs = a.s_interpreted_instrs - b.s_interpreted_instrs;
    s_compiled_ops = a.s_compiled_ops - b.s_compiled_ops;
    s_invocations = a.s_invocations - b.s_invocations;
    s_compiled_methods = a.s_compiled_methods - b.s_compiled_methods;
    s_closure_compiled_methods = a.s_closure_compiled_methods - b.s_closure_compiled_methods;
    s_ic_hits = a.s_ic_hits - b.s_ic_hits;
    s_ic_misses = a.s_ic_misses - b.s_ic_misses;
    s_osr_compiles = a.s_osr_compiles - b.s_osr_compiles;
    s_osr_entries = a.s_osr_entries - b.s_osr_entries;
    s_site_blacklists = a.s_site_blacklists - b.s_site_blacklists;
    s_speculative_inlines = a.s_speculative_inlines - b.s_speculative_inlines;
    s_guard_deopts = a.s_guard_deopts - b.s_guard_deopts;
    s_inline_blacklist_skips = a.s_inline_blacklist_skips - b.s_inline_blacklist_skips;
    s_compile_enqueues = a.s_compile_enqueues - b.s_compile_enqueues;
    s_compile_dedup_hits = a.s_compile_dedup_hits - b.s_compile_dedup_hits;
    s_compile_drops = a.s_compile_drops - b.s_compile_drops;
    s_compile_installs = a.s_compile_installs - b.s_compile_installs;
    s_compile_failures = a.s_compile_failures - b.s_compile_failures;
    s_compile_stall_cycles = a.s_compile_stall_cycles - b.s_compile_stall_cycles;
    s_serve_requests = a.s_serve_requests - b.s_serve_requests;
    s_cache_shared_hits = a.s_cache_shared_hits - b.s_cache_shared_hits;
    s_cache_epoch_rejects = a.s_cache_epoch_rejects - b.s_cache_epoch_rejects;
    s_tenant_quarantines = a.s_tenant_quarantines - b.s_tenant_quarantines;
  }
