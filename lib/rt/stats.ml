(* Runtime statistics. These are the quantities Table 1 of the paper
   reports: number of allocations, allocated bytes, monitor operations, and
   a deterministic cycle count that stands in for wall-clock time.

   An instance is a flat int array of counters plus one count/sum/min/max
   cell per histogram. Adding a metric is one declaration line here:
   [create], [dump] and the --stats lines follow for free. *)

type counter = int

type histogram = int

(* The declared names, newest first. A handle is its metric's slot in
   its kind's storage. Every declaration runs at module initialization,
   so every instance has room for every metric. *)
let counter_names_rev = ref []

let histogram_names_rev = ref []

let declare names name =
  let id = List.length !names in
  names := name :: !names;
  id

let counter name = declare counter_names_rev name

let histogram name = declare histogram_names_rev name

(* Declaration order is dump order, the order --stats prints: counters,
   then histograms. *)
let allocations = counter "allocations"

let allocated_bytes = counter "allocated_bytes"

let monitor_ops = counter "monitor_ops"

(* scratch allocations from summary-backed PEA, plus frame-bounded stack
   allocations from the stack tier *)
let stack_allocs = counter "stack_allocs"

(* stack-region objects reclaimed in O(1) at frame pop *)
let stack_reclaimed = counter "stack_reclaimed"

(* stack-region objects promoted to heap during deopt rematerialization *)
let stack_promotions = counter "stack_promotions"

let cycles = counter "cycles"

let deopts = counter "deopts"

(* virtual objects re-allocated during deopt *)
let rematerialized = counter "rematerialized"

let interpreted_instrs = counter "interpreted_instrs"

let compiled_ops = counter "compiled_ops"

let invocations = counter "invocations"

let compiled_methods = counter "compiled_methods"

let closure_compiled_methods = counter "closure_compiled_methods"

let ic_hits = counter "ic_hits"

let ic_misses = counter "ic_misses"

(* OSR graphs compiled (one per hot loop header) *)
let osr_compiles = counter "osr_compiles"

(* interpreter frames that transferred into OSR-compiled code *)
let osr_entries = counter "osr_entries"

(* deopt sites excluded from further speculation (per-site policy) *)
let site_blacklists = counter "site_blacklists"

(* virtual calls spliced behind a receiver-class guard *)
let speculative_inlines = counter "speculative_inlines"

(* receiver-class guards that missed at runtime *)
let guard_deopts = counter "guard_deopts"

(* speculation sites the inliner skipped because of the deopt blacklist *)
let inline_blacklist_skips = counter "inline_blacklist_skips"

(* the serving layer's background-compile queue (lib/serve) *)
let compile_enqueues = counter "compile_enqueues"

let compile_dedup_hits = counter "compile_dedup_hits"

(* requests refused by a full queue; the tenant asks again later *)
let compile_drops = counter "compile_drops"

let compile_installs = counter "compile_installs"

(* queued compiles that raised; the key is never compiled again *)
let compile_failures = counter "compile_failures"

(* mutator cycles stalled waiting for the VM's inline compilation *)
let compile_stall_cycles = counter "compile_stall_cycles"

(* multi-tenant serving harness (lib/serve): requests completed across
   all tenants of a server run *)
let serve_requests = counter "serve_requests"

(* compiled graphs adopted from the shared cross-tenant code cache
   instead of being compiled again *)
let cache_shared_hits = counter "cache_shared_hits"

(* shared-cache installs refused because a deopt moved the (app, method)
   epoch while the compile was in flight — the stale graph is never
   installed, the work is requeued against fresh snapshots *)
let cache_epoch_rejects = counter "cache_epoch_rejects"

(* tenants demoted to interpreter-only serving (deopt-storm pinning or a
   failing compile); quarantine never evicts other tenants' cache entries *)
let tenant_quarantines = counter "tenant_quarantines"

(* distribution of rematerialized objects per deopt event *)
let remat_per_deopt = histogram "remat_per_deopt"

(* distribution of optimized-graph sizes at the end of JIT compilation *)
let compiled_graph_nodes = histogram "compiled_graph_nodes"

(* queue depth observed after each background-compile enqueue *)
let compile_queue_depth = histogram "compile_queue_depth"

(* modeled compile latency (serving rounds between enqueue and install) *)
let compile_latency = histogram "compile_latency"

let counter_names = List.rev !counter_names_rev

let histogram_names = List.rev !histogram_names_rev

(* mutable histogram cell; [h_min]/[h_max] are meaningless while
   [h_count] is zero *)
type hist = {
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
}

type t = {
  counters : int array;
  cells : (int array * int) array; (* counter -> (counters, counter), see [cell] *)
  hists : hist array;
}

let create () =
  let counters = Array.make (List.length counter_names) 0 in
  {
    counters;
    cells = Array.init (Array.length counters) (fun c -> (counters, c));
    hists =
      Array.init (List.length histogram_names) (fun _ ->
          { h_count = 0; h_sum = 0; h_min = 0; h_max = 0 });
  }

let get t c = t.counters.(c)

let add t c v = t.counters.(c) <- t.counters.(c) + v

let incr t c = add t c 1

let cell t c = t.cells.(c)

let observe t id v =
  let h = t.hists.(id) in
  if h.h_count = 0 then begin
    h.h_min <- v;
    h.h_max <- v
  end
  else begin
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v
  end;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v

let dump t =
  List.mapi (fun c name -> Printf.sprintf "%s: %d" name t.counters.(c)) counter_names
  @ List.mapi
      (fun id name ->
        let h = t.hists.(id) in
        Printf.sprintf "%s: n=%d sum=%d min=%d max=%d" name h.h_count h.h_sum h.h_min h.h_max)
      histogram_names

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
