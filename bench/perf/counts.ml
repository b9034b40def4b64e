(* Model counters of traced operations: per-operation runtime counts
   recorded into the trace, and the totals behind the VM's ratios. *)

open Pea_rt

type t = {
  mutable compiled_ops : int;
  mutable interpreted : int;
  mutable ic_hits : int;
  mutable ic_lookups : int;
  mutable shared_hits : int;
  mutable enqueues : int;
}

let create () =
  { compiled_ops = 0; interpreted = 0; ic_hits = 0; ic_lookups = 0; shared_hits = 0; enqueues = 0 }

(* [record tr ~op t d] counts the runtime work [d] (a statistics delta)
   of operation [op]. *)
let record tr ~op t (d : Stats.snapshot) =
  let c name v = Span.count tr name ~op (float_of_int v) in
  c "rt.stack_allocs" d.Stats.s_stack_allocs;
  c "rt.deopts" d.Stats.s_deopts;
  c "rt.monitor_ops" d.Stats.s_monitor_ops;
  c "rt.rematerialized" d.Stats.s_rematerialized;
  t.compiled_ops <- t.compiled_ops + d.Stats.s_compiled_ops;
  t.interpreted <- t.interpreted + d.Stats.s_interpreted_instrs;
  t.ic_hits <- t.ic_hits + d.Stats.s_ic_hits;
  t.ic_lookups <- t.ic_lookups + d.Stats.s_ic_hits + d.Stats.s_ic_misses

(* [record_server tr ~op t s] counts the serving layer's work [s] (a
   server's own statistics) in operation [op]. *)
let record_server tr ~op t (s : Stats.snapshot) =
  let c name v = Span.count tr name ~op (float_of_int v) in
  c "serve.epoch_rejects" s.Stats.s_cache_epoch_rejects;
  c "serve.compile_enqueues" s.Stats.s_compile_enqueues;
  c "serve.compile_installs" s.Stats.s_compile_installs;
  c "serve.dedup_hits" s.Stats.s_compile_dedup_hits;
  c "serve.quarantines" s.Stats.s_tenant_quarantines;
  t.shared_hits <- t.shared_hits + s.Stats.s_cache_shared_hits;
  t.enqueues <- t.enqueues + s.Stats.s_compile_enqueues

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let ratios t =
  [
    ("vm.compiled_op_share", ratio t.compiled_ops (t.compiled_ops + t.interpreted));
    ("vm.ic_hit_ratio", ratio t.ic_hits t.ic_lookups);
    ("serve.shared_hit_ratio", ratio t.shared_hits (t.shared_hits + t.enqueues));
  ]
