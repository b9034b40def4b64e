(* Benchmark harness: runs one synthetic workload row under a given
   optimization configuration and reports the Table-1 metrics.

   Protocol (mirrors §6 of the paper, scaled down): warm the workload up
   until all hot methods are compiled, then measure a fixed number of
   benchmark iterations. "Iterations per minute" is derived from the
   deterministic cycle count, with the virtual machine clocked at 1 GHz:
   iterations/minute = 60e9 / cycles-per-iteration. *)

open Pea_bytecode
open Pea_rt
open Pea_vm

type measurement = {
  m_mb_per_iter : float;
  m_mallocs_per_iter : float; (* millions of allocations *)
  m_allocs_per_iter : float;
  m_iters_per_min : float;
  m_monitor_ops_per_iter : float;
  m_cycles_per_iter : float;
  m_deopts : int;
}

let clock_hz = 1e9

let default_warmup = 2

let default_measure = 3

let steady_state ?(warmup = default_warmup) ?(measure = default_measure) ~config src =
  let vm = Vm.create ~config (Link.compile_source src) in
  ignore (Vm.run_main_iterations vm warmup);
  let before = Stats.snapshot (Vm.stats vm) in
  let r = Vm.run_main_iterations vm measure in
  (r, Stats.diff r.Vm.stats before)

let measure_program ?warmup ?(measure = default_measure) src opt : measurement =
  let config = { Jit.default_config with Jit.opt; compile_threshold = 2 } in
  let _, w = steady_state ?warmup ~measure ~config src in
  let per_iter n = float_of_int n /. float_of_int measure in
  let cycles_per_iter = per_iter w.Stats.s_cycles in
  {
    m_mb_per_iter = per_iter w.Stats.s_allocated_bytes /. 1048576.;
    m_mallocs_per_iter = per_iter w.Stats.s_allocations /. 1e6;
    m_allocs_per_iter = per_iter w.Stats.s_allocations;
    m_iters_per_min = (if cycles_per_iter > 0. then 60. *. clock_hz /. cycles_per_iter else 0.);
    m_monitor_ops_per_iter = per_iter w.Stats.s_monitor_ops;
    m_cycles_per_iter = cycles_per_iter;
    m_deopts = w.Stats.s_deopts;
  }

type row_result = {
  rr_row : Spec.row;
  rr_without : measurement; (* no escape analysis *)
  rr_with_ea : measurement; (* whole-method EA (§6.2 comparison) *)
  rr_with_pea : measurement;
}

let run_row ?warmup ?measure (row : Spec.row) : row_result =
  let src = Codegen.source_for_row row in
  {
    rr_row = row;
    rr_without = measure_program ?warmup ?measure src Jit.O_none;
    rr_with_ea = measure_program ?warmup ?measure src Jit.O_ea;
    rr_with_pea = measure_program ?warmup ?measure src Jit.O_pea;
  }

let pct_change ~without ~with_ =
  if without = 0. then 0. else 100. *. (with_ -. without) /. without

(* Changes under PEA relative to the no-EA baseline, as percentages
   matching the columns of Table 1. *)
type row_changes = {
  c_bytes_pct : float;
  c_allocs_pct : float;
  c_speedup_pct : float;
  c_locks_pct : float;
}

let changes_of ~(without : measurement) ~(with_ : measurement) =
  {
    c_bytes_pct = pct_change ~without:without.m_mb_per_iter ~with_:with_.m_mb_per_iter;
    c_allocs_pct = pct_change ~without:without.m_allocs_per_iter ~with_:with_.m_allocs_per_iter;
    c_speedup_pct = pct_change ~without:without.m_iters_per_min ~with_:with_.m_iters_per_min;
    c_locks_pct =
      pct_change ~without:without.m_monitor_ops_per_iter ~with_:with_.m_monitor_ops_per_iter;
  }

let pea_changes rr = changes_of ~without:rr.rr_without ~with_:rr.rr_with_pea

let ea_changes rr = changes_of ~without:rr.rr_without ~with_:rr.rr_with_ea
