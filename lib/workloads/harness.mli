(** Benchmark harness: runs one synthetic workload row under a given
    optimization configuration and reports the Table-1 metrics.

    Protocol (mirrors §6 of the paper, scaled down): warm the workload up
    until all hot methods are compiled, then measure a fixed number of
    benchmark iterations. "Iterations per minute" derives from the
    deterministic cycle count with the virtual machine clocked at 1 GHz. *)

type measurement = {
  m_mb_per_iter : float;
  m_mallocs_per_iter : float; (* millions of allocations *)
  m_allocs_per_iter : float;
  m_iters_per_min : float;
  m_monitor_ops_per_iter : float;
  m_cycles_per_iter : float;
  m_deopts : int;
}

(** The virtual clock rate used for iterations/minute (1 GHz). *)
val clock_hz : float

val default_warmup : int

val default_measure : int

(** [steady_state ~config src] is the one steady-state protocol: on a
    fresh VM it runs [main] [warmup] times, snapshots the counters and
    runs it [measure] more times. It returns the last result and the
    counter deltas of the measured window, before any division. *)
val steady_state :
  ?warmup:int -> ?measure:int -> config:Pea_vm.Jit.config -> string ->
  Pea_vm.Vm.result * Pea_rt.Stats.snapshot

(** [measure_program src opt] compiles, warms and measures one workload
    program under optimization level [opt]. *)
val measure_program :
  ?warmup:int ->
  ?measure:int ->
  string ->
  Pea_vm.Jit.opt_level ->
  measurement

type row_result = {
  rr_row : Spec.row;
  rr_without : measurement; (* no escape analysis *)
  rr_with_ea : measurement; (* whole-method EA (§6.2 comparison) *)
  rr_with_pea : measurement;
}

(** [run_row row] measures the generated workload of [row] under all three
    configurations. *)
val run_row : ?warmup:int -> ?measure:int -> Spec.row -> row_result

(** [pct_change ~without ~with_] is the percentage change. *)
val pct_change : without:float -> with_:float -> float

type row_changes = {
  c_bytes_pct : float;
  c_allocs_pct : float;
  c_speedup_pct : float;
  c_locks_pct : float;
}

val changes_of : without:measurement -> with_:measurement -> row_changes

(** Changes of the PEA configuration relative to no-EA. *)
val pea_changes : row_result -> row_changes

(** Changes of the whole-method-EA configuration relative to no-EA. *)
val ea_changes : row_result -> row_changes
