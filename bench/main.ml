(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6) on the synthetic workload suite, plus Bechamel
   wall-clock microbenchmarks of the analysis itself.

   Sections:
     1. Table 1, DaCapo block       (MB/iter, MAllocs/iter, iters/min)
     2. Table 1, ScalaDaCapo block
     3. Table 1, SPECjbb2005 row
     4. §6.1 "Number of Locks"      (monitor-operation reductions)
     5. §6.2 comparison             (whole-method EA vs PEA, per suite)
     6. Figure 4 micro-patterns     (per-pattern optimization effects)
     7. Bechamel wall-clock benches (one Test.make per table)

   Absolute numbers are not comparable with the paper (the substrate is a
   deterministic simulator, see DESIGN.md); the reproduced quantity is the
   per-row relative change and the ordering between configurations. *)

open Pea_workloads

let line = String.make 110 '-'

let header title = Printf.printf "\n%s\n%s\n%s\n%!" line title line

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let print_table_header () =
  Printf.printf "%-14s | %8s %8s %8s | %8s %8s %8s | %9s %9s %8s | %8s\n" "benchmark" "MB/it"
    "MB/it" "delta" "kAll/it" "kAll/it" "delta" "it/min" "it/min" "delta" "paper";
  Printf.printf "%-14s | %8s %8s %8s | %8s %8s %8s | %9s %9s %8s | %8s\n" "" "without" "with" ""
    "without" "with" "" "without" "with" "" "allocs"

let run_suite suite rows =
  header
    (Printf.sprintf "Table 1 — %s (without vs. with Partial Escape Analysis)"
       (Spec.suite_name suite));
  print_table_header ();
  let results =
    List.map
      (fun (row : Spec.row) ->
        let rr = Harness.run_row row in
        let c = Harness.pea_changes rr in
        Printf.printf
          "%-14s | %8.3f %8.3f %+7.1f%% | %8.1f %8.1f %+7.1f%% | %9.0f %9.0f %+7.1f%% | %+7.1f%%\n%!"
          row.Spec.name rr.Harness.rr_without.Harness.m_mb_per_iter
          rr.Harness.rr_with_pea.Harness.m_mb_per_iter c.Harness.c_bytes_pct
          (rr.Harness.rr_without.Harness.m_allocs_per_iter /. 1e3)
          (rr.Harness.rr_with_pea.Harness.m_allocs_per_iter /. 1e3)
          c.Harness.c_allocs_pct rr.Harness.rr_without.Harness.m_iters_per_min
          rr.Harness.rr_with_pea.Harness.m_iters_per_min c.Harness.c_speedup_pct
          row.Spec.allocs_change_pct;
        (row, rr, c))
      rows
  in
  let avg f =
    List.fold_left (fun acc x -> acc +. f x) 0. results /. float_of_int (List.length results)
  in
  Printf.printf "%-14s | %17s %+7.1f%% | %17s %+7.1f%% | %19s %+7.1f%%   (measured averages)\n"
    "average" ""
    (avg (fun (_, _, c) -> c.Harness.c_bytes_pct))
    ""
    (avg (fun (_, _, c) -> c.Harness.c_allocs_pct))
    ""
    (avg (fun (_, _, c) -> c.Harness.c_speedup_pct));
  Printf.printf "%-14s | %17s %+7.1f%% | %17s %+7.1f%% | %19s %+7.1f%%   (paper averages)\n" "" ""
    (avg (fun ((r : Spec.row), _, _) -> r.Spec.bytes_change_pct))
    ""
    (avg (fun ((r : Spec.row), _, _) -> r.Spec.allocs_change_pct))
    ""
    (avg (fun ((r : Spec.row), _, _) -> r.Spec.speedup_pct));
  results

(* ------------------------------------------------------------------ *)
(* Locks (§6.1) and EA comparison (§6.2)                               *)
(* ------------------------------------------------------------------ *)

let lock_section results =
  header "Lock operations (§6.1: tomcat -4%, SPECjbb2005 -3.8%; others not significant)";
  Printf.printf "%-14s | %12s %12s %9s | %9s\n" "benchmark" "monitors/it" "monitors/it" "delta"
    "paper";
  List.iter
    (fun ((row : Spec.row), rr, _) ->
      if row.Spec.lock_change_pct <> 0.0 then
        Printf.printf "%-14s | %12.0f %12.0f %+8.1f%% | %+8.1f%%\n" row.Spec.name
          rr.Harness.rr_without.Harness.m_monitor_ops_per_iter
          rr.Harness.rr_with_pea.Harness.m_monitor_ops_per_iter
          (Harness.pea_changes rr).Harness.c_locks_pct row.Spec.lock_change_pct)
    results

let comparison_section all_results =
  header "Comparison (§6.2): whole-method escape analysis vs. partial escape analysis";
  Printf.printf "%-14s | %12s %12s | %s\n" "suite" "EA speedup" "PEA speedup"
    "paper (EA vs PEA)";
  let paper =
    [
      (Spec.Dacapo, (0.9, 2.2));
      (Spec.Scala_dacapo, (7.4, 10.4));
      (Spec.Specjbb, (5.4, 8.7));
    ]
  in
  List.iter
    (fun (suite, (p_ea, p_pea)) ->
      let rows = List.filter (fun ((r : Spec.row), _, _) -> r.Spec.suite = suite) all_results in
      let avg f =
        List.fold_left (fun acc x -> acc +. f x) 0. rows /. float_of_int (List.length rows)
      in
      Printf.printf "%-14s | %+11.1f%% %+11.1f%% | %+.1f%% vs %+.1f%%\n" (Spec.suite_name suite)
        (avg (fun (_, rr, _) -> (Harness.ea_changes rr).Harness.c_speedup_pct))
        (avg (fun (_, rr, _) -> (Harness.pea_changes rr).Harness.c_speedup_pct))
        p_ea p_pea)
    paper

(* ------------------------------------------------------------------ *)
(* Figure 4 micro-patterns                                             *)
(* ------------------------------------------------------------------ *)

let fig4_section () =
  header "Figure 4/5 micro-patterns: effect of PEA on each node pattern";
  let patterns =
    [
      ( "(a,b) alloc+store+load",
        "class P { int x; int y; }\n\
         class C { static int f(int a) { P p = new P(); p.x = a; p.y = a * 2; return p.x + p.y; } }"
      );
      ( "(c,d) monitor enter/exit",
        "class P { int x; }\n\
         class C { static int f(int a) { P p = new P(); synchronized (p) { p.x = a; } return p.x; } }"
      );
      ( "(e,f) virtual into virtual",
        "class I { int v; }\n\
         class O { I inner; }\n\
         class C { static int f(int a) { I i = new I(); i.v = a; O o = new O(); o.inner = i; return o.inner.v; } }"
      );
      ( "(fig 5) store into escaped",
        "class P { int v; P o; }\n\
         class C { static P s; static void f(int a) { P e = new P(); C.s = e; P l = new P(); l.v = a; e.o = l; } }"
      );
    ]
  in
  Printf.printf "%-28s | %7s %7s %7s %7s %7s %7s\n" "pattern" "virt" "mater" "loads" "stores"
    "mons" "folds";
  List.iter
    (fun (name, src) ->
      let program = Pea_bytecode.Link.compile_source ~require_main:false src in
      let m = Pea_bytecode.Link.find_method program "C" "f" in
      let g = Pea_ir.Builder.build m in
      ignore (Pea_opt.Canonicalize.run g);
      let _, st = Pea_core.Pea.run g in
      Printf.printf "%-28s | %7d %7d %7d %7d %7d %7d\n" name st.Pea_core.Pea.virtualized_allocs
        st.Pea_core.Pea.materializations st.Pea_core.Pea.removed_loads
        st.Pea_core.Pea.removed_stores st.Pea_core.Pea.removed_monitor_ops
        st.Pea_core.Pea.folded_checks)
    patterns

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock benchmarks                                      *)
(* ------------------------------------------------------------------ *)

let bechamel_section () =
  header
    "Bechamel wall-clock benchmarks (real time of this implementation; one Test.make per table)";
  let open Bechamel in
  let representative suite =
    match suite with
    | Spec.Dacapo -> Option.get (Spec.find "sunflow")
    | Spec.Scala_dacapo -> Option.get (Spec.find "scalap")
    | Spec.Specjbb -> Option.get (Spec.find "SPECjbb2005")
  in
  let workload_test name suite opt =
    let row = representative suite in
    let src = Codegen.source_for_row row in
    Test.make ~name
      (Staged.stage (fun () -> ignore (Harness.measure_program ~warmup:1 ~measure:1 src opt)))
  in
  let pea_pass_test =
    let src = Codegen.source_for_row (representative Spec.Dacapo) in
    let program = Pea_bytecode.Link.compile_source src in
    let m = Pea_bytecode.Link.entry_exn program in
    let g0 = Pea_ir.Builder.build m in
    ignore (Pea_opt.Inline.run (Pea_opt.Inline.default_config program) g0);
    ignore (Pea_opt.Canonicalize.run g0);
    Test.make ~name:"pea-analysis-pass" (Staged.stage (fun () -> ignore (Pea_core.Pea.run g0)))
  in
  let tests =
    [
      workload_test "table1-dacapo-row" Spec.Dacapo Pea_vm.Jit.O_pea;
      workload_test "table1-scaladacapo-row" Spec.Scala_dacapo Pea_vm.Jit.O_pea;
      workload_test "table1-specjbb-row" Spec.Specjbb Pea_vm.Jit.O_pea;
      pea_pass_test;
    ]
  in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:(Some 50) () in
  let instance = Toolkit.Instance.monotonic_clock in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          instance results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-28s %12.0f ns/run\n%!" name est
          | Some _ | None -> Printf.printf "%-28s (no estimate)\n%!" name)
        ols)
    tests

(* ------------------------------------------------------------------ *)
(* Stack allocation                                                    *)
(* ------------------------------------------------------------------ *)

(* The stack-allocation tier: frame-bounded objects that PEA must
   materialize (merge phis, opaque writes by callees) land in the
   frame's stack region instead of the heap and are reclaimed in O(1) at
   frame pop. Three rows exercise the three interesting shapes:

     merge           a Point allocated on both arms of a branch, merged,
                     read, dropped — materialized at the phi, never
                     escapes the frame
     callee-write    the object is handed to a non-inlined callee that
                     writes a field: the summary is No_escape but not
                     transparent, so the argument materializes — still
                     frame-bounded
     deopt-promote   the merged object is live across a speculatively
                     pruned branch that is taken late in every
                     iteration: the deopt must promote the live stack
                     object to the heap mid-frame (oracle-checked)

   Every cell runs with the verifier at Every_phase (a SPEC12 violation
   aborts the compile) and the deopt oracle on. The gate: pea+stackalloc
   strictly beats pea on cycles, steady-state heap allocations reach
   zero on the non-deopt rows, the deopt row actually promotes, and
   results are bit-identical across opt x stackalloc x compile-mode. *)
(* (name, compile threshold, source). The deopt-promote row compiles at
   threshold 30 so the flip branch has a mature never-taken profile
   (cold-branch pruning wants >= 20 samples) and actually gets pruned —
   at threshold 2 the method compiles after 2 samples, nothing is
   speculated, and no deopt ever carries a live stack object. *)
let stackalloc_rows =
  [
    ( "merge",
      2,
      "class Point { int x; int y; Point(int x, int y) { this.x = x; this.y = y; } }\n\
       class Main {\n\
      \  static int work(int i) {\n\
      \    Point p;\n\
      \    if (i % 2 == 0) { p = new Point(i, 1); } else { p = new Point(i, 2); }\n\
      \    return p.x + p.y;\n\
      \  }\n\
      \  static int main() {\n\
      \    int acc = 0;\n\
      \    int i = 0;\n\
      \    while (i < 1000) { acc = acc + Main.work(i); i = i + 1; }\n\
      \    return acc;\n\
      \  }\n\
       }" );
    ( "callee-write",
      2,
      (* the stamp helper is far beyond the inlining budget, writes its
         argument (summary: No_escape, written) and returns a scalar *)
      String.concat "\n"
        [
          "class Box { int v; int tag; }";
          "class Stamp {";
          "  static int mark(Box b) {";
          "    int r = b.v;";
          String.concat "\n"
            (List.init 60 (fun j -> Printf.sprintf "    r = r + ((b.v + %d) %% 5);" j));
          "    b.tag = r % 97;";
          "    return r + b.tag;";
          "  }";
          "}";
          "class Main {";
          "  static int work(int i) {";
          "    Box b = new Box();";
          "    b.v = i;";
          "    return Stamp.mark(b) + b.tag;";
          "  }";
          "  static int main() {";
          "    int acc = 0;";
          "    int i = 0;";
          "    while (i < 500) { acc = acc + Main.work(i); i = i + 1; }";
          "    return acc;";
          "  }";
          "}";
        ] );
    ( "deopt-promote",
      30,
      "class Point { int x; int y; Point(int x, int y) { this.x = x; this.y = y; } }\n\
       class Main {\n\
      \  static int work(int i, int flip) {\n\
      \    Point p;\n\
      \    if (i % 2 == 0) { p = new Point(i, 1); } else { p = new Point(i, 2); }\n\
      \    int r = p.x;\n\
      \    if (flip == 1) { r = r + p.y * 10; }\n\
      \    return r + p.y;\n\
      \  }\n\
      \  static int main() {\n\
      \    int acc = 0;\n\
      \    int i = 0;\n\
      \    while (i < 1000) {\n\
      \      int flip = 0;\n\
      \      if (i == 900) { flip = 1; }\n\
      \      acc = acc + Main.work(i, flip);\n\
      \      i = i + 1;\n\
      \    }\n\
      \    return acc;\n\
      \  }\n\
       }" );
  ]

let stackalloc_section () =
  header "Stack allocation: frame-bounded materializations, reclaimed at frame pop";
  let outcome (r : Pea_vm.Vm.result) =
    ( (match r.Pea_vm.Vm.return_value with
      | None -> "void"
      | Some v -> Pea_rt.Value.string_of_value v),
      List.map Pea_rt.Value.string_of_value r.Pea_vm.Vm.printed )
  in
  (* steady state: warm 2 iterations (everything compiles at threshold
     2), then measure per-iteration deltas over 3 more *)
  let cell src ~threshold ~opt ~stackalloc ~mode =
    let config =
      {
        Pea_vm.Jit.default_config with
        Pea_vm.Jit.compile_threshold = threshold;
        opt;
        stackalloc;
        compile_mode = mode;
        check_level = Pea_analysis.Spec_check.Every_phase;
        oracle = true;
      }
    in
    let vm = Pea_vm.Vm.create ~config (Pea_bytecode.Link.compile_source src) in
    ignore (Pea_vm.Vm.run_main_iterations vm 2);
    let before = (Pea_vm.Vm.run_main_iterations vm 0).Pea_vm.Vm.stats in
    let r = Pea_vm.Vm.run_main_iterations vm 3 in
    Pea_vm.Vm.quiesce vm;
    let d getter = (getter r.Pea_vm.Vm.stats - getter before) / 3 in
    (* promotions happen at the one deopt before the site is
       blacklisted and the method recompiled without the pruned branch,
       so they are invisible in the steady-state delta: report the
       run's cumulative total instead *)
    ( d (fun (s : Pea_rt.Stats.snapshot) -> s.Pea_rt.Stats.s_allocations),
      d (fun s -> s.Pea_rt.Stats.s_cycles),
      d (fun s -> s.Pea_rt.Stats.s_stack_allocs),
      d (fun s -> s.Pea_rt.Stats.s_stack_reclaimed),
      r.Pea_vm.Vm.stats.Pea_rt.Stats.s_stack_promotions,
      outcome r )
  in
  (* offline SPEC12 sweep: compile every method of the row the way the
     VM would and count verifier violations on the final graphs *)
  let spec12_count src =
    let program = Pea_bytecode.Link.compile_source src in
    let printed = ref [] in
    let env = Pea_rt.Run.make_env program ~printed in
    (try ignore (Pea_rt.Interp.run env (Pea_bytecode.Link.entry_exn program) [])
     with Pea_rt.Interp.Trap _ | Pea_rt.Interp.Mj_throw _ -> ());
    let summaries = Pea_analysis.Summary.analyze program in
    let config = { Pea_vm.Jit.default_config with Pea_vm.Jit.compile_threshold = 2 } in
    List.fold_left
      (fun acc m ->
        match Pea_vm.Jit.compile ~summaries config program env.Pea_rt.Interp.profile m with
        | c ->
            acc
            + List.length
                (List.filter
                   (fun (v : Pea_analysis.Spec_check.violation) ->
                     v.Pea_analysis.Spec_check.v_rule = "SPEC12")
                   (Pea_analysis.Spec_check.check ~summaries ~phase:"final" c.Pea_vm.Jit.graph))
        | exception Pea_ir.Builder.Build_error _ -> acc)
      0
      (List.filter
         (fun m -> not (Pea_bytecode.Classfile.uses_exceptions m))
         (Array.to_list program.Pea_bytecode.Link.methods))
  in
  Printf.printf "%-14s | %10s %10s %8s | %9s %9s %9s %9s | %s\n" "row" "pea cyc" "+stack cyc"
    "speedup" "allocs/it" "stack/it" "reclaim" "promote" "parity (8 cells)";
  let measured =
    List.map
      (fun (name, threshold, src) ->
        let allocs_off, cycles_off, _, _, _, out0 =
          cell src ~threshold ~opt:Pea_vm.Jit.O_pea ~stackalloc:false ~mode:Pea_vm.Jit.Sync
        in
        let allocs_on, cycles_on, stack_on, reclaimed_on, promoted_on, _ =
          cell src ~threshold ~opt:Pea_vm.Jit.O_pea ~stackalloc:true ~mode:Pea_vm.Jit.Sync
        in
        (* full matrix: opt x stackalloc x compile-mode, every cell
           oracle-checked, all results must be bit-identical *)
        let parity =
          List.for_all
            (fun (opt, stackalloc) ->
              List.for_all
                (fun mode ->
                  let _, _, _, _, _, out = cell src ~threshold ~opt ~stackalloc ~mode in
                  out = out0)
                [ Pea_vm.Jit.Sync; Pea_vm.Jit.Replay ])
            [
              (Pea_vm.Jit.O_none, false);
              (Pea_vm.Jit.O_ea, false);
              (Pea_vm.Jit.O_pea, false);
              (Pea_vm.Jit.O_pea, true);
            ]
        in
        let spec12 = spec12_count src in
        let speedup = float_of_int cycles_off /. float_of_int cycles_on in
        Printf.printf "%-14s | %10d %10d %7.2fx | %9d %9d %9d %9d | %s, SPEC12: %d\n%!" name
          cycles_off cycles_on speedup allocs_on stack_on reclaimed_on promoted_on
          (if parity then "identical" else "MISMATCH")
          spec12;
        (name, cycles_off, cycles_on, allocs_off, allocs_on, stack_on, reclaimed_on, promoted_on,
         parity, spec12))
      stackalloc_rows
  in
  let oc = open_out "BENCH_stackalloc.json" in
  output_string oc "[\n";
  List.iteri
    (fun i
         (name, cycles_off, cycles_on, allocs_off, allocs_on, stack_on, reclaimed, promoted,
          parity, spec12) ->
      Printf.fprintf oc
        "  {\"row\": %S, \"pea_cycles_per_iter\": %d, \"stackalloc_cycles_per_iter\": %d, \
         \"pea_allocs_per_iter\": %d, \"stackalloc_allocs_per_iter\": %d, \
         \"stack_allocs_per_iter\": %d, \"stack_reclaimed_per_iter\": %d, \
         \"stack_promotions_total\": %d, \"results_identical\": %b, \"spec12_violations\": \
         %d}%s\n"
        name cycles_off cycles_on allocs_off allocs_on stack_on reclaimed promoted parity spec12
        (if i = List.length measured - 1 then "" else ","))
    measured;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "wrote BENCH_stackalloc.json\n";
  let faster =
    List.for_all (fun (_, off, on, _, _, _, _, _, _, _) -> on < off) measured
  in
  let gated (name, _, _, _, _, _, _, _, _, _) = name <> "deopt-promote" in
  let zero_heap =
    List.for_all
      (fun (_, _, _, _, allocs_on, _, _, _, _, _) -> allocs_on = 0)
      (List.filter gated measured)
  in
  let promoted =
    List.exists (fun (name, _, _, _, _, _, _, p, _, _) -> name = "deopt-promote" && p > 0)
      measured
  in
  let parity = List.for_all (fun (_, _, _, _, _, _, _, _, p, _) -> p) measured in
  let spec12_clean = List.for_all (fun (_, _, _, _, _, _, _, _, _, s) -> s = 0) measured in
  Printf.printf
    "gate: pea+stackalloc strictly beats pea on cycles: %s; steady-state heap allocs zero on \
     gated rows: %s; deopt promotes live stack objects (oracle clean): %s; results \
     bit-identical across opt x stackalloc x compile-mode: %s; SPEC12 violations: %s\n"
    (if faster then "PASS" else "FAIL")
    (if zero_heap then "PASS" else "FAIL")
    (if promoted then "PASS" else "FAIL")
    (if parity then "PASS" else "FAIL")
    (if spec12_clean then "0, PASS" else "FAIL")

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

(* The design choices DESIGN.md calls out, each toggled off on the most
   PEA-sensitive workload (the factorie row). *)
let ablation_section () =
  header "Ablations (factorie workload): which design choices carry the win";
  let row = Option.get (Spec.find "factorie") in
  let src = Codegen.source_for_row row in
  let base = { Pea_vm.Jit.default_config with Pea_vm.Jit.compile_threshold = 2 } in
  let variants =
    [
      ("no escape analysis", { base with Pea_vm.Jit.opt = Pea_vm.Jit.O_none });
      ("whole-method EA", { base with Pea_vm.Jit.opt = Pea_vm.Jit.O_ea });
      ("PEA, no inlining", { base with Pea_vm.Jit.opt = Pea_vm.Jit.O_pea; inline = false });
      ( "PEA, no dead-object pruning",
        { base with Pea_vm.Jit.opt = Pea_vm.Jit.O_pea; pea_prune_dead = false } );
      ("PEA, no speculation", { base with Pea_vm.Jit.opt = Pea_vm.Jit.O_pea; prune = false });
      ( "PEA, no read elimination",
        { base with Pea_vm.Jit.opt = Pea_vm.Jit.O_pea; read_elim = false } );
      ("PEA (full)", { base with Pea_vm.Jit.opt = Pea_vm.Jit.O_pea });
    ]
  in
  Printf.printf "%-30s | %12s %12s %14s
" "configuration" "kAllocs/it" "MB/it" "iters/min";
  List.iter
    (fun (name, config) ->
      let program = Pea_bytecode.Link.compile_source src in
      let vm = Pea_vm.Vm.create ~config program in
      ignore (Pea_vm.Vm.run_main_iterations vm 2);
      let before = (Pea_vm.Vm.run_main_iterations vm 0).Pea_vm.Vm.stats in
      let r = Pea_vm.Vm.run_main_iterations vm 3 in
      let d getter = float_of_int (getter r.Pea_vm.Vm.stats - getter before) /. 3. in
      let allocs = d (fun (s : Pea_rt.Stats.snapshot) -> s.Pea_rt.Stats.s_allocations) in
      let bytes = d (fun s -> s.Pea_rt.Stats.s_allocated_bytes) in
      let cycles = d (fun s -> s.Pea_rt.Stats.s_cycles) in
      Printf.printf "%-30s | %12.1f %12.3f %14.0f
%!" name (allocs /. 1e3) (bytes /. 1048576.)
        (60e9 /. cycles))
    variants

(* ------------------------------------------------------------------ *)
(* Interprocedural summaries                                           *)
(* ------------------------------------------------------------------ *)

(* A keyed-cache lookup whose helper is far beyond the inlining budget:
   every probe allocates a Key and hands it to Cache.find, which only
   reads its int fields. Without summaries the call is a hard escape
   point and every Key is materialized; with them the Key stays virtual
   and is passed as an uncharged scratch object. *)
let summaries_workload () =
  let probe =
    String.concat "\n" (List.init 60 (fun j -> Printf.sprintf "    r = r + ((h + %d) %% 7);" j))
  in
  String.concat "\n"
    [
      "class Key { int hi; int lo; }";
      "class Cache {";
      "  static int find(Key k) {";
      "    int h = k.hi * 31 + k.lo;";
      "    int r = 0;";
      probe;
      "    return r;";
      "  }";
      "}";
      "class Main {";
      "  static int main() {";
      "    int acc = 0;";
      "    int i = 0;";
      "    while (i < 100) {";
      "      Key k = new Key();";
      "      k.hi = i;";
      "      k.lo = i + i;";
      "      acc = acc + Cache.find(k);";
      "      i = i + 1;";
      "    }";
      "    return acc;";
      "  }";
      "}";
    ]

let summaries_section () =
  header "Interprocedural summaries: keyed-cache lookup across a non-inlined call";
  let src = summaries_workload () in
  let base = { Pea_vm.Jit.default_config with Pea_vm.Jit.compile_threshold = 2 } in
  let variants =
    [
      ("none", Pea_vm.Jit.O_none, false);
      ("ea", Pea_vm.Jit.O_ea, false);
      ("ea", Pea_vm.Jit.O_ea, true);
      ("pea", Pea_vm.Jit.O_pea, false);
      ("pea", Pea_vm.Jit.O_pea, true);
    ]
  in
  Printf.printf "%-6s %-9s | %12s %14s %12s %14s %12s\n" "opt" "summaries" "allocs"
    "alloc bytes" "monitors" "cycles" "scratch";
  let rows =
    List.map
      (fun (opt_name, opt, summaries) ->
        let config = { base with Pea_vm.Jit.opt; summaries } in
        let program = Pea_bytecode.Link.compile_source src in
        let vm = Pea_vm.Vm.create ~config program in
        ignore (Pea_vm.Vm.run_main_iterations vm 2);
        let before = (Pea_vm.Vm.run_main_iterations vm 0).Pea_vm.Vm.stats in
        let r = Pea_vm.Vm.run_main_iterations vm 3 in
        let d getter = getter r.Pea_vm.Vm.stats - getter before in
        let allocs = d (fun (s : Pea_rt.Stats.snapshot) -> s.Pea_rt.Stats.s_allocations) in
        let bytes = d (fun s -> s.Pea_rt.Stats.s_allocated_bytes) in
        let monitors = d (fun s -> s.Pea_rt.Stats.s_monitor_ops) in
        let cycles = d (fun s -> s.Pea_rt.Stats.s_cycles) in
        let scratch = d (fun s -> s.Pea_rt.Stats.s_stack_allocs) in
        Printf.printf "%-6s %-9s | %12d %14d %12d %14d %12d\n%!" opt_name
          (if summaries then "on" else "off")
          allocs bytes monitors cycles scratch;
        (opt_name, summaries, allocs, bytes, monitors, cycles, scratch))
      variants
  in
  let bytes_of opt s =
    List.find_map
      (fun (o, sm, _, b, _, _, _) -> if o = opt && sm = s then Some b else None)
      rows
  in
  (match (bytes_of "pea" true, bytes_of "pea" false) with
  | Some w, Some wo when w < wo ->
      Printf.printf "summaries win: O_pea allocated bytes %d -> %d (-%.1f%%)\n" wo w
        (100. *. float_of_int (wo - w) /. float_of_int (max wo 1))
  | Some w, Some wo -> Printf.printf "summaries win NOT reproduced: %d vs %d\n" w wo
  | _ -> ());
  let oc = open_out "BENCH_summaries.json" in
  output_string oc "[\n";
  List.iteri
    (fun i (opt_name, summaries, allocs, bytes, monitors, cycles, scratch) ->
      Printf.fprintf oc
        "  {\"opt\": %S, \"summaries\": %b, \"allocations\": %d, \"allocated_bytes\": %d, \
         \"monitor_ops\": %d, \"cycles\": %d, \"stack_allocs\": %d}%s\n"
        opt_name summaries allocs bytes monitors cycles scratch
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "wrote BENCH_summaries.json\n"

(* ------------------------------------------------------------------ *)
(* Speculative guarded inlining                                        *)
(* ------------------------------------------------------------------ *)

(* A skewed megamorphic dispatch CHA cannot devirtualize: [Hasher.hash]
   is overridden by a rare caching variant that *stores* its argument,
   so the merged interprocedural summary must call the argument
   escaping and summaries alone cannot keep the per-probe Key virtual.
   The hot loop is receiver-monomorphic in profile but its receiver is
   a phi the compiler cannot bind statically (a never-taken branch can
   select the rare class), while the startup site really is polymorphic:
   it speculates, misses, and is blacklisted back to a dispatched call.
   Exactly the shape where guarded inlining carries PEA across the call
   boundary and scalar-replaces what summaries cannot. *)
let inlining_workload () =
  "class Key { int hi; int lo; }\n\
   class Hasher { Key sink; int hash(Key k) { return k.hi * 31 + k.lo; } }\n\
   class Caching extends Hasher { int hash(Key k) { sink = k; return k.hi + k.lo; } }\n\
   class Main {\n\
  \  static int hot(Hasher h, int i) {\n\
  \    Key k = new Key();\n\
  \    k.hi = i;\n\
  \    k.lo = i + i;\n\
  \    return h.hash(k);\n\
  \  }\n\
  \  static int mixed(Hasher h, int i) {\n\
  \    Key k = new Key();\n\
  \    k.hi = i;\n\
  \    k.lo = 7;\n\
  \    return h.hash(k);\n\
  \  }\n\
  \  static int main() {\n\
  \    Hasher fast = new Hasher();\n\
  \    Hasher rare = new Caching();\n\
  \    int acc = 0;\n\
  \    int i = 0;\n\
  \    while (i < 40) {\n\
  \      Hasher h = rare;\n\
  \      if (i % 8 != 0) { h = fast; }\n\
  \      acc = acc + Main.mixed(h, i);\n\
  \      i = i + 1;\n\
  \    }\n\
  \    i = 0;\n\
  \    while (i < 400) {\n\
  \      Hasher h = fast;\n\
  \      if (i == 100000) { h = rare; }\n\
  \      acc = acc + Main.hot(h, i);\n\
  \      i = i + 1;\n\
  \    }\n\
  \    return acc;\n\
  \  }\n\
   }"

let inlining_section () =
  header "Speculative guarded inlining: skewed megamorphic dispatch beyond CHA reach";
  let src = inlining_workload () in
  let outcome (r : Pea_vm.Vm.result) =
    ( (match r.Pea_vm.Vm.return_value with
      | None -> "void"
      | Some v -> Pea_rt.Value.string_of_value v),
      List.map Pea_rt.Value.string_of_value r.Pea_vm.Vm.printed )
  in
  (* every cell runs with the correctness tooling fully on: the verifier
     audits the guard/deopt metadata after every phase (a violation
     aborts the compile) and the oracle bisimulates every guard deopt
     against a shadow interpreter replay (a divergence raises) *)
  let measure ~inlining ~tooling =
    let config =
      {
        Pea_vm.Jit.default_config with
        Pea_vm.Jit.compile_threshold = 2;
        opt = Pea_vm.Jit.O_pea;
        inlining;
        check_level =
          (if tooling then Pea_analysis.Spec_check.Every_phase
           else Pea_analysis.Spec_check.No_check);
        oracle = tooling;
      }
    in
    let vm = Pea_vm.Vm.create ~config (Pea_bytecode.Link.compile_source src) in
    ignore (Pea_vm.Vm.run_main_iterations vm 2);
    let before = (Pea_vm.Vm.run_main_iterations vm 0).Pea_vm.Vm.stats in
    let r = Pea_vm.Vm.run_main_iterations vm 3 in
    let d getter = (getter r.Pea_vm.Vm.stats - getter before) / 3 in
    ( d (fun (s : Pea_rt.Stats.snapshot) -> s.Pea_rt.Stats.s_allocations),
      d (fun s -> s.Pea_rt.Stats.s_allocated_bytes),
      d (fun s -> s.Pea_rt.Stats.s_cycles),
      r.Pea_vm.Vm.stats.Pea_rt.Stats.s_speculative_inlines,
      r.Pea_vm.Vm.stats.Pea_rt.Stats.s_guard_deopts,
      r.Pea_vm.Vm.stats.Pea_rt.Stats.s_inline_blacklist_skips,
      outcome r )
  in
  Printf.printf "%-22s | %10s %12s %12s | %6s %7s %6s\n" "configuration" "allocs/it" "bytes/it"
    "cycles/it" "specs" "gdeopts" "skips";
  let cells =
    List.map
      (fun (name, inlining, tooling) ->
        let allocs, bytes, cycles, specs, gdeopts, skips, out = measure ~inlining ~tooling in
        Printf.printf "%-22s | %10d %12d %12d | %6d %7d %6d\n%!" name allocs bytes cycles specs
          gdeopts skips;
        (name, inlining, tooling, allocs, bytes, cycles, specs, gdeopts, skips, out))
      [
        ("pea+summaries", false, true);
        ("pea+inlining", true, true);
        ("pea+summaries no-tool", false, false);
        ("pea+inlining no-tool", true, false);
      ]
  in
  let find name =
    List.find (fun (n, _, _, _, _, _, _, _, _, _) -> n = name) cells
  in
  let _, _, _, a_off, _, c_off, _, _, _, o_off = find "pea+summaries" in
  let _, _, _, a_on, _, c_on, specs, gdeopts, skips, o_on = find "pea+inlining" in
  let results_identical =
    List.for_all (fun (_, _, _, _, _, _, _, _, _, o) -> o = o_off) cells
  in
  let oc = open_out "BENCH_inlining.json" in
  output_string oc "[\n";
  List.iteri
    (fun i (name, inlining, tooling, allocs, bytes, cycles, specs, gdeopts, skips, _) ->
      Printf.fprintf oc
        "  {\"config\": %S, \"inlining\": %b, \"tooling\": %b, \"allocations_per_iter\": %d, \
         \"allocated_bytes_per_iter\": %d, \"cycles_per_iter\": %d, \"speculative_inlines\": %d, \
         \"guard_deopts\": %d, \"blacklist_skips\": %d}%s\n"
        name inlining tooling allocs bytes cycles specs gdeopts skips
        (if i = List.length cells - 1 then "" else ","))
    cells;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "wrote BENCH_inlining.json\n";
  Printf.printf
    "speculated %d sites, %d guard deopts, %d blacklist fallbacks; allocations %d -> %d, cycles \
     %d -> %d per iteration\n"
    specs gdeopts skips a_off a_on c_off c_on;
  ignore o_on;
  Printf.printf
    "gate: pea+inlining strictly beats pea+summaries on allocations: %s; on cycles: %s; results \
     bit-identical across the matrix: %s; Every_phase verifier and oracle ran clean: PASS\n"
    (if a_on < a_off then "PASS" else "FAIL")
    (if c_on < c_off then "PASS" else "FAIL")
    (if results_identical then "PASS" else "FAIL")

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

(* The tracing subsystem's two contracts, checked on a real workload row:
   installing a tracer moves no deterministic counter, and the captured
   trace is byte-for-byte identical across runs. *)
let obs_section () =
  header "Observability: tracing overhead and determinism gate";
  let row = Option.get (Spec.find "factorie") in
  let src = Codegen.source_for_row row in
  let run traced =
    let config = { Pea_vm.Jit.default_config with Pea_vm.Jit.compile_threshold = 2 } in
    let vm = Pea_vm.Vm.create ~config (Pea_bytecode.Link.compile_source src) in
    if not traced then (Pea_vm.Vm.run_main_iterations vm 3, None)
    else begin
      let t = Pea_obs.Trace.create () in
      Pea_obs.Trace.set_clock t (fun () ->
          Pea_rt.Stats.get (Pea_vm.Vm.stats vm) Pea_rt.Stats.cycles);
      Pea_obs.Trace.install t;
      let r =
        Fun.protect ~finally:Pea_obs.Trace.uninstall (fun () ->
            Pea_vm.Vm.run_main_iterations vm 3)
      in
      (r, Some t)
    end
  in
  let off, _ = run false in
  let on, tracer1 = run true in
  let _, tracer2 = run true in
  let t1 = Option.get tracer1 and t2 = Option.get tracer2 in
  let counters_identical = off.Pea_vm.Vm.stats = on.Pea_vm.Vm.stats in
  let deterministic = Pea_obs.Trace.jsonl_string t1 = Pea_obs.Trace.jsonl_string t2 in
  Printf.printf "events captured: %d (dropped: %d)\n" (Pea_obs.Trace.length t1)
    (Pea_obs.Trace.dropped t1);
  Printf.printf "gate: counters identical with tracing on: %s; trace identical across runs: %s\n"
    (if counters_identical then "PASS" else "FAIL")
    (if deterministic then "PASS" else "FAIL");
  let oc = open_out "BENCH_obs.json" in
  Printf.fprintf oc
    "{\"workload\": %S, \"events\": %d, \"dropped\": %d, \"counters_identical\": %b, \
     \"trace_deterministic\": %b}\n"
    row.Spec.name (Pea_obs.Trace.length t1) (Pea_obs.Trace.dropped t1) counters_identical
    deterministic;
  close_out oc;
  Printf.printf "wrote BENCH_obs.json\n"

(* ------------------------------------------------------------------ *)
(* Profiling                                                           *)
(* ------------------------------------------------------------------ *)

(* The profiler's three contracts on the megamorphic inlining workload:
   installing the sampling + heap profilers moves no deterministic
   counter; the aggregated report is byte-identical across runs; and the
   wall-clock overhead of profiling stays within the budget (the
   cycle-clock grid makes each safepoint a load + compare, so the
   slowdown should be small even at the default interval). *)
let profile_section () =
  header "Profiling: sampling + heap profiler overhead and determinism gate";
  let module Pcpu = Pea_obs.Profile_cpu in
  let module Pheap = Pea_obs.Profile_heap in
  let src = inlining_workload () in
  let run ?(collect_report = true) profiled =
    let config =
      { Pea_vm.Jit.default_config with Pea_vm.Jit.compile_threshold = 2; opt = Pea_vm.Jit.O_pea }
    in
    let body cpu heap =
      let program = Pea_bytecode.Link.compile_source src in
      let vm = Pea_vm.Vm.create ~config program in
      let r = Pea_vm.Vm.run_main_iterations vm 3 in
      Pea_vm.Vm.quiesce vm;
      let report =
        match (cpu, heap) with
        | Some cpu, Some heap when collect_report ->
            Some
              (Pea_vm.Report.to_string
                 (Pea_vm.Report.collect ~program ~cpu ~heap
                    ~pea_sites:(Pea_vm.Vm.jit_stats vm).Pea_core.Pea.sites ()))
        | _ -> None
      in
      (r.Pea_vm.Vm.stats, report)
    in
    if not profiled then body None None
    else begin
      let cpu = Pcpu.create () and heap = Pheap.create () in
      Pcpu.install cpu;
      Pheap.install heap;
      Fun.protect
        ~finally:(fun () ->
          Pcpu.uninstall ();
          Pheap.uninstall ())
        (fun () -> body (Some cpu) (Some heap))
    end
  in
  let off_stats, _ = run false in
  let on_stats, report1 = run true in
  let _, report2 = run true in
  let counters_identical = off_stats = on_stats in
  let deterministic = report1 = report2 && Option.is_some report1 in
  (* the timed half excludes report aggregation (the gate is about the
     always-on cost of sampling, not the one-shot readout), and takes the
     fastest of several interleaved batches per configuration: each rep
     builds a fresh VM and recompiles, so single-pass wall clock carries
     enough scheduler noise to swamp a 10% budget. *)
  let batches = 5 and reps = 10 in
  let batch profiled =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (run ~collect_report:false profiled)
    done;
    Unix.gettimeofday () -. t0
  in
  ignore (batch false) (* warm the allocator before timing *);
  ignore (batch true);
  let t_off = ref infinity and t_on = ref infinity in
  for _ = 1 to batches do
    t_off := Float.min !t_off (batch false);
    t_on := Float.min !t_on (batch true)
  done;
  let t_off = !t_off and t_on = !t_on in
  let overhead = if t_off > 0. then t_on /. t_off else 1. in
  Printf.printf "wall clock, best of %d batches x %d runs: off %.4fs, on %.4fs (%.3fx)\n" batches
    reps t_off t_on overhead;
  Printf.printf
    "gate: counters identical with profiling on: %s; report identical across runs: %s; \
     overhead <= 1.10x: %s\n"
    (if counters_identical then "PASS" else "FAIL")
    (if deterministic then "PASS" else "FAIL")
    (if overhead <= 1.10 then "PASS" else "FAIL");
  let oc = open_out "BENCH_profile.json" in
  Printf.fprintf oc
    "{\"workload\": \"megamorphic-inlining\", \"reps\": %d, \"wall_s_off\": %.6f, \"wall_s_on\": \
     %.6f, \"overhead\": %.4f, \"overhead_ok\": %b, \"counters_identical\": %b, \
     \"report_deterministic\": %b}\n"
    reps t_off t_on overhead (overhead <= 1.10) counters_identical deterministic;
  close_out oc;
  Printf.printf "wrote BENCH_profile.json\n"

(* ------------------------------------------------------------------ *)
(* On-stack replacement                                                 *)
(* ------------------------------------------------------------------ *)

(* A single invocation of a hot loop never trips the invocation counter,
   so without OSR it runs interpreted start to finish. The gate: with
   OSR the same single invocation must reach the compiled tier
   (osr_entries >= 1), produce the interpreter's results bit-for-bit,
   and cost measurably fewer deterministic cycles. *)
let osr_section () =
  header "On-stack replacement: single-invocation hot loops";
  let rows =
    [
      ( "hot-loop-alloc",
        "class Point { int x; int y; }\n\
         class Main {\n\
        \  static int main() {\n\
        \    int s = 0;\n\
        \    int i = 0;\n\
        \    while (i < 20000) {\n\
        \      Point p = new Point();\n\
        \      p.x = i;\n\
        \      p.y = 3;\n\
        \      s = s + p.x + p.y;\n\
        \      i = i + 1;\n\
        \    }\n\
        \    print(s);\n\
        \    return s;\n\
        \  }\n\
         }" );
      ( "nested-loop",
        "class Acc { int total; }\n\
         class Main {\n\
        \  static int main() {\n\
        \    int s = 0;\n\
        \    int i = 0;\n\
        \    while (i < 100) {\n\
        \      int j = 0;\n\
        \      while (j < 200) {\n\
        \        Acc a = new Acc();\n\
        \        a.total = i * j;\n\
        \        s = s + a.total;\n\
        \        j = j + 1;\n\
        \      }\n\
        \      i = i + 1;\n\
        \    }\n\
        \    print(s);\n\
        \    return s;\n\
        \  }\n\
         }" );
    ]
  in
  let outcome (r : Pea_vm.Vm.result) =
    ( (match r.Pea_vm.Vm.return_value with
      | None -> "void"
      | Some v -> Pea_rt.Value.string_of_value v),
      List.map Pea_rt.Value.string_of_value r.Pea_vm.Vm.printed )
  in
  (* compile_threshold maxed out: the only road to compiled code is OSR *)
  let run src ~osr =
    let config =
      { Pea_vm.Jit.default_config with Pea_vm.Jit.compile_threshold = max_int; osr }
    in
    Pea_vm.Vm.run (Pea_vm.Vm.create ~config (Pea_bytecode.Link.compile_source src))
  in
  Printf.printf "%-14s | %12s %12s %8s | %7s %11s | %s\n" "row" "interp cyc" "osr cyc" "speedup"
    "entries" "allocs" "results";
  let measured =
    List.map
      (fun (name, src) ->
        let interp = run src ~osr:false in
        let osr = run src ~osr:true in
        let ic = interp.Pea_vm.Vm.stats.Pea_rt.Stats.s_cycles in
        let oc = osr.Pea_vm.Vm.stats.Pea_rt.Stats.s_cycles in
        let entries = osr.Pea_vm.Vm.stats.Pea_rt.Stats.s_osr_entries in
        let parity = outcome interp = outcome osr in
        let speedup = float_of_int ic /. float_of_int oc in
        Printf.printf "%-14s | %12d %12d %7.2fx | %7d %5d->%-5d | %s\n%!" name ic oc speedup
          entries interp.Pea_vm.Vm.stats.Pea_rt.Stats.s_allocations
          osr.Pea_vm.Vm.stats.Pea_rt.Stats.s_allocations
          (if parity then "identical" else "MISMATCH");
        (name, ic, oc, speedup, entries, parity))
      rows
  in
  let oc = open_out "BENCH_osr.json" in
  output_string oc "[\n";
  List.iteri
    (fun i (name, icyc, ocyc, speedup, entries, parity) ->
      Printf.fprintf oc
        "  {\"row\": %S, \"interp_cycles\": %d, \"osr_cycles\": %d, \"speedup\": %.3f, \
         \"osr_entries\": %d, \"result_parity\": %b}%s\n"
        name icyc ocyc speedup entries parity
        (if i = List.length measured - 1 then "" else ","))
    measured;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "wrote BENCH_osr.json\n";
  let tiered = List.for_all (fun (_, _, _, _, e, _) -> e >= 1) measured in
  let faster = List.for_all (fun (_, ic, oc, _, _, _) -> oc < ic) measured in
  let parity = List.for_all (fun (_, _, _, _, _, p) -> p) measured in
  Printf.printf
    "gate: osr entered on every row: %s; beats interpreter-only: %s; results bit-for-bit: %s\n"
    (if tiered then "PASS" else "FAIL")
    (if faster then "PASS" else "FAIL")
    (if parity then "PASS" else "FAIL")

(* ------------------------------------------------------------------ *)
(* Background compilation                                              *)
(* ------------------------------------------------------------------ *)

(* Time-to-steady-state under the two compile modes. In sync mode the
   mutator stalls for the full modeled latency of every compilation it
   triggers (charged to compile_stall_cycles); under replay the same
   compilations are queued and installed at their deadline, so the
   method keeps interpreting instead of stalling. Rows are ranked by how
   much the sync mutator actually stalls — the measured stall is exactly
   the amount of compilation the row demands — and the gate checks that
   on the two most compile-heavy rows replay reaches steady state
   (cycles + compile_stall_cycles) strictly sooner than sync with
   identical results. *)
let parallel_jit_section () =
  header "Background compilation: time-to-steady-state, sync vs replay";
  let outcome (r : Pea_vm.Vm.result) =
    ( (match r.Pea_vm.Vm.return_value with
      | None -> "void"
      | Some v -> Pea_rt.Value.string_of_value v),
      List.map Pea_rt.Value.string_of_value r.Pea_vm.Vm.printed )
  in
  let measure src mode =
    let config =
      { Pea_vm.Jit.default_config with Pea_vm.Jit.compile_threshold = 2; compile_mode = mode }
    in
    let vm = Pea_vm.Vm.create ~config (Pea_bytecode.Link.compile_source src) in
    let r = Pea_vm.Vm.run_main_iterations vm 3 in
    Pea_vm.Vm.quiesce vm;
    (Pea_rt.Stats.snapshot (Pea_vm.Vm.stats vm), outcome r)
  in
  let tts (s : Pea_rt.Stats.snapshot) =
    s.Pea_rt.Stats.s_cycles + s.Pea_rt.Stats.s_compile_stall_cycles
  in
  let ranked =
    List.sort
      (fun (_, (a : Pea_rt.Stats.snapshot), _) (_, b, _) ->
        compare b.Pea_rt.Stats.s_compile_stall_cycles a.Pea_rt.Stats.s_compile_stall_cycles)
      (List.map
         (fun (row : Spec.row) ->
           let src = Codegen.source_for_row row in
           let s, o = measure src Pea_vm.Jit.Sync in
           (row, s, o))
         (Spec.dacapo @ Spec.scala_dacapo @ Spec.specjbb))
  in
  let rows = List.filteri (fun i _ -> i < 4) ranked in
  Printf.printf "%-14s | %12s %12s %12s %8s | %s\n" "row" "sync stall" "sync tts" "replay tts"
    "speedup" "results";
  let measured =
    List.map
      (fun ((row : Spec.row), sync_s, sync_o) ->
        let src = Codegen.source_for_row row in
        let replay_s, replay_o = measure src Pea_vm.Jit.Replay in
        let identical = sync_o = replay_o in
        let speedup = float_of_int (tts sync_s) /. float_of_int (tts replay_s) in
        Printf.printf "%-14s | %12d %12d %12d %7.3fx | %s\n%!" row.Spec.name
          sync_s.Pea_rt.Stats.s_compile_stall_cycles (tts sync_s) (tts replay_s) speedup
          (if identical then "identical" else "MISMATCH");
        (row, sync_s, replay_s, speedup, identical))
      rows
  in
  let oc = open_out "BENCH_parallel_jit.json" in
  output_string oc "[\n";
  List.iteri
    (fun i ((row : Spec.row), sync_s, replay_s, speedup, identical) ->
      Printf.fprintf oc
        "  {\"row\": %S, \"sync_stall_cycles\": %d, \"sync_time_to_steady\": %d, \
         \"replay_time_to_steady\": %d, \"speedup\": %.3f, \"results_identical\": %b}%s\n"
        row.Spec.name sync_s.Pea_rt.Stats.s_compile_stall_cycles (tts sync_s) (tts replay_s)
        speedup identical
        (if i = List.length measured - 1 then "" else ","))
    measured;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "wrote BENCH_parallel_jit.json\n";
  let top2 = List.filteri (fun i _ -> i < 2) measured in
  let faster = List.for_all (fun (_, s, r, _, _) -> tts r < tts s) top2 in
  let identical = List.for_all (fun (_, _, _, _, p) -> p) measured in
  Printf.printf
    "gate: replay beats sync to steady state on the two most compile-heavy rows: %s; results \
     identical across modes: %s\n"
    (if faster then "PASS" else "FAIL")
    (if identical then "PASS" else "FAIL")

(* ------------------------------------------------------------------ *)
(* Speculation-safety verifier                                         *)
(* ------------------------------------------------------------------ *)

(* Two contracts of the correctness tooling, checked on real workload
   rows. One: the verifier and the deopt oracle are pure observers —
   running them at any level moves no deterministic counter, so every
   BENCH_* baseline produced before they existed carries over unchanged
   and check_level=None is behaviourally identical to Every_phase.
   Two: the whole workload corpus verifies clean — zero false positives
   from SPEC01..SPEC10 on real compiled graphs. The compile-time cost of
   Every_phase is measured by re-running the full pipeline offline over
   every compilable method, wall clock, best of interleaved batches, and
   lands in BENCH_verify.json. *)
let verify_section () =
  header "Speculation safety: counter-drift gate, false-positive gate, verifier overhead";
  let rows = List.filteri (fun i _ -> i < 3) Spec.dacapo in
  let counters src level oracle =
    let config =
      {
        Pea_vm.Jit.default_config with
        Pea_vm.Jit.compile_threshold = 2;
        check_level = level;
        oracle;
      }
    in
    let vm = Pea_vm.Vm.create ~config (Pea_bytecode.Link.compile_source src) in
    (Pea_vm.Vm.run_main_iterations vm 3).Pea_vm.Vm.stats
  in
  (* offline pipeline re-runs over every compilable method: isolates the
     verifier's compile-time cost from mutator time. [compile level]
     compiles each method once; the timed batches repeat it [reps] times,
     and each level keeps its fastest of [batches] interleaved batches,
     as the profile section does, so scheduler noise cannot swamp the
     ratio. *)
  let batches = 5 and reps = 10 in
  let offline src =
    let program = Pea_bytecode.Link.compile_source src in
    let printed = ref [] in
    let env = Pea_rt.Run.make_env program ~printed in
    (try ignore (Pea_rt.Interp.run env (Pea_bytecode.Link.entry_exn program) [])
     with Pea_rt.Interp.Trap _ | Pea_rt.Interp.Mj_throw _ -> ());
    let profile = env.Pea_rt.Interp.profile in
    let methods =
      List.filter
        (fun m -> not (Pea_bytecode.Classfile.uses_exceptions m))
        (Array.to_list program.Pea_bytecode.Link.methods)
    in
    fun level ->
      let config = { Pea_vm.Jit.default_config with Pea_vm.Jit.check_level = level } in
      List.map (fun m -> Pea_vm.Jit.compile config program profile m) methods
  in
  let batch compile level =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (compile level)
    done;
    Unix.gettimeofday () -. t0
  in
  let best_of compile =
    let none = Pea_analysis.Spec_check.No_check and every = Pea_analysis.Spec_check.Every_phase in
    ignore (batch compile none) (* warm the allocator before timing *);
    ignore (batch compile every);
    let t_none = ref infinity and t_every = ref infinity in
    for _ = 1 to batches do
      t_none := Float.min !t_none (batch compile none);
      t_every := Float.min !t_every (batch compile every)
    done;
    (!t_none, !t_every)
  in
  Printf.printf "%-14s | %5s | %10s %10s %8s | %s\n" "row" "specs" "none s" "every s" "overhead"
    "counter drift (none/end/every/oracle)";
  let measured =
    List.map
      (fun (row : Spec.row) ->
        let src = Codegen.source_for_row row in
        let base = counters src Pea_analysis.Spec_check.No_check false in
        let drift =
          base = counters src Pea_analysis.Spec_check.Phase_end false
          && base = counters src Pea_analysis.Spec_check.Every_phase false
          && base = counters src Pea_analysis.Spec_check.Phase_end true
        in
        let compile = offline src in
        let graphs = compile Pea_analysis.Spec_check.No_check in
        let t_none, t_every = best_of compile in
        let violations =
          List.fold_left
            (fun acc (c : Pea_vm.Jit.compiled) ->
              acc
              + List.length (Pea_analysis.Spec_check.check ~phase:"final" c.Pea_vm.Jit.graph))
            0 graphs
        in
        let overhead = if t_none > 0. then t_every /. t_none else 1. in
        Printf.printf "%-14s | %5d | %10.4f %10.4f %7.2fx | %s\n%!" row.Spec.name violations
          t_none t_every overhead
          (if drift then "none" else "DRIFT");
        (row, violations, t_none, t_every, overhead, drift))
      rows
  in
  let oc = open_out "BENCH_verify.json" in
  output_string oc "[\n";
  List.iteri
    (fun i ((row : Spec.row), violations, t_none, t_every, overhead, drift) ->
      Printf.fprintf oc
        "  {\"row\": %S, \"violations\": %d, \"compile_s_check_none\": %.6f, \
         \"compile_s_check_every_phase\": %.6f, \"every_phase_overhead\": %.3f, \
         \"counter_drift\": %b}%s\n"
        row.Spec.name violations t_none t_every overhead (not drift)
        (if i = List.length measured - 1 then "" else ","))
    measured;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "wrote BENCH_verify.json\n";
  let clean = List.for_all (fun (_, v, _, _, _, _) -> v = 0) measured in
  let nodrift = List.for_all (fun (_, _, _, _, _, d) -> d) measured in
  Printf.printf
    "gate: zero counter drift across check levels and oracle: %s; corpus verifies clean: %s\n"
    (if nodrift then "PASS" else "FAIL")
    (if clean then "PASS" else "FAIL")

(* ------------------------------------------------------------------ *)
(* Multi-tenant serving harness                                        *)
(* ------------------------------------------------------------------ *)

(* Three serving contracts, measured end to end:
   1. throughput scales with worker domains on a warm shared cache
      (wall clock — the one number the deterministic counters cannot
      state; gated only when the host actually has the cores);
   2. a forced deopt storm in one tenant leaves every other tenant's
      p50/p99 latency within 10% of a stormless baseline (the harness's
      replay determinism actually makes them *exactly* equal);
   3. a replay-mode run is counter-identical to a threaded run of the
      same session — every tenant's results, latencies and VM counters,
      and the server's own counters. *)
let serving_section () =
  header "Multi-tenant serving: throughput scaling, storm isolation, replay determinism";
  let module Server = Pea_serve.Server in
  let module Sessions = Pea_workloads.Sessions in
  let jit = { Pea_vm.Jit.default_config with Pea_vm.Jit.compile_threshold = 4 } in
  let config mode = { Server.default_config with Server.sv_mode = mode; sv_jit = jit } in
  (* compute-heavy session: every tenant hammers the recursive handler,
     so worker domains have real parallel work once the shared cache is
     warm *)
  let heavy_script ~tenants ~rounds ~per_tenant =
    let req t n = { Server.rq_tenant = t; rq_class = "Svc"; rq_method = "fib"; rq_args = [ n ] } in
    {
      Server.sc_apps = [ ("calc-svc", Sessions.calc_app) ];
      sc_tenants = List.init tenants (fun i -> (Printf.sprintf "tenant-%d" i, 0));
      sc_rounds =
        List.init rounds (fun _ ->
            List.concat_map
              (fun t -> List.init per_tenant (fun i -> req t (14 + ((t + i) mod 3))))
              (List.init tenants Fun.id));
    }
  in
  let script = heavy_script ~tenants:8 ~rounds:6 ~per_tenant:6 in
  let requests = List.fold_left (fun n r -> n + List.length r) 0 script.Server.sc_rounds in
  let measure workers =
    let t0 = Unix.gettimeofday () in
    let r = Server.run ~config:(config (Server.Threaded workers)) script in
    let dt = Unix.gettimeofday () -. t0 in
    let lat = List.concat_map (fun tr -> tr.Server.tr_latencies) r.Server.r_tenants in
    (dt, float_of_int requests /. dt, Server.percentile lat 50, Server.percentile lat 99)
  in
  Printf.printf "%-8s | %9s %12s %10s %10s\n" "workers" "seconds" "requests/s" "p50 cycles"
    "p99 cycles";
  let rows =
    List.map
      (fun w ->
        let dt, rps, p50, p99 = measure w in
        Printf.printf "%-8d | %9.3f %12.0f %10d %10d\n%!" w dt rps p50 p99;
        (w, dt, rps, p50, p99))
      [ 1; 2; 4 ]
  in
  let rps_of w = List.find_map (fun (w', _, rps, _, _) -> if w' = w then Some rps else None) rows in
  let scaling =
    match (rps_of 1, rps_of 4) with Some a, Some b -> b /. a | _ -> 0.0
  in
  let cores = Domain.recommended_domain_count () in
  (* a gate the host cannot exercise is recorded as waived, not passed *)
  let scaling_gate =
    if cores < 2 then "waived: single-core host" else if scaling >= 1.5 then "pass" else "fail"
  in
  (* storm isolation, replay mode: victims' latency distribution against
     a stormless baseline of the byte-identical victim traffic *)
  let storm_jit = { Pea_vm.Jit.default_config with Pea_vm.Jit.compile_threshold = 20 } in
  let storm_config = { Server.default_config with Server.sv_jit = storm_jit } in
  let storm_script ~storm =
    Sessions.storm_script ~storm ~victims:3 ~rounds:26 ~requests_per_round:9 ~seed:11 ()
  in
  let stormy_run = Server.run ~config:storm_config (storm_script ~storm:true) in
  let quiet_run = Server.run ~config:storm_config (storm_script ~storm:false) in
  let victims r =
    List.filter (fun tr -> tr.Server.tr_name <> "stormy") r.Server.r_tenants
  in
  let p99s r = List.map (fun tr -> Server.percentile tr.Server.tr_latencies 99) (victims r) in
  let drift_pct =
    List.fold_left2
      (fun acc a b ->
        let d = 100.0 *. Float.abs (float_of_int (a - b)) /. float_of_int (max b 1) in
        Float.max acc d)
      0.0 (p99s stormy_run) (p99s quiet_run)
  in
  let quarantined = stormy_run.Server.r_quarantined = [ "stormy" ] in
  let storm_pass = quarantined && drift_pct <= 10.0 in
  Printf.printf
    "storm: stormy quarantined=%b; victim p99 drift vs stormless baseline = %.2f%% (gate: <= \
     10%%)\n"
    quarantined drift_pct;
  (* replay == threaded, counter for counter *)
  let det_script = Sessions.mixed_script ~tenants:4 ~rounds:10 ~requests_per_round:12 ~seed:42 () in
  let replay_r = Server.run ~config:(config Server.Replay) det_script in
  let threaded_r = Server.run ~config:(config (Server.Threaded 4)) det_script in
  let twin = replay_r = threaded_r in
  Printf.printf "replay run vs threaded run: %s\n"
    (if twin then "counter-identical" else "MISMATCH");
  let oc = open_out "BENCH_serving.json" in
  Printf.fprintf oc "{\n  \"cores\": %d,\n  \"requests\": %d,\n  \"throughput\": [\n" cores
    requests;
  List.iteri
    (fun i (w, dt, rps, p50, p99) ->
      Printf.fprintf oc
        "    {\"workers\": %d, \"seconds\": %.4f, \"requests_per_s\": %.1f, \"p50_cycles\": %d, \
         \"p99_cycles\": %d}%s\n"
        w dt rps p50 p99
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n  \"scaling_1_to_4\": %.3f,\n" scaling;
  Printf.fprintf oc "  \"scaling_gate\": %S,\n" scaling_gate;
  Printf.fprintf oc
    "  \"storm\": {\"stormy_quarantined\": %b, \"victim_p99_storm\": [%s], \"victim_p99_quiet\": \
     [%s], \"max_p99_drift_pct\": %.3f, \"pass\": %b},\n"
    quarantined
    (String.concat ", " (List.map string_of_int (p99s stormy_run)))
    (String.concat ", " (List.map string_of_int (p99s quiet_run)))
    drift_pct storm_pass;
  Printf.fprintf oc "  \"replay_equals_threaded\": %b\n}\n" twin;
  close_out oc;
  Printf.printf "wrote BENCH_serving.json\n";
  Printf.printf
    "gate: warm-cache throughput 1->4 workers %.2fx (>= 1.5x): %s; storm leaves victims' p99 \
     within 10%%: %s; replay == threaded: %s\n"
    scaling scaling_gate
    (if storm_pass then "PASS" else "FAIL")
    (if twin then "PASS" else "FAIL")

(* The paper's §6.1 observation: "the allocations not removed by Partial
   Escape Analysis often contain large arrays". Show the per-class
   breakdown of a representative workload without and with PEA. *)
let breakdown_section () =
  header "Allocation breakdown (§6.1: surviving allocations are array-dominated)";
  let row = Option.get (Spec.find "factorie") in
  let src = Codegen.source_for_row row in
  let show label opt =
    let config =
      { Pea_vm.Jit.default_config with Pea_vm.Jit.opt; compile_threshold = 2 }
    in
    let vm = Pea_vm.Vm.create ~config (Pea_bytecode.Link.compile_source src) in
    ignore (Pea_vm.Vm.run_main_iterations vm 3);
    Printf.printf "%s:
" label;
    List.iter
      (fun (name, count, bytes) ->
        Printf.printf "  %-12s %9d allocs %12d bytes
" name count bytes)
      (Pea_vm.Vm.class_breakdown vm)
  in
  show "without escape analysis" Pea_vm.Jit.O_none;
  show "with PEA" Pea_vm.Jit.O_pea

let () =
  let fast = Array.exists (fun a -> a = "--fast") Sys.argv in
  let take n xs = List.filteri (fun i _ -> i < n) xs in
  let dacapo = if fast then take 3 Spec.dacapo else Spec.dacapo in
  let scala = if fast then take 3 Spec.scala_dacapo else Spec.scala_dacapo in
  let r1 = run_suite Spec.Dacapo dacapo in
  let r2 = run_suite Spec.Scala_dacapo scala in
  let r3 = run_suite Spec.Specjbb Spec.specjbb in
  let all = r1 @ r2 @ r3 in
  lock_section all;
  comparison_section all;
  fig4_section ();
  ablation_section ();
  summaries_section ();
  inlining_section ();
  obs_section ();
  profile_section ();
  osr_section ();
  parallel_jit_section ();
  verify_section ();
  stackalloc_section ();
  serving_section ();
  breakdown_section ();
  if not fast then bechamel_section ();
  Printf.printf "\ndone.\n"
