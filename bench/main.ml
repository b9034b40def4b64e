(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6) on the synthetic workload suite, plus one gated
   section for each extension.

   Sections:
     1. Table 1, DaCapo block       (MB/iter, MAllocs/iter, iters/min)
     2. Table 1, ScalaDaCapo block
     3. Table 1, SPECjbb2005 row
     4. §6.1 "Number of Locks"      (monitor-operation reductions)
     5. §6.2 comparison             (whole-method EA vs PEA, per suite)
     6. Figure 4 micro-patterns     (per-pattern optimization effects)
     7. Ablations                   (design choices toggled off)
     8. Gated sections, each writing BENCH_<name>.json: summaries,
        inlining, obs, profile, osr, verify, stackalloc, serving
     9. §6.1 allocation breakdown

   Absolute numbers are not comparable with the paper (the substrate is a
   deterministic simulator, see DESIGN.md); the reproduced quantity is the
   per-row relative change and the ordering between configurations. The
   run exits 1 if and only if some gate fails. Wall-clock benchmarking of
   the implementation itself is bench/perf's job. *)

open Pea_workloads
module Json = Pea_obs.Json
module Jit = Pea_vm.Jit
module Vm = Pea_vm.Vm
module Stats = Pea_rt.Stats

let line = String.make 110 '-'

let header title = Printf.printf "\n%s\n%s\n%s\n%!" line title line

(* ------------------------------------------------------------------ *)
(* Gated sections and their files                                      *)
(* ------------------------------------------------------------------ *)

(* A gate the host cannot exercise is waived, never passed. *)
type gate = Pass | Fail | Waived of string

let verdict ok = if ok then Pass else Fail

let gate_string = function Pass -> "pass" | Fail -> "fail" | Waived why -> "waived: " ^ why

(* What a gated section returns: one JSON object per row, any
   section-level fields, the names of its wall-clock and host fields
   (every other field is a model quantity that must reproduce exactly),
   and its gates. *)
type section = {
  name : string;
  rows : Json.field list list;
  fields : Json.field list;
  measured : string list;
  gates : (string * gate) list;
}

let section ?(fields = []) ?(measured = []) name rows gates =
  { name; rows; fields; measured; gates }

let all p xs = verdict (List.for_all p xs)

(* Writes BENCH_<name>.json as one object, one row per line so diffs stay
   readable, and prints one line per gate. *)
let emit s =
  let file = Printf.sprintf "BENCH_%s.json" s.name in
  let rows = List.map (fun r -> "\n    " ^ Json.obj r) s.rows in
  let gates = List.map (fun (n, g) -> Json.str_field n (gate_string g)) s.gates in
  let top =
    (("rows", "[" ^ String.concat "," rows ^ "\n  ]") :: s.fields)
    @ [ ("measured", Json.arr (List.map Json.str s.measured)); ("gates", Json.obj gates) ]
  in
  let lines = List.map (fun (k, v) -> "\n  " ^ Json.str k ^ ": " ^ v) top in
  Out_channel.with_open_text file (fun oc ->
      Printf.fprintf oc "{%s\n}\n" (String.concat "," lines));
  Printf.printf "wrote %s\n" file;
  List.iter (fun (n, g) -> Printf.printf "gate: %s.%s: %s\n" s.name n (gate_string g)) s.gates;
  s.gates

(* What a run computed: its return value and everything it printed. *)
let outcome (r : Vm.result) =
  ( (match r.Vm.return_value with None -> "void" | Some v -> Pea_rt.Value.string_of_value v),
    List.map Pea_rt.Value.string_of_value r.Vm.printed )

(* Wall seconds of one call of [f x] *)
let time f x =
  let t0 = Unix.gettimeofday () in
  ignore (f x);
  Unix.gettimeofday () -. t0

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* How much dearer [f b] is than [f a]: the median [b / a] ratio over
   [pairs] pairs of calls, one of each side back to back (which side goes
   first alternates), after an untimed call of each that warms the
   allocator; with the median call times. Every call builds fresh state,
   so one timing carries enough scheduler noise to swamp a 10% budget;
   the two calls of a pair, a few milliseconds apart, share the host's
   load, so load that shifts between pairs cancels in their ratio, and
   the median passes over the pairs a burst of load splits. *)
let pairs = 301

let median_ratio f a b =
  let time = time f in
  ignore (time a);
  ignore (time b);
  let runs =
    List.init pairs (fun i ->
        if i mod 2 = 0 then
          let t_a = time a in
          (t_a, time b)
        else
          let t_b = time b in
          (time a, t_b))
  in
  ( median (List.map fst runs),
    median (List.map snd runs),
    median (List.map (fun (t_a, t_b) -> t_b /. t_a) runs) )

(* The JIT's inputs without a VM: the program, an interpreter profile of
   one [main] run (so the pipeline speculates the way a running VM's
   would), and every method the JIT compiles. *)
let offline src =
  let program = Pea_bytecode.Link.compile_source src in
  let methods =
    List.filter (fun m -> Jit.compilable m) (Array.to_list program.Pea_bytecode.Link.methods)
  in
  (program, Pea_rt.Run.profile program, methods)

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
   aborts the compile, and the row then fails) and the deopt oracle on.
   The gate: pea+stackalloc strictly beats pea on cycles, steady-state
   heap allocations reach zero on the non-deopt rows, the deopt row
   actually promotes, and results are bit-identical across opt x
   stackalloc. *)
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
  (* steady state: warm 2 iterations (everything compiles at threshold
     2), then measure per-iteration deltas over 3 more *)
  let cell src ~threshold ~opt ~stackalloc =
    let config =
      {
        Jit.default_config with
        Jit.compile_threshold = threshold;
        opt;
        stackalloc;
        check_level = Pea_analysis.Spec_check.Every_phase;
        oracle = true;
      }
    in
    Harness.steady_state ~config src
  in
  (* offline SPEC12 sweep: compile every method of the row the way the
     VM would and count verifier violations on the final graphs; the
     compile itself checks nothing, or a violation would abort it *)
  let spec12_count src =
    let program, profile, methods = offline src in
    let summaries = Pea_analysis.Summary.analyze program in
    let config = { Jit.default_config with Jit.check_level = Pea_analysis.Spec_check.No_check } in
    List.fold_left
      (fun acc m ->
        match Jit.compile ~summaries config program profile m with
        | c ->
            acc
            + List.length
                (List.filter
                   (fun (v : Pea_analysis.Spec_check.violation) ->
                     v.Pea_analysis.Spec_check.v_rule = "SPEC12")
                   (Pea_analysis.Spec_check.check ~summaries ~phase:"final" c.Jit.graph))
        | exception Pea_ir.Builder.Build_error _ -> acc)
      0 methods
  in
  Printf.printf "%-14s | %10s %10s %8s | %9s %9s %9s %9s | %s\n" "row" "pea cyc" "+stack cyc"
    "speedup" "allocs/it" "stack/it" "reclaim" "promote" "parity (4 cells)";
  let per_iter n = n / Harness.default_measure in
  let result (name, threshold, src) =
    (* counted before the cells run: a SPEC12 violation aborts their
       compiles, and the row still reports it *)
    let spec12 = spec12_count src in
    match
      let off_r, off = cell src ~threshold ~opt:Jit.O_pea ~stackalloc:false in
      let on_r, on = cell src ~threshold ~opt:Jit.O_pea ~stackalloc:true in
      let out0 = outcome off_r in
      (* full matrix: opt x stackalloc, every cell oracle-checked, all
         results must be bit-identical *)
      let parity =
        List.for_all
          (fun (opt, stackalloc) -> outcome (fst (cell src ~threshold ~opt ~stackalloc)) = out0)
          [ (Jit.O_none, false); (Jit.O_ea, false); (Jit.O_pea, false); (Jit.O_pea, true) ]
      in
      (off, on_r, on, parity)
    with
    | exception Failure msg ->
        (* a failed row: every gate that reads its cells fails *)
        let first_line = List.hd (String.split_on_char '\n' msg) in
        Printf.printf "%-14s | compile failed, SPEC12: %d | %s\n%!" name spec12 first_line;
        ( (name, false, -1, 0, false, spec12),
          [
            Json.str_field "row" name;
            Json.str_field "compile_failure" first_line;
            Json.int_field "spec12_violations" spec12;
          ] )
    | off, on_r, on, parity ->
        let cycles_off = per_iter off.Stats.s_cycles and cycles_on = per_iter on.Stats.s_cycles in
        let allocs_on = per_iter on.Stats.s_allocations in
        let stack_on = per_iter on.Stats.s_stack_allocs in
        let reclaimed = per_iter on.Stats.s_stack_reclaimed in
        (* promotions happen at the one deopt before the site is
           blacklisted and the method recompiled without the pruned
           branch, so they are invisible in the steady-state delta:
           report the run's cumulative total instead *)
        let promoted = on_r.Vm.stats.Stats.s_stack_promotions in
        let speedup = float_of_int cycles_off /. float_of_int cycles_on in
        Printf.printf "%-14s | %10d %10d %7.2fx | %9d %9d %9d %9d | %s, SPEC12: %d\n%!" name
          cycles_off cycles_on speedup allocs_on stack_on reclaimed promoted
          (if parity then "identical" else "MISMATCH")
          spec12;
        ( (name, cycles_on < cycles_off, allocs_on, promoted, parity, spec12),
          [
            Json.str_field "row" name;
            Json.int_field "pea_cycles_per_iter" cycles_off;
            Json.int_field "stackalloc_cycles_per_iter" cycles_on;
            Json.int_field "pea_allocs_per_iter" (per_iter off.Stats.s_allocations);
            Json.int_field "stackalloc_allocs_per_iter" allocs_on;
            Json.int_field "stack_allocs_per_iter" stack_on;
            Json.int_field "stack_reclaimed_per_iter" reclaimed;
            Json.int_field "stack_promotions_total" promoted;
            Json.bool_field "results_identical" parity;
            Json.int_field "spec12_violations" spec12;
          ] )
  in
  let checks, rows = List.split (List.map result stackalloc_rows) in
  section "stackalloc" rows
    [
      ("beats_pea_on_cycles", all (fun (_, faster, _, _, _, _) -> faster) checks);
      ( "zero_heap_allocs",
        all (fun (name, _, allocs, _, _, _) -> name = "deopt-promote" || allocs = 0) checks );
      ( "deopt_promotes",
        verdict
          (List.exists (fun (name, _, _, promoted, _, _) -> name = "deopt-promote" && promoted > 0)
             checks) );
      ("results_identical", all (fun (_, _, _, _, parity, _) -> parity) checks);
      ("spec12_clean", all (fun (_, _, _, _, _, spec12) -> spec12 = 0) checks);
    ]

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

(* The design choices DESIGN.md calls out, each toggled off on the most
   PEA-sensitive workload (the factorie row). *)
let ablation_section () =
  header "Ablations (factorie workload): which design choices carry the win";
  let row = Option.get (Spec.find "factorie") in
  let src = Codegen.source_for_row row in
  let base = { Jit.default_config with Jit.compile_threshold = 2 } in
  let variants =
    [
      ("no escape analysis", { base with Jit.opt = Jit.O_none });
      ("whole-method EA", { base with Jit.opt = Jit.O_ea });
      ("PEA, no inlining", { base with Jit.opt = Jit.O_pea; inline = false });
      ("PEA, no dead-object pruning", { base with Jit.opt = Jit.O_pea; pea_prune_dead = false });
      ("PEA, no speculation", { base with Jit.opt = Jit.O_pea; prune = false });
      ("PEA, no read elimination", { base with Jit.opt = Jit.O_pea; read_elim = false });
      ("PEA (full)", { base with Jit.opt = Jit.O_pea });
    ]
  in
  Printf.printf "%-30s | %12s %12s %14s\n" "configuration" "kAllocs/it" "MB/it" "iters/min";
  List.iter
    (fun (name, config) ->
      let _, w = Harness.steady_state ~config src in
      let per_iter n = float_of_int n /. float_of_int Harness.default_measure in
      Printf.printf "%-30s | %12.1f %12.3f %14.0f\n%!" name
        (per_iter w.Stats.s_allocations /. 1e3)
        (per_iter w.Stats.s_allocated_bytes /. 1048576.)
        (60e9 /. per_iter w.Stats.s_cycles))
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
  let variants =
    [
      ("none", Jit.O_none, false);
      ("ea", Jit.O_ea, false);
      ("ea", Jit.O_ea, true);
      ("pea", Jit.O_pea, false);
      ("pea", Jit.O_pea, true);
    ]
  in
  Printf.printf "%-6s %-9s | %12s %14s %12s %14s %12s\n" "opt" "summaries" "allocs"
    "alloc bytes" "monitors" "cycles" "scratch";
  let result (opt_name, opt, summaries) =
    let config = { Jit.default_config with Jit.compile_threshold = 2; opt; summaries } in
    let _, w = Harness.steady_state ~config src in
    Printf.printf "%-6s %-9s | %12d %14d %12d %14d %12d\n%!" opt_name
      (if summaries then "on" else "off")
      w.Stats.s_allocations w.Stats.s_allocated_bytes w.Stats.s_monitor_ops w.Stats.s_cycles
      w.Stats.s_stack_allocs;
    ( ((opt_name, summaries), w.Stats.s_allocated_bytes),
      [
        Json.str_field "opt" opt_name;
        Json.bool_field "summaries" summaries;
        Json.int_field "allocations" w.Stats.s_allocations;
        Json.int_field "allocated_bytes" w.Stats.s_allocated_bytes;
        Json.int_field "monitor_ops" w.Stats.s_monitor_ops;
        Json.int_field "cycles" w.Stats.s_cycles;
        Json.int_field "stack_allocs" w.Stats.s_stack_allocs;
      ] )
  in
  let bytes, rows = List.split (List.map result variants) in
  let without = List.assoc ("pea", false) bytes and with_ = List.assoc ("pea", true) bytes in
  Printf.printf "O_pea allocated bytes, summaries off -> on: %d -> %d\n" without with_;
  section "summaries" rows [ ("pea_bytes_cut", verdict (with_ < without)) ]

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
  (* every cell runs with the correctness tooling fully on: the verifier
     audits the guard/deopt metadata after every phase (a violation
     aborts the compile) and the oracle bisimulates every guard deopt
     against a shadow interpreter replay (a divergence raises) *)
  let cell (name, inlining, tooling) =
    let config =
      {
        Jit.default_config with
        Jit.compile_threshold = 2;
        opt = Jit.O_pea;
        inlining;
        check_level =
          (if tooling then Pea_analysis.Spec_check.Every_phase
           else Pea_analysis.Spec_check.No_check);
        oracle = tooling;
      }
    in
    let r, w = Harness.steady_state ~config src in
    let per_iter n = n / Harness.default_measure and s = r.Vm.stats in
    let allocs = per_iter w.Stats.s_allocations and cycles = per_iter w.Stats.s_cycles in
    let bytes = per_iter w.Stats.s_allocated_bytes in
    let specs = s.Stats.s_speculative_inlines and gdeopts = s.Stats.s_guard_deopts in
    let skips = s.Stats.s_inline_blacklist_skips in
    Printf.printf "%-22s | %10d %12d %12d | %6d %7d %6d\n%!" name allocs bytes cycles specs gdeopts
      skips;
    ( (name, allocs, cycles, specs, gdeopts, skips, outcome r),
      [
        Json.str_field "config" name;
        Json.bool_field "inlining" inlining;
        Json.bool_field "tooling" tooling;
        Json.int_field "allocations_per_iter" allocs;
        Json.int_field "allocated_bytes_per_iter" bytes;
        Json.int_field "cycles_per_iter" cycles;
        Json.int_field "speculative_inlines" specs;
        Json.int_field "guard_deopts" gdeopts;
        Json.int_field "blacklist_skips" skips;
      ] )
  in
  Printf.printf "%-22s | %10s %12s %12s | %6s %7s %6s\n" "configuration" "allocs/it" "bytes/it"
    "cycles/it" "specs" "gdeopts" "skips";
  let cells, rows =
    List.split
      (List.map cell
         [
           ("pea+summaries", false, true);
           ("pea+inlining", true, true);
           ("pea+summaries no-tool", false, false);
           ("pea+inlining no-tool", true, false);
         ])
  in
  let find name = List.find (fun (n, _, _, _, _, _, _) -> n = name) cells in
  let _, a_off, c_off, _, _, _, o_off = find "pea+summaries" in
  let _, a_on, c_on, specs, gdeopts, skips, _ = find "pea+inlining" in
  Printf.printf
    "speculated %d sites, %d guard deopts, %d blacklist fallbacks; allocations %d -> %d, cycles \
     %d -> %d per iteration\n"
    specs gdeopts skips a_off a_on c_off c_on;
  section "inlining" rows
    [
      ("fewer_allocations", verdict (a_on < a_off));
      ("fewer_cycles", verdict (c_on < c_off));
      ("results_identical", all (fun (_, _, _, _, _, _, o) -> o = o_off) cells);
    ]

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

(* The tracing subsystem's two contracts, checked on a real workload row:
   handing a VM a tracer moves no deterministic counter, and the captured
   trace is byte-for-byte identical across runs. *)
let obs_section () =
  header "Observability: tracing overhead and determinism gate";
  let row = Option.get (Spec.find "factorie") in
  let src = Codegen.source_for_row row in
  let run traced =
    let config = { Jit.default_config with Jit.compile_threshold = 2 } in
    let trace = if traced then Some (Pea_obs.Trace.create ()) else None in
    let vm = Vm.create ?trace ~config (Pea_bytecode.Link.compile_source src) in
    (Vm.run_main_iterations vm 3, trace)
  in
  let off, _ = run false in
  let on, tracer1 = run true in
  let _, tracer2 = run true in
  let t1 = Option.get tracer1 and t2 = Option.get tracer2 in
  let counters_identical = off.Vm.stats = on.Vm.stats in
  let deterministic = Pea_obs.Trace.jsonl_string t1 = Pea_obs.Trace.jsonl_string t2 in
  let events = Pea_obs.Trace.length t1 and dropped = Pea_obs.Trace.dropped t1 in
  Printf.printf "events captured: %d (dropped: %d)\n" events dropped;
  section "obs"
    [
      [
        Json.str_field "workload" row.Spec.name;
        Json.int_field "events" events;
        Json.int_field "dropped" dropped;
        Json.bool_field "counters_identical" counters_identical;
        Json.bool_field "trace_deterministic" deterministic;
      ];
    ]
    [
      ("counters_identical", verdict counters_identical);
      ("trace_deterministic", verdict deterministic);
    ]

(* ------------------------------------------------------------------ *)
(* Profiling                                                           *)
(* ------------------------------------------------------------------ *)

(* The profiler's three contracts on the megamorphic inlining workload:
   handing a VM the sampling + heap profilers moves no deterministic
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
    let config = { Jit.default_config with Jit.compile_threshold = 2; opt = Jit.O_pea } in
    let cpu, heap =
      if profiled then (Some (Pcpu.create ()), Some (Pheap.create ())) else (None, None)
    in
    let program = Pea_bytecode.Link.compile_source src in
    let vm = Vm.create ?cpu ?heap ~config program in
    let r = Vm.run_main_iterations vm 3 in
    let report =
      match (cpu, heap) with
      | Some cpu, Some heap when collect_report ->
          Some
            (Pea_vm.Report.to_string
               (Pea_vm.Report.collect ~program ~cpu ~heap
                  ~pea_sites:(Vm.jit_stats vm).Pea_core.Pea.sites ()))
      | _ -> None
    in
    (r.Vm.stats, report)
  in
  let off_stats, _ = run false in
  let on_stats, report1 = run true in
  let _, report2 = run true in
  let counters_identical = off_stats = on_stats in
  let deterministic = report1 = report2 && Option.is_some report1 in
  (* the timed half excludes report aggregation: the gate is about the
     always-on cost of sampling, not the one-shot readout *)
  let t_off, t_on, overhead =
    median_ratio (fun profiled -> run ~collect_report:false profiled) false true
  in
  Printf.printf "wall clock, median of %d interleaved pairs of runs: off %.4fs, on %.4fs, on/off %.3fx\n"
    pairs t_off t_on overhead;
  section "profile" ~measured:[ "wall_s_off"; "wall_s_on"; "overhead" ]
    [
      [
        Json.str_field "workload" "megamorphic-inlining";
        Json.int_field "reps" 1 (* runs per timed sample *);
        Json.float_field "wall_s_off" ~decimals:6 t_off;
        Json.float_field "wall_s_on" ~decimals:6 t_on;
        Json.float_field "overhead" ~decimals:4 overhead;
        Json.bool_field "counters_identical" counters_identical;
        Json.bool_field "report_deterministic" deterministic;
      ];
    ]
    [
      ("counters_identical", verdict counters_identical);
      ("report_deterministic", verdict deterministic);
      ("overhead_ok", verdict (overhead <= 1.10));
    ]

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
  (* compile_threshold maxed out: the only road to compiled code is OSR *)
  let run src ~osr =
    let config = { Jit.default_config with Jit.compile_threshold = max_int; osr } in
    Vm.run (Vm.create ~config (Pea_bytecode.Link.compile_source src))
  in
  Printf.printf "%-14s | %12s %12s %8s | %7s %11s | %s\n" "row" "interp cyc" "osr cyc" "speedup"
    "entries" "allocs" "results";
  let result (name, src) =
    let interp = run src ~osr:false in
    let osr = run src ~osr:true in
    let ic = interp.Vm.stats.Stats.s_cycles in
    let oc = osr.Vm.stats.Stats.s_cycles in
    let entries = osr.Vm.stats.Stats.s_osr_entries in
    let parity = outcome interp = outcome osr in
    let speedup = float_of_int ic /. float_of_int oc in
    Printf.printf "%-14s | %12d %12d %7.2fx | %7d %5d->%-5d | %s\n%!" name ic oc speedup
      entries interp.Vm.stats.Stats.s_allocations osr.Vm.stats.Stats.s_allocations
      (if parity then "identical" else "MISMATCH");
    ( (entries >= 1, oc < ic, parity),
      [
        Json.str_field "row" name;
        Json.int_field "interp_cycles" ic;
        Json.int_field "osr_cycles" oc;
        Json.float_field "speedup" ~decimals:3 speedup;
        Json.int_field "osr_entries" entries;
        Json.bool_field "result_parity" parity;
      ] )
  in
  let checks, rows = List.split (List.map result rows) in
  section "osr" rows
    [
      ("osr_entered", all (fun (entered, _, _) -> entered) checks);
      ("beats_interpreter", all (fun (_, faster, _) -> faster) checks);
      ("result_parity", all (fun (_, _, parity) -> parity) checks);
    ]

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
   every compilable method, wall clock, the median of paired batches, and
   lands in BENCH_verify.json. *)
let verify_section () =
  header "Speculation safety: counter-drift gate, false-positive gate, verifier overhead";
  let rows = List.filteri (fun i _ -> i < 3) Spec.dacapo in
  let counters src level oracle =
    let config =
      { Jit.default_config with Jit.compile_threshold = 2; check_level = level; oracle }
    in
    let vm = Vm.create ~config (Pea_bytecode.Link.compile_source src) in
    (Vm.run_main_iterations vm 3).Vm.stats
  in
  Printf.printf "%-14s | %5s | %10s %10s %8s | %s\n" "row" "specs" "none s" "every s" "overhead"
    "counter drift (none/end/every/oracle)";
  let none = Pea_analysis.Spec_check.No_check and every = Pea_analysis.Spec_check.Every_phase in
  let result (row : Spec.row) =
    let src = Codegen.source_for_row row in
    let base = counters src none false in
    let drift_free =
      base = counters src Pea_analysis.Spec_check.Phase_end false
      && base = counters src every false
      && base = counters src Pea_analysis.Spec_check.Phase_end true
    in
    (* offline pipeline re-runs over every compilable method isolate
       the verifier's compile-time cost from mutator time *)
    let program, profile, methods = offline src in
    let compile level =
      let config = { Jit.default_config with Jit.check_level = level } in
      List.map (fun m -> Jit.compile config program profile m) methods
    in
    let graphs = compile none in
    let t_none, t_every, overhead = median_ratio compile none every in
    let violations =
      List.fold_left
        (fun acc (c : Jit.compiled) ->
          acc + List.length (Pea_analysis.Spec_check.check ~phase:"final" c.Jit.graph))
        0 graphs
    in
    Printf.printf "%-14s | %5d | %10.4f %10.4f %7.2fx | %s\n%!" row.Spec.name violations
      t_none t_every overhead
      (if drift_free then "none" else "DRIFT");
    ( (violations = 0, drift_free),
      [
        Json.str_field "row" row.Spec.name;
        Json.int_field "violations" violations;
        Json.float_field "compile_s_check_none" ~decimals:6 t_none;
        Json.float_field "compile_s_check_every_phase" ~decimals:6 t_every;
        Json.float_field "every_phase_overhead" ~decimals:3 overhead;
        Json.bool_field "counter_drift" (not drift_free);
      ] )
  in
  let checks, rows = List.split (List.map result rows) in
  section "verify" rows
    ~measured:[ "compile_s_check_none"; "compile_s_check_every_phase"; "every_phase_overhead" ]
    [ ("no_counter_drift", all snd checks); ("corpus_clean", all fst checks) ]

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
  let jit = { Jit.default_config with Jit.compile_threshold = 4 } in
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
  Printf.printf "%-8s | %9s %12s %10s %10s\n" "workers" "seconds" "requests/s" "p50 cycles"
    "p99 cycles";
  let throughput =
    List.map
      (fun workers ->
        let t0 = Unix.gettimeofday () in
        let r = Server.run ~config:(config (Server.Threaded workers)) script in
        let dt = Unix.gettimeofday () -. t0 in
        let lat = List.concat_map (fun tr -> tr.Server.tr_latencies) r.Server.r_tenants in
        let rps = float_of_int requests /. dt in
        let p50 = Server.percentile lat 50 and p99 = Server.percentile lat 99 in
        Printf.printf "%-8d | %9.3f %12.0f %10d %10d\n%!" workers dt rps p50 p99;
        ( workers,
          ( rps,
            [
              Json.int_field "workers" workers;
              Json.float_field "seconds" ~decimals:4 dt;
              Json.float_field "requests_per_s" ~decimals:1 rps;
              Json.int_field "p50_cycles" p50;
              Json.int_field "p99_cycles" p99;
            ] ) ))
      [ 1; 2; 4 ]
  in
  let rps workers = fst (List.assoc workers throughput) in
  let scaling = rps 4 /. rps 1 in
  let cores = Domain.recommended_domain_count () in
  (* storm isolation, replay mode: victims' latency distribution against
     a stormless baseline of the byte-identical victim traffic *)
  let storm_jit = { Jit.default_config with Jit.compile_threshold = 20 } in
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
  let ints xs = Json.arr (List.map string_of_int xs) in
  section "serving"
    (List.map (fun (_, (_, row)) -> row) throughput)
    ~fields:
      [
        Json.int_field "cores" cores;
        Json.int_field "requests" requests;
        Json.float_field "scaling_1_to_4" ~decimals:3 scaling;
        ( "storm",
          Json.obj
            [
              Json.bool_field "stormy_quarantined" quarantined;
              ("victim_p99_storm", ints (p99s stormy_run));
              ("victim_p99_quiet", ints (p99s quiet_run));
              Json.float_field "max_p99_drift_pct" ~decimals:3 drift_pct;
            ] );
        Json.bool_field "replay_equals_threaded" twin;
      ]
    ~measured:[ "cores"; "seconds"; "requests_per_s"; "scaling_1_to_4" ]
    [
      ( "throughput_scaling",
        if cores < 2 then Waived "single-core host" else verdict (scaling >= 1.5) );
      ("storm_isolation", verdict (quarantined && drift_pct <= 10.0));
      ("replay_equals_threaded", verdict twin);
    ]

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
    let ledger = Pea_obs.Profile_heap.create () in
    let vm = Pea_vm.Vm.create ~heap:ledger ~config (Pea_bytecode.Link.compile_source src) in
    ignore (Pea_vm.Vm.run_main_iterations vm 3);
    Printf.printf "%s:\n" label;
    List.iter
      (fun (name, count, bytes) ->
        Printf.printf "  %-12s %9d allocs %12d bytes\n" name count bytes)
      (Pea_obs.Profile_heap.by_class ledger)
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
  let gates =
    List.concat_map
      (fun section -> emit (section ()))
      [ summaries_section; inlining_section; obs_section; profile_section; osr_section;
        verify_section; stackalloc_section; serving_section ]
  in
  breakdown_section ();
  let count p = List.length (List.filter (fun (_, g) -> p g) gates) in
  let failed = count (( = ) Fail) in
  Printf.printf "\n%d gates: %d pass, %d fail, %d waived\n" (List.length gates)
    (count (( = ) Pass))
    failed
    (count (function Waived _ -> true | Pass | Fail -> false));
  if failed > 0 then exit 1
