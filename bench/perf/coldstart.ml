(* coldstart: wide programs from source to the end of one run.

   Each operation takes one seeded program from {!Wide} (120 classes of 4
   methods) through the front end, [Vm.create] and one [Vm.run] under
   [Jit.default_config]. Per program the front end is about a quarter of
   the time and JIT-compiling one hot method per class most of the rest,
   so compiler speed shows here and steady-state execution does not. *)

open Pea_vm
open Pea_rt

let pool_size = 100

(* Programs measured whatever the time budget; the model metrics are
   medians over these and peak memory is read after them, so both repeat
   for a seed, and 40 keep the model metrics' spread across seeds under
   1%. *)
let min_ops = 40

let program_seed seed i = (seed * 1000) + i

(* Set-up: generate the pool, then run one program untimed so the first
   measured one does not pay for a cold heap. *)
let setup seed =
  let pool = Array.init pool_size (fun i -> Wide.source (program_seed seed i)) in
  ignore (Vm.run (Vm.create (Pea_bytecode.Link.compile_source pool.(0))));
  pool

let run_program tr ~op src =
  let program = Front.compile_source tr ~op src in
  let vm = Span.with_span tr "vm.create" ~op (fun () -> Vm.create program) in
  let r = Span.with_span tr "vm.run" ~op (fun () -> Vm.run vm) in
  (program, vm, r)

(* Traced operations whose per-layer extra work (the lexer and verifier
   on their own, the phase replay) is done after the measured loop, on a
   rerun of the same program: the VM is deterministic, so the rerun ends
   in the state the measured run ended in, and the extra work never sits
   between measured operations. *)
let aux_ops = 10

let trace_program tr totals ~op src =
  let program, vm, r = run_program None ~op src in
  Front.lex_and_verify tr ~op src program;
  ignore (Replay.replay_vm tr ~op Jit.default_config program vm);
  Counts.record tr ~op totals r.Vm.stats;
  Span.count tr "core.virtualized" ~op (float_of_int r.Vm.jit_stats.Pea_core.Pea.virtualized_allocs);
  Span.count tr "core.materializations" ~op (float_of_int r.Vm.jit_stats.Pea_core.Pea.materializations)

let run (ctx : Workload.ctx) =
  let tally = Workload.tally ctx in
  let pool, setup_s = Workload.setup (fun ~last:_ -> setup ctx.seed) in
  Gc.compact ();
  let times = ref [] and model = ref [] and traced = ref [] and results = ref [] in
  let i = ref 0 and peak_rss_mb = ref 0. in
  let start = Sample.now_ms () in
  while Workload.measuring ctx ~start ~min_done:(!i >= min_ops) do
    let k = !i mod pool_size in
    let src = pool.(k) in
    let tr = Workload.tracer_for ctx !i in
    let op = Workload.fresh_op () in
    let (_, _, r), ms = Workload.timed_op tr ~op (fun () -> run_program tr ~op src) in
    times := (Workload.traced tr, ms) :: !times;
    if !i < min_ops then model := r.Vm.stats :: !model;
    if Workload.traced tr then traced := (op, k) :: !traced;
    results := (k, Reference.render_result r) :: !results;
    if !i = min_ops - 1 then peak_rss_mb := Outcome.peak_rss_mb ();
    incr i
  done;
  (* checked after the measured loop, so the reference runs' garbage
     never lands in a measured operation *)
  let ran = List.sort_uniq compare (List.map fst !results) in
  let expected = Hashtbl.create pool_size in
  List.iter2 (Hashtbl.replace expected) ran
    (Reference.parallel_map (fun k -> Reference.render_result (Vm.run (Reference.vm pool.(k)))) ran);
  List.iter (fun (k, got) -> Workload.check tally ~got ~want:(Hashtbl.find expected k)) (List.rev !results);
  match ctx.tracer with
  | Some t as tr ->
      let totals = Counts.create () in
      List.iteri (fun j (op, k) -> if j < aux_ops then trace_program tr totals ~op pool.(k)) (List.rev !traced);
      Workload.layer_outcome tally t ~agg:Sample.median ~samples:!times ~extra:(Counts.ratios totals)
  | None ->
      let ms = List.rev_map snd !times in
      let model_median f = Sample.median (List.map (fun s -> float_of_int (f s)) !model) in
      Workload.outcome tally ~ops:(List.length ms)
        (Workload.wall ~median:Sample.median ~units:(fun _ -> 1.) ~ms:Fun.id ms
        @ [
            ("setup_s", setup_s);
            ( "model_cycles_per_unit",
              model_median (fun s -> s.Stats.s_cycles + s.Stats.s_compile_stall_cycles) );
            ("allocs_per_unit", model_median (fun s -> s.Stats.s_allocations));
            ("alloc_bytes_per_unit", model_median (fun s -> s.Stats.s_allocated_bytes));
            ("peak_rss_mb", !peak_rss_mb);
          ])
