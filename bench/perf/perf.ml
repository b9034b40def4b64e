(* The repository benchmark. See README.md in this directory.

     perf.exe --workload W --seed N [--seconds S] [--trace 0|1]
              [--trace-dir DIR] [--corrupt]
     perf.exe --seed N [--seconds S] [--trace 0|1]
     perf.exe --compare A B [--bounds BENCHMARK.json]

   With --workload, one workload runs in this process and the last line
   printed is its result: {"correct", "attempted", "failed", "metrics"}.
   Without it, every workload runs in a child process of its own and one
   record per workload is printed, the input format of --compare. *)

open Perf_bench

let workloads =
  [
    ("steady", Steady.run);
    ("coldstart", Coldstart.run);
    ("serve-mixed", Serving.run_mixed);
    ("serve-storm", Serving.run_storm);
  ]

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let run_one ~workload ~seed ~seconds ~trace ~trace_dir ~corrupt =
  let run =
    match List.assoc_opt workload workloads with
    | Some run -> run
    | None -> failwith ("unknown workload " ^ workload)
  in
  let tracer = if trace then Some (Span.create ()) else None in
  let outcome = run { Workload.seed; seconds; tracer; corrupt } in
  let decls = if trace then Outcome.per_layer else Outcome.end_to_end in
  Printf.printf "%s seed %d%s: %d operations timed, %d results checked, %d failed (failed_frac %.6f)\n"
    workload seed
    (if trace then " (traced)" else "")
    outcome.Outcome.ops outcome.Outcome.attempted outcome.Outcome.failed
    (float_of_int outcome.Outcome.failed /. float_of_int (max 1 outcome.Outcome.attempted));
  Format.printf "%a%!" (Outcome.pp_metrics decls) outcome;
  Option.iter
    (fun tr ->
      let spans = Span.spans tr in
      let table = Span.self_table spans in
      Format.printf "%a%!" Span.pp_self_table table;
      Option.iter
        (fun dir ->
          write_file (Filename.concat dir (workload ^ ".trace.json")) (Span.chrome_json spans);
          write_file
            (Filename.concat dir (workload ^ ".self.txt"))
            (Format.asprintf "%a" Span.pp_self_table table))
        trace_dir)
    tracer;
  print_endline (Outcome.to_json decls outcome);
  if outcome.Outcome.failed > 0 then exit 1

(* Every workload in a fresh child process, so each reports its own peak
   memory and none inherits another's heap. *)
let run_all ~seed ~seconds ~trace =
  let ok =
    List.for_all Fun.id
      (List.map
         (fun (workload, _) ->
           let args =
             [|
               Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
               "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0");
             |]
           in
           let ic = Unix.open_process_args_in Sys.executable_name args in
           let rec forward last =
             match input_line ic with
             | line ->
                 print_endline line;
                 forward (Some line)
             | exception End_of_file -> last
           in
           let last = forward None in
           let status = Unix.close_process_in ic in
           (match last with
           | Some result when String.length result > 0 && result.[0] = '{' ->
               Printf.printf "{\"workload\": %S, \"seed\": %d, \"trace\": %d, \"result\": %s}\n%!" workload
                 seed (if trace then 1 else 0) result
           | _ -> ());
           status = Unix.WEXITED 0)
         workloads)
  in
  if not ok then exit 1

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10. and trace = ref false in
  let trace_dir = ref None and corrupt = ref false and compare = ref [] in
  let bounds = ref "BENCHMARK.json" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W  one of steady, coldstart, serve-mixed, serve-storm");
      ("--seed", Arg.Set_int seed, "N  input seed (required to run)");
      ("--seconds", Arg.Set_float seconds, "S  wall time of the measured loop (default 10)");
      ( "--trace",
        Arg.Int (fun t -> trace := t <> 0),
        "0|1  1 runs traced and reports the per-layer metrics" );
      ( "--trace-dir",
        Arg.String
          (fun d ->
            trace := true;
            trace_dir := Some d),
        "DIR  traced run; write <workload>.trace.json and <workload>.self.txt into DIR" );
      ("--corrupt", Arg.Set corrupt, " falsify one expected value (tests the correctness gate)");
      ( "--compare",
        Arg.Tuple [ Arg.String (fun a -> compare := [ a ]); Arg.String (fun b -> compare := !compare @ [ b ]) ],
        "A B  compare two sets of result records" );
      ("--bounds", Arg.Set_string bounds, "FILE  bounds for --compare (default BENCHMARK.json)");
    ]
  in
  let usage = "perf.exe (--workload W --seed N | --seed N | --compare A B) [options]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match !compare with
  | [ a; b ] -> if not (Compare.run ~bounds_path:!bounds a b) then exit 1
  | _ ->
      if !seed < 0 || !seconds <= 0. then (
        Arg.usage spec usage;
        exit 2);
      if !workload = "" then run_all ~seed:!seed ~seconds:!seconds ~trace:!trace
      else
        run_one ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace ~trace_dir:!trace_dir
          ~corrupt:!corrupt
