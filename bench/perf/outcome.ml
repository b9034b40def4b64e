(* Metric declarations and the result a workload run reports.

   Every workload reports every metric: an operation ("op") is the unit
   of work a workload repeats, and the README defines it per workload
   (one benchmark iteration, one program, one serving round, one
   session). BENCHMARK.json at the repository root lists the same names
   with their regression bounds; a test keeps the two in step. *)

type better = Lower | Higher

(* [Wall] numbers are measured on the host and compared within a bound;
   [Model] numbers come from the deterministic cost model and repeat
   exactly for a given seed. *)
type kind = Wall | Model

type decl = { name : string; unit_ : string; better : better; kind : kind }

let d name unit_ better kind = { name; unit_; better; kind }

let end_to_end =
  [
    d "setup_s" "s" Lower Wall;
    d "op_ms_p50_norm" "ms" Lower Wall;
    d "units_per_s_norm" "1/s" Higher Wall;
    d "model_cycles_per_unit" "cycles" Lower Model;
    d "allocs_per_unit" "count" Lower Model;
    d "alloc_bytes_per_unit" "bytes" Lower Model;
    d "peak_rss_mb" "MB" Lower Wall;
  ]

(* Per-layer metrics of the traced run. Layers are named after the
   module whose public function a span times.

   - "<layer>_ms" is the mean time per operation spent in spans of that
     layer. The front end and the JIT phases are timed on every workload
     (the JIT phases by the phase replay of {!Replay}), so these are
     measured everywhere.
   - "<layer>_share" is the share of the operations' wall time spent in
     that top-level layer; 0 on a workload whose operations never call
     into it. *)
let timed_layers =
  [
    "mjava.lex"; "mjava.parse"; "mjava.typecheck"; "bytecode.link"; "bytecode.verify";
    "analysis.summary"; "ir.build"; "ir.check"; "opt.inline"; "opt.simplify"; "opt.prune";
    "opt.cleanup"; "core.frame_bounded"; "core.pea"; "analysis.spec_check"; "vm.jit_compile";
  ]

let op_layers =
  [ "vm.create"; "vm.run"; "serve.create"; "serve.run_round"; "serve.barrier"; "serve.report" ]

(* Counters recorded per operation with [Span.count]. *)
let counters =
  [
    ("ir.nodes_built", Higher); ("core.virtualized", Higher); ("core.materializations", Lower);
    ("rt.stack_allocs", Higher); ("rt.deopts", Lower); ("rt.monitor_ops", Lower);
    ("rt.rematerialized", Lower); ("serve.epoch_rejects", Lower); ("serve.compile_enqueues", Lower);
    ("serve.compile_installs", Higher); ("serve.dedup_hits", Higher); ("serve.quarantines", Lower);
  ]

(* Ratios a workload computes itself ([extra] of [layers]); 0 where the
   workload does not reach the layer. *)
let ratios =
  [
    d "vm.compiled_op_share" "ratio" Higher Model;
    d "vm.ic_hit_ratio" "ratio" Higher Model;
    d "serve.shared_hit_ratio" "ratio" Higher Model;
    d "serve.req_cycles_p99" "cycles" Lower Model;
    d "serve.threaded_ratio" "ratio" Lower Wall;
  ]

let per_layer =
  List.map (fun l -> d (l ^ "_ms") "ms" Lower Wall) timed_layers
  @ [ d "mjava.tokens_per_ms" "1/ms" Higher Wall ]
  @ List.map (fun l -> d (l ^ "_share") "ratio" Lower Wall) op_layers
  @ List.map (fun (c, better) -> d c "count" better Model) counters
  @ ratios
  @ [ d "trace.overhead_ratio" "ratio" Lower Wall; d "trace.span_coverage" "ratio" Higher Wall ]

type t = {
  ops : int; (* operations timed *)
  attempted : int; (* results checked *)
  failed : int; (* of those, results that mismatched the reference or raised *)
  metrics : (string * float) list;
}

(* [layers tr ~overhead ~extra] assembles every per-layer metric from the
   trace, adding the workload's own [extra] ratios. *)
let layers (tr : Span.t) ~overhead ~extra =
  let spans = Span.spans tr in
  let lex = Span.per_op_ms spans "mjava.lex" in
  List.map (fun l -> (l ^ "_ms", Span.per_op_ms spans l)) timed_layers
  @ [ ("mjava.tokens_per_ms", if lex > 0. then Span.per_op_count tr "mjava.tokens" /. lex else 0.) ]
  @ List.map (fun l -> (l ^ "_share", Span.op_share spans l)) op_layers
  @ List.map (fun (c, _) -> (c, Span.per_op_count tr c)) counters
  @ List.map (fun r -> (r.name, Option.value (List.assoc_opt r.name extra) ~default:0.)) ratios
  @ [ ("trace.overhead_ratio", overhead); ("trace.span_coverage", Span.coverage spans) ]

(* Peak resident set of this process so far (VmHWM), in MB. Workloads
   read it as their measured loop ends, so the reference checks after
   the loop do not count. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
      in
      find ())

(* The result line: the last line a run prints. *)
let to_json decls t =
  let metric dcl =
    match List.assoc_opt dcl.name t.metrics with
    | Some v -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" dcl.name (Mini_json.num v) dcl.unit_
    | None -> failwith ("metric not reported: " ^ dcl.name)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (t.failed = 0) t.attempted t.failed
    (String.concat ", " (List.map metric decls))

let pp_metrics decls ppf t =
  List.iter
    (fun dcl ->
      match List.assoc_opt dcl.name t.metrics with
      | Some v -> Format.fprintf ppf "  %-28s %16.4f %s@." dcl.name v dcl.unit_
      | None -> ())
    decls
