(* mjvm — command-line driver for the MiniJava VM.

   Runs .mj programs through the tiered VM with a selectable optimization
   level, or dumps the bytecode / IR of individual methods at various
   pipeline stages. *)

open Cmdliner
open Pea_bytecode
open Pea_vm
module Trace = Pea_obs.Trace
module Pcpu = Pea_obs.Profile_cpu
module Pheap = Pea_obs.Profile_heap
module Flight = Pea_obs.Flight
module Spec_check = Pea_analysis.Spec_check

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let opt_conv =
  let parse = function
    | "none" -> Ok Jit.O_none
    | "ea" -> Ok Jit.O_ea
    | "pea" -> Ok Jit.O_pea
    | s -> Error (`Msg (Printf.sprintf "unknown optimization level %S (none|ea|pea)" s))
  in
  let print ppf o =
    Format.pp_print_string ppf
      (match o with Jit.O_none -> "none" | Jit.O_ea -> "ea" | Jit.O_pea -> "pea")
  in
  Arg.conv (parse, print)

let file_arg =
  Arg.(
    required & pos 0 (some non_dir_file) None & info [] ~docv:"FILE.mj" ~doc:"MiniJava source file")

let opt_arg =
  Arg.(
    value
    & opt opt_conv Jit.O_pea
    & info [ "opt" ] ~docv:"LEVEL"
        ~doc:"Escape analysis: none, ea (whole-method) or pea (partial)")

let threshold_arg =
  Arg.(
    value & opt int 10
    & info [ "threshold" ] ~docv:"N" ~doc:"Interpreter invocations before JIT compilation")

let iterations_arg =
  Arg.(value & opt int 1 & info [ "iterations"; "n" ] ~docv:"N" ~doc:"How many times to run main()")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "After the run, print every metric of the VM's (for $(b,serve), the server's) \
           statistics, one $(i,name: value) line each")

let no_inline_arg = Arg.(value & flag & info [ "no-inline" ] ~doc:"Disable inlining")

let no_inlining_arg =
  Arg.(
    value & flag
    & info [ "no-speculative-inline" ]
        ~doc:
          "Disable speculative guarded inlining (profile-driven inlining of the dominant \
           receiver behind an exact-class guard); CHA-safe direct inlining stays on")

let no_prune_arg =
  Arg.(value & flag & info [ "no-prune" ] ~doc:"Disable speculative cold-branch pruning")

let no_summaries_arg =
  Arg.(
    value & flag
    & info [ "no-summaries" ]
        ~doc:
          "Disable interprocedural escape summaries (every non-inlined call becomes a hard \
           escape point again)")

let no_stackalloc_arg =
  Arg.(
    value & flag
    & info [ "no-stackalloc" ]
        ~doc:
          "Disable the stack-allocation tier (frame-bounded materializations then go back to \
           the heap instead of the frame's stack region)")

let osr_threshold_arg =
  Arg.(
    value
    & opt int Jit.default_config.Jit.osr_threshold
    & info [ "osr-threshold" ] ~docv:"N"
        ~doc:
          "Back edges to one loop header before the interpreter transfers the running frame \
           into OSR-compiled code")

let no_osr_arg =
  Arg.(
    value & flag
    & info [ "no-osr" ]
        ~doc:
          "Disable on-stack replacement (hot loops then only tier up at the next full \
           invocation)")

let check_level_conv =
  let parse s =
    match Spec_check.level_of_string s with
    | Some l -> Ok l
    | None ->
        Error (`Msg (Printf.sprintf "unknown check level %S (none|phase-end|every-phase)" s))
  in
  let print ppf l = Format.pp_print_string ppf (Spec_check.level_string l) in
  Arg.conv (parse, print)

let check_level_arg =
  Arg.(
    value
    & opt check_level_conv Jit.default_config.Jit.check_level
    & info [ "check-level" ] ~docv:"LEVEL"
        ~doc:
          "When the speculation-safety verifier runs in the JIT pipeline: none, phase-end \
           (once after the full pipeline; the default) or every-phase (after every \
           optimization phase). A violation aborts the compile with the offending rule ids")

let oracle_arg =
  Arg.(
    value & flag
    & info [ "deopt-oracle" ]
        ~doc:
          "Bisimulation-check every deoptimization: replay a shadow interpreter from the \
           compiled activation's entry snapshot to the deopt point and compare the \
           rematerialized locals, operand stack, lock depths, heap shape and statics. A \
           divergence aborts the run — it is a compiler bug by definition")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log JIT events (compilations, deopts)")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a deterministic event trace (compilations, PEA decisions, deopts, \
           inline-cache transitions, tier promotions) to $(docv). Timestamps are cost-model \
           cycles, so the trace is byte-for-byte reproducible")

let trace_format_conv =
  let parse s =
    match Trace.parse_format s with
    | Some f -> Ok f
    | None -> Error (`Msg (Printf.sprintf "unknown trace format %S (jsonl|chrome)" s))
  in
  let print ppf f =
    Format.pp_print_string ppf (match f with Trace.Jsonl -> "jsonl" | Trace.Chrome -> "chrome")
  in
  Arg.conv (parse, print)

let trace_format_arg =
  Arg.(
    value
    & opt trace_format_conv Trace.Jsonl
    & info [ "trace-format" ] ~docv:"FORMAT"
        ~doc:
          "Trace sink: jsonl (one event per line) or chrome (trace_event JSON, loadable in \
           about:tracing / Perfetto)")

let flight_dump_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-dump" ] ~docv:"FILE"
        ~doc:
          "Arm the flight recorder: keep a bounded event ring always on and snapshot it to \
           $(docv) when the VM hits a debuggable incident (deopt-storm pinning, compile \
           failure, oracle divergence). Read the dump back with $(b,mjvm report --flight)")

(* Exit 1 naming the first option whose value is below its floor, before
   the value can reach a library precondition. *)
let check_floors floors =
  List.iter
    (fun (flag, v, floor) ->
      if v < floor then begin
        Printf.eprintf "--%s must be >= %d\n" flag floor;
        exit 1
      end)
    floors

let setup_logs verbose =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.Src.set_level Vm.log_src (Some Logs.Debug)
  end

let config opt threshold no_inline no_inlining no_prune no_summaries no_stackalloc osr_threshold
    no_osr check_level oracle =
  {
    Jit.default_config with
    Jit.opt;
    compile_threshold = threshold;
    inline = not no_inline;
    inlining = not no_inlining;
    prune = not no_prune;
    summaries = not no_summaries;
    stackalloc = not no_stackalloc;
    osr = not no_osr;
    osr_threshold;
    check_level;
    oracle;
  }

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let compile_file_or_exit ?require_main file =
  match Link.compile_source ?require_main (read_file file) with
  | exception Pea_mjava.Lexer.Lex_error (msg, pos) ->
      Printf.eprintf "%s:%d:%d: lex error: %s\n" file pos.line pos.col msg;
      exit 1
  | exception Pea_mjava.Parser.Parse_error (msg, pos) ->
      Printf.eprintf "%s:%d:%d: parse error: %s\n" file pos.line pos.col msg;
      exit 1
  | exception Pea_mjava.Typecheck.Type_error (msg, pos) ->
      Printf.eprintf "%s:%d:%d: type error: %s\n" file pos.line pos.col msg;
      exit 1
  | exception Link.Link_error msg ->
      Printf.eprintf "link error: %s\n" msg;
      exit 1
  | program -> program

(* Resolve a CLASS.METHOD argument, or exit 1 naming what is wrong. *)
let find_method_or_exit program spec =
  match String.index_opt spec '.' with
  | None ->
      Printf.eprintf "method must be CLASS.METHOD\n";
      exit 1
  | Some i -> (
      let cls = String.sub spec 0 i
      and name = String.sub spec (i + 1) (String.length spec - i - 1) in
      match Link.find_method program cls name with
      | m -> m
      | exception Not_found ->
          Printf.eprintf "no method %s.%s\n" cls name;
          exit 1)

(* Can [path] be written? Answered without changing what is there: an
   existing file is opened for appending and closed unwritten, a missing
   one is created and removed again. The error is [Sys_error]'s
   "<path>: <reason>". *)
let check_writable path =
  let existed = Sys.file_exists path in
  match open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o666 path with
  | oc ->
      close_out oc;
      if not existed then Sys.remove path;
      Ok ()
  | exception Sys_error msg -> Error msg

(* Run [f], exiting 1 when the JIT refuses or fails to compile, 2 on a
   runtime trap and 3 on an uncaught throw, with the error's message on
   stderr; [during] says what was running. *)
let or_exit ?(during = "") f =
  match f () with
  | r -> r
  | exception (Pea_ir.Builder.Build_error msg | Failure msg) ->
      prerr_endline msg;
      exit 1
  | exception Pea_rt.Interp.Trap msg ->
      Printf.eprintf "runtime trap%s: %s\n" during msg;
      exit 2
  | exception Pea_rt.Interp.Mj_throw v ->
      Printf.eprintf "uncaught exception%s: %s\n" during (Pea_rt.Value.string_of_value v);
      exit 3

(* [--stats]: every metric, one per line, declaration order *)
let print_metrics stats = List.iter print_endline (Pea_rt.Stats.dump stats)

let run_cmd =
  let action file opt threshold iterations stats no_inline no_inlining no_prune no_summaries
      no_stackalloc osr_threshold no_osr check_level oracle verbose trace trace_format
      flight_dump =
    setup_logs verbose;
    check_floors
      [
        ("threshold", threshold, 0);
        ("iterations", iterations, 1);
        ("osr-threshold", osr_threshold, 0);
      ];
    let program = compile_file_or_exit file in
    (* checked before the run, like the trace below: a dump path that
       cannot be written fails before any work is done, not when an
       incident fires and its dump is lost *)
    Option.iter
      (fun path ->
        match check_writable path with
        | Ok () -> ()
        | Error msg ->
            Printf.eprintf "cannot write the flight dump: %s\n" msg;
            exit 1)
      flight_dump;
    (* opened before the run: a path that cannot be written fails before
       any work is done *)
    let trace_out =
      Option.map
        (fun path ->
          match open_out_bin path with
          | oc -> oc
          | exception Sys_error msg ->
              Printf.eprintf "cannot write the trace: %s\n" msg;
              exit 1)
        trace
    in
    (* the flight recorder dumps the VM's tracer: the --trace ring when
       there is one, otherwise a private ring of the VM's *)
    let tracer = Option.map (fun _ -> Trace.create ()) trace_out in
    let flight = Option.map (fun path -> Flight.create ~path) flight_dump in
    (* with --stats a fresh heap profiler watches the run: it is the
       ledger of the allocation breakdown *)
    let ledger = if stats then Some (Pheap.create ()) else None in
    let vm =
      Vm.create ?trace:tracer ?heap:ledger ?flight
        ~config:
          (config opt threshold no_inline no_inlining no_prune no_summaries no_stackalloc
             osr_threshold no_osr check_level oracle)
        program
    in
    let write_trace () =
      match (trace_out, tracer) with
      | Some oc, Some t ->
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> Trace.write trace_format t oc)
      | _ -> ()
    in
    (* the run yields its exit status and exits only after [write_trace]:
       an [exit] inside [Fun.protect] would skip the [finally], losing the
       trace of exactly the runs that trap or throw *)
    let status =
      Fun.protect ~finally:write_trace @@ fun () ->
      match Vm.run_main_iterations vm iterations with
      | exception Pea_rt.Interp.Trap msg ->
          Printf.eprintf "runtime trap: %s\n" msg;
          2
      | exception Pea_rt.Interp.Mj_throw v ->
          Printf.eprintf "uncaught exception: %s\n" (Pea_rt.Value.string_of_value v);
          3
      | r ->
          List.iter (fun v -> print_endline (Pea_rt.Value.string_of_value v)) r.Vm.printed;
          (match r.Vm.return_value with
          | Some v -> Printf.printf "=> %s\n" (Pea_rt.Value.string_of_value v)
          | None -> ());
          Option.iter
            (fun ledger ->
              print_metrics (Vm.stats vm);
              match Pheap.by_class ledger with
              | [] -> ()
              | breakdown ->
                  Printf.printf "allocation breakdown:\n";
                  List.iter
                    (fun (name, count, bytes) ->
                      Printf.printf "  %-16s %8d allocs %10d bytes\n" name count bytes)
                    breakdown)
            ledger;
          0
    in
    if status <> 0 then exit status
  in
  let term =
    Term.(
      const action $ file_arg $ opt_arg $ threshold_arg $ iterations_arg $ stats_arg
      $ no_inline_arg $ no_inlining_arg $ no_prune_arg $ no_summaries_arg $ no_stackalloc_arg
      $ osr_threshold_arg $ no_osr_arg $ check_level_arg $ oracle_arg $ verbose_arg $ trace_arg
      $ trace_format_arg $ flight_dump_arg)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run a MiniJava program on the tiered VM") term

(* ------------------------------------------------------------------ *)
(* dump                                                                *)
(* ------------------------------------------------------------------ *)

let method_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"CLASS.METHOD" ~doc:"Method to dump, e.g. Cache.getValue")

let stage_conv =
  Arg.enum
    [
      ("bytecode", `Bytecode);
      ("ir", `Ir);
      ("inlined", `Inlined);
      ("pea", `Pea);
      ("ea", `Ea);
      ("dot", `Dot);
      ("closure", `Closure);
      ("summaries", `Summaries);
    ]

let stage_arg =
  Arg.(
    value
    & opt stage_conv `Pea
    & info [ "stage" ] ~docv:"STAGE"
        ~doc:
          "Pipeline stage: bytecode, ir (after building), inlined (after inlining), pea, ea, dot \
           (Graphviz of pea), closure (the closure tier's register plan for the graph of pea: \
           each node's register kind, where int values are boxed, and each fused \
           compare-and-branch), or summaries (the method's interprocedural escape summary). \
           Graphs are the JIT's own compile, with its checks off, on the profile of one run of \
           main (run first)")

let dump_cmd =
  let action file spec stage =
    let program = compile_file_or_exit ~require_main:false file in
    let m = find_method_or_exit program spec in
    match stage with
    | `Bytecode -> print_string (Classfile.disassemble m)
    | `Summaries ->
        let t = Pea_analysis.Summary.analyze program in
        Format.printf "%a@." (Pea_analysis.Summary.pp_method t) m
    | (`Ir | `Inlined | `Pea | `Ea | `Dot | `Closure) as stage -> (
        (* checks off: a graph a checker rejects is the one worth dumping *)
        let opt = if stage = `Ea then Jit.O_ea else Jit.O_pea in
        let config =
          { Jit.default_config with Jit.opt; check_level = Spec_check.No_check; verify = false }
        in
        (* ir and inlined are printed as the JIT's phase leaves them *)
        let after_phase phase g =
          match (stage, phase) with
          | `Ir, "build" | `Inlined, "inline" -> print_string (Pea_ir.Printer.to_string g)
          | _ -> ()
        in
        let c =
          or_exit (fun () ->
              Jit.compile ~summaries:(Pea_analysis.Summary.analyze program) ~after_phase config
                program (Pea_rt.Run.profile program) m)
        in
        let g = c.Jit.graph in
        match stage with
        | `Ir | `Inlined -> ()
        | `Dot -> print_string (Pea_ir.Printer.to_dot g)
        | `Closure -> print_string (Closure_compile.plan_to_string g (Closure_compile.plan g))
        | `Pea | `Ea ->
            let st = Option.get c.Jit.pea_stats in
            print_string (Pea_ir.Printer.to_string g);
            Printf.printf
              "\n\
               ; %d virtualized, %d materialized (%d to stack), %d loads removed, %d stores \
               removed, %d monitor ops removed, %d checks folded\n"
              st.Pea_core.Pea.virtualized_allocs st.Pea_core.Pea.materializations
              st.Pea_core.Pea.stack_materializations st.Pea_core.Pea.removed_loads
              st.Pea_core.Pea.removed_stores st.Pea_core.Pea.removed_monitor_ops
              st.Pea_core.Pea.folded_checks)
  in
  let term = Term.(const action $ file_arg $ method_arg $ stage_arg) in
  Cmd.v (Cmd.info "dump" ~doc:"Dump bytecode or IR of a method at a pipeline stage") term

(* ------------------------------------------------------------------ *)
(* explain                                                             *)
(* ------------------------------------------------------------------ *)

let explain_method_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "method" ] ~docv:"CLASS.METHOD" ~doc:"Method to explain, e.g. Cache.getValue")

let osr_bci_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "osr-bci" ] ~docv:"BCI"
        ~doc:
          "Analyze the method as OSR-compiled code entered at this loop-header bytecode index \
           (find headers with $(b,mjvm dump --stage bytecode)): locals become parameters, so \
           object locals alive at the header count as escaped on entry")

let observed_arg =
  Arg.(
    value & flag
    & info [ "observed" ]
        ~doc:
          "Also run the program under a private allocation-site heap profiler and print, next \
           to each analysis verdict, what actually happened at that bytecode site: materialized \
           allocations, deopt rematerializations and scratch allocations. Requires a main \
           method; the run uses the analysis's configuration")

let explain_cmd =
  let action file spec no_summaries no_stackalloc osr_bci observed iterations =
    check_floors
      (("iterations", iterations, 1)
      :: Option.fold osr_bci ~none:[] ~some:(fun bci -> [ ("osr-bci", bci, 0) ]));
    let program = compile_file_or_exit ~require_main:false file in
    let m = find_method_or_exit program spec in
    let config =
      { Jit.default_config with Jit.summaries = not no_summaries; stackalloc = not no_stackalloc }
    in
    let observed_tbl =
      if not observed then None
      else
        match
          or_exit ~during:" during observation" (fun () ->
              Explain.observe ~config ~iterations program)
        with
        | tbl -> Some tbl
        | exception Link.Link_error msg ->
            Printf.eprintf "cannot observe (no runnable entry point): %s\n" msg;
            exit 1
    in
    let profile = Pea_rt.Run.profile program in
    or_exit (fun () ->
        match Explain.analyze ?osr_at:osr_bci ?observed:observed_tbl config program profile m with
        | report -> print_string (Explain.to_string report)
        | exception Pea_ir.Builder.Build_error msg when osr_bci <> None ->
            failwith ("cannot build an OSR graph there: " ^ msg))
  in
  let term =
    Term.(
      const action $ file_arg $ explain_method_arg $ no_summaries_arg $ no_stackalloc_arg
      $ osr_bci_arg $ observed_arg $ iterations_arg)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Report what partial escape analysis decided about every allocation site of a method: \
          virtualized or not, where and why each site was materialized, and what its \
          virtualization removed")
    term

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let check_method_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "method" ] ~docv:"CLASS.METHOD"
        ~doc:"Check only this method (default: every method in the program)")

let check_cmd =
  let action file spec level =
    let program = compile_file_or_exit ~require_main:false file in
    if level = Spec_check.No_check then begin
      prerr_endline "no method checked: --check-level none verifies nothing";
      exit 1
    end;
    (* on the one-run profile the pipeline speculates as in a running VM:
       speculative deopt metadata is what the verifier exists for *)
    let profile = Pea_rt.Run.profile program in
    let summaries = Pea_analysis.Summary.analyze program in
    let targets =
      match spec with
      | None -> List.filter (fun m -> Jit.compilable m) (Array.to_list program.Link.methods)
      | Some spec -> [ find_method_or_exit program spec ]
    in
    let violations = ref 0 and checked = ref 0 in
    let report vs =
      violations := !violations + List.length vs;
      List.iter (Format.printf "%a@." Spec_check.pp_violation) vs
    in
    (* every-phase: the observer checks each phase and stops the compile
       at the first bad one, so the report names the phase that broke
       the state *)
    let exception Broken in
    let after_phase phase g =
      match Spec_check.check ~summaries ~phase g with
      | [] -> ()
      | vs ->
          report vs;
          raise Broken
    in
    let after_phase = if level = Spec_check.Every_phase then Some after_phase else None in
    let config = { Jit.default_config with Jit.check_level = Spec_check.No_check } in
    List.iter
      (fun m ->
        match Jit.compile ~summaries ?after_phase config program profile m with
        | c ->
            incr checked;
            report (Spec_check.check ~summaries ~phase:"final" c.Jit.graph)
        | exception Broken -> incr checked
        | exception Failure msg ->
            (* a compile that fails counts as one violation *)
            incr checked;
            incr violations;
            print_endline msg
        | exception Pea_ir.Builder.Build_error msg ->
            Printf.eprintf "skipping %s: %s\n" (Classfile.qualified_name m) msg)
      targets;
    if !violations > 0 then begin
      Printf.printf "%d violation%s\n" !violations (if !violations = 1 then "" else "s");
      exit 1
    end
    else if !checked = 0 then begin
      prerr_endline "no method checked: the JIT compiles none of the targets";
      exit 1
    end
    else
      Printf.printf "%d method%s verified: every deopt state rematerializable\n" !checked
        (if !checked = 1 then "" else "s")
  in
  let term = Term.(const action $ file_arg $ check_method_arg $ check_level_arg) in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Compile every method offline and run the speculation-safety verifier over the deopt \
          metadata: closed virtual descriptors, reachable and dominating values, monotone \
          escape decisions, complete OSR transfer maps, balanced lock bookkeeping. Exits \
          non-zero if any rule fires or no method was checked")
    term

(* ------------------------------------------------------------------ *)
(* report                                                              *)
(* ------------------------------------------------------------------ *)

let report_file_arg =
  Arg.(
    value
    & pos 0 (some non_dir_file) None
    & info [] ~docv:"FILE.mj" ~doc:"MiniJava source file to profile (omit with --flight)")

let flight_read_arg =
  Arg.(
    value
    & opt (some non_dir_file) None
    & info [ "flight" ] ~docv:"DUMP"
        ~doc:
          "Instead of profiling a program, read back a flight-recorder dump written by $(b,mjvm \
           run --flight-dump) and summarize it")

let interval_arg =
  Arg.(
    value
    & opt int Pcpu.default_interval
    & info [ "interval" ] ~docv:"CYCLES"
        ~doc:
          "Model cycles between profile samples. Sampling is driven by the deterministic \
           cost-model cycle clock, so the same program, configuration and interval always \
           produce the byte-identical report")

let top_arg =
  Arg.(
    value & opt int 10
    & info [ "top" ] ~docv:"N" ~doc:"Rows in the method and allocation hot lists")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit one JSON object instead of the text report")

let collapsed_arg =
  Arg.(
    value & flag
    & info [ "collapsed" ]
        ~doc:"Print only the collapsed call stacks (flamegraph-tool input), nothing else")

let report_cmd =
  let action file flight opt threshold iterations interval top json collapsed verbose =
    setup_logs verbose;
    check_floors
      [
        ("threshold", threshold, 0);
        ("iterations", iterations, 1);
        ("interval", interval, 1);
        ("top", top, 0);
      ];
    match (flight, file) with
    | Some dump, _ -> (
        (* flight mode: no program run, just decode and summarize *)
        match Flight.read_file dump with
        | Error msg ->
            Printf.eprintf "%s: not a flight dump: %s\n" dump msg;
            exit 1
        | Ok d ->
            if json then print_endline (Report.flight_to_json d)
            else print_string (Report.flight_to_string d))
    | None, None ->
        Printf.eprintf "nothing to report on: give FILE.mj to profile, or --flight DUMP\n";
        exit 1
    | None, Some file ->
        let program = compile_file_or_exit file in
        let config = { Jit.default_config with Jit.opt; compile_threshold = threshold } in
        let vm, cpu, heap =
          or_exit (fun () -> Report.profile ~interval ~config ~iterations program)
        in
        let report =
          Report.collect ~program ~cpu ~heap ~pea_sites:(Vm.jit_stats vm).Pea_core.Pea.sites ()
        in
        if collapsed then print_string (Report.collapsed report)
        else if json then print_endline (Report.to_json ~top report)
        else print_string (Report.to_string ~top report)
  in
  let term =
    Term.(
      const action $ report_file_arg $ flight_read_arg $ opt_arg $ threshold_arg
      $ iterations_arg $ interval_arg $ top_arg $ json_arg
      $ collapsed_arg $ verbose_arg)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Profile a program on the deterministic cycle clock and report top methods by self \
          cycles, tier residency, allocation hot lists cross-referenced with PEA decisions, \
          and flamegraph-compatible collapsed stacks. Reports are byte-identical across runs. \
          With --flight, summarize a flight-recorder dump instead")
    term

(* ------------------------------------------------------------------ *)
(* serve — the multi-tenant request-serving harness                    *)
(* ------------------------------------------------------------------ *)

module Server = Pea_serve.Server
module Sessions = Pea_workloads.Sessions

let tenants_arg =
  Arg.(
    value & opt int 4
    & info [ "tenants" ] ~docv:"N"
        ~doc:
          "Tenant count. Mixed sessions alternate tenants over the service apps; storm and quiet \
           sessions use one storming tenant plus N-1 victims, so they need N >= 2")

let workers_arg =
  Arg.(
    value & opt int 0
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Worker domains serving requests, at most 127 (the runtime's domain limit less the \
           coordinator). 0 (the default) runs the replay mode: the same schedule \
           single-threaded, with every counter bit-identical to a threaded run")

let rounds_arg =
  Arg.(value & opt int 26 & info [ "rounds" ] ~docv:"N" ~doc:"Session rounds to generate")

let requests_arg =
  Arg.(
    value & opt int 12
    & info [ "requests" ] ~docv:"N"
        ~doc:
          "Requests per round across the mixed tenants (storm sessions: across the victim \
           tenants; the storming tenant adds its own fixed traffic)")

let seed_arg =
  Arg.(value & opt int 11 & info [ "seed" ] ~docv:"N" ~doc:"Deterministic session-generator seed")

let session_conv =
  let parse = function
    | "mixed" -> Ok `Mixed
    | "storm" -> Ok `Storm
    | "quiet" -> Ok `Quiet
    | s -> Error (`Msg (Printf.sprintf "unknown session kind %S (mixed|storm|quiet)" s))
  in
  let print ppf s =
    Format.pp_print_string ppf
      (match s with `Mixed -> "mixed" | `Storm -> "storm" | `Quiet -> "quiet")
  in
  Arg.conv (parse, print)

let session_arg =
  Arg.(
    value & opt session_conv `Mixed
    & info [ "session" ] ~docv:"KIND"
        ~doc:
          "Session script: mixed (steady cross-tenant traffic over shared apps), storm (one \
           tenant driven through a deopt storm into quarantine while the victims' traffic must \
           stay untouched), or quiet (the storm session with its trigger requests disabled — \
           the control run for the isolation claim)")

let serve_threshold_arg =
  Arg.(
    value & opt int 20
    & info [ "threshold" ] ~docv:"N"
        ~doc:
          "Interpreter invocations before a tenant requests a shared compile (20 keeps the \
           compile profiles above the branch pruner's floor, which the storm session needs)")

let compile_rounds_arg =
  Arg.(
    value
    & opt int Server.default_config.Server.sv_compile_rounds
    & info [ "compile-rounds" ] ~docv:"N"
        ~doc:"Barrier-to-install latency of the shared compile queue, in rounds")

let serve_cmd =
  let action tenants workers rounds requests seed session threshold compile_rounds stats verbose =
    setup_logs verbose;
    check_floors
      [
        (* storm and quiet sessions: the storming tenant plus at least one victim *)
        ("tenants", tenants, (match session with `Mixed -> 1 | `Storm | `Quiet -> 2));
        ("workers", workers, 0);
        ("rounds", rounds, 1);
        ("requests", requests, 1);
        ("threshold", threshold, 0);
        ("compile-rounds", compile_rounds, 1);
      ];
    if workers > Server.max_workers then begin
      Printf.eprintf "--workers must be <= %d\n" Server.max_workers;
      exit 1
    end;
    let script =
      match session with
      | `Mixed -> Sessions.mixed_script ~tenants ~rounds ~requests_per_round:requests ~seed ()
      | `Storm | `Quiet ->
          Sessions.storm_script
            ~storm:(session = `Storm)
            ~victims:(tenants - 1)
            ~rounds ~requests_per_round:requests ~seed ()
    in
    let config =
      {
        Server.default_config with
        Server.sv_mode = (if workers = 0 then Server.Replay else Server.Threaded workers);
        sv_compile_rounds = compile_rounds;
        sv_jit = { Jit.default_config with Jit.compile_threshold = threshold };
      }
    in
    let server = Server.create ~config script in
    Server.run_rounds server script.Server.sc_rounds;
    let r = Server.report server in
    Printf.printf "session=%s tenants=%d rounds=%d requests=%d mode=%s\n"
      (match session with `Mixed -> "mixed" | `Storm -> "storm" | `Quiet -> "quiet")
      (List.length r.Server.r_tenants) r.Server.r_rounds r.Server.r_requests
      (if workers = 0 then "replay" else Printf.sprintf "threaded(%d)" workers);
    Printf.printf "%-12s %-10s %9s %7s %7s %12s %s\n" "tenant" "app" "requests" "p50" "p99"
      "shared-hits" "quarantined";
    List.iter
      (fun tr ->
        Printf.printf "%-12s %-10s %9d %7d %7d %12d %s\n" tr.Server.tr_name tr.Server.tr_app
          (List.length tr.Server.tr_results)
          (Server.percentile tr.Server.tr_latencies 50)
          (Server.percentile tr.Server.tr_latencies 99)
          tr.Server.tr_shared_hits
          (if tr.Server.tr_quarantined then "yes" else "no"))
      r.Server.r_tenants;
    Printf.printf
      "server: installs=%d shared-hits=%d epoch-rejects=%d quarantines=%d cache-entries=%d\n"
      r.Server.r_stats.Pea_rt.Stats.s_compile_installs
      r.Server.r_stats.Pea_rt.Stats.s_cache_shared_hits
      r.Server.r_stats.Pea_rt.Stats.s_cache_epoch_rejects
      r.Server.r_stats.Pea_rt.Stats.s_tenant_quarantines r.Server.r_cache_entries;
    if stats then print_metrics (Server.stats server)
  in
  let term =
    Term.(
      const action $ tenants_arg $ workers_arg $ rounds_arg $ requests_arg $ seed_arg
      $ session_arg $ serve_threshold_arg $ compile_rounds_arg $ stats_arg $ verbose_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a deterministic multi-tenant session: N worker domains run MJ request handlers \
          over per-tenant VMs backed by a shared, epoch-validated code cache and one shared \
          compile queue drained at round barriers. Replay mode (--workers 0) reproduces the \
          whole multi-domain schedule single-threaded with bit-identical counters. A \
          deopt-storming or compile-failing tenant is quarantined to the interpreter without \
          touching other tenants' cache entries")
    term

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc = "MiniJava VM with Partial Escape Analysis (CGO 2014 reproduction)" in
  Cmd.group
    (Cmd.info "mjvm" ~version:"1.0.0" ~doc)
    [ run_cmd; dump_cmd; explain_cmd; check_cmd; report_cmd; serve_cmd ]

let () = exit (Cmd.eval main_cmd)
