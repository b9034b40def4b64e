(* Phase replay: times the JIT's phases from outside the library.

   [Jit.compile] runs its pipeline internally, so the benchmark re-runs
   the same phase sequence through the public phase functions, once per
   method the VM compiled, on a copy of the VM's final profile, with a
   span around each phase. To prove the replay is the same pipeline, it
   then runs [Jit.compile] on the same inputs and requires the same
   [Graph.n_nodes]; any mismatch aborts the run. OSR compilations are not
   replayed (their loop headers are not visible from outside the VM). *)

open Pea_bytecode
open Pea_ir
open Pea_rt
open Pea_vm
module Spec_check = Pea_analysis.Spec_check

exception Mismatch of string

(* The body of [Jit.compile] for a normal entry, phase by phase; returns
   the optimized graph. *)
let compile tr ~op ?summaries ~blacklist (config : Jit.config) program profile m =
  let span name f = Span.with_span tr name ~op f in
  let verify g = if config.Jit.verify then span "ir.check" (fun () -> Check.check_exn g) in
  let spec_check ~phase g =
    span "analysis.spec_check" (fun () -> Spec_check.check_exn ?summaries ~phase g)
  in
  let after ~phase g =
    verify g;
    match config.Jit.check_level with
    | Spec_check.Every_phase -> spec_check ~phase g
    | Spec_check.Phase_end | Spec_check.No_check -> ()
  in
  let g = span "ir.build" (fun () -> Builder.build m) in
  Span.count tr "ir.nodes_built" ~op (float_of_int (Graph.n_nodes g));
  after ~phase:"build" g;
  if config.Jit.inline then begin
    span "opt.inline" (fun () ->
        let inline_config =
          {
            (Pea_opt.Inline.default_config program) with
            Pea_opt.Inline.max_callee_size = config.Jit.max_callee_size;
            speculate =
              (if config.Jit.inlining then Some (fun m ~bci -> Profile.hot_receiver profile m ~bci)
               else None);
            blacklisted = blacklist;
            stats = Pea_opt.Inline.mk_stats ();
          }
        in
        ignore (Pea_opt.Inline.run inline_config g));
    after ~phase:"inline" g
  end;
  span "opt.simplify" (fun () ->
      ignore (Pea_opt.Canonicalize.run g);
      ignore (Pea_opt.Gvn.run ?summaries g);
      if config.Jit.read_elim then ignore (Pea_opt.Read_elim.run ?summaries g);
      if config.Jit.cond_elim then ignore (Pea_opt.Cond_elim.run g));
  after ~phase:"simplify" g;
  if config.Jit.prune then begin
    span "opt.prune" (fun () ->
        ignore (Pea_opt.Prune.run ~blacklist profile g);
        ignore (Pea_opt.Canonicalize.run g));
    after ~phase:"prune" g
  end;
  let g =
    match config.Jit.opt with
    | Jit.O_none -> g
    | Jit.O_ea -> span "core.pea" (fun () -> fst (Pea_core.Escape.run ?summaries g))
    | Jit.O_pea ->
        let stack_eligible =
          if config.Jit.stackalloc then
            span "core.frame_bounded" (fun () -> Pea_core.Escape.frame_bounded ?summaries g)
          else fun _ -> false
        in
        span "core.pea" (fun () ->
            fst
              (Pea_core.Pea.run ~stack_eligible ~prune_dead_objects:config.Jit.pea_prune_dead
                 ?summaries g))
  in
  after ~phase:(match config.Jit.opt with Jit.O_none -> "opt" | Jit.O_ea -> "escape-analysis" | Jit.O_pea -> "pea") g;
  span "opt.cleanup" (fun () ->
      ignore (Pea_opt.Canonicalize.run g);
      ignore (Pea_opt.Gvn.run ?summaries g);
      if config.Jit.read_elim then ignore (Pea_opt.Read_elim.run ?summaries g));
  after ~phase:"cleanup" g;
  (match config.Jit.check_level with
  | Spec_check.No_check -> ()
  | Spec_check.Phase_end | Spec_check.Every_phase -> spec_check ~phase:"final" g);
  ignore (Ir_exec.prepare g);
  g

(* [replay_vm tr ~op config program vm] replays every normal-entry
   compilation [vm] holds, under one "vm.jit_compile" span per method,
   and checks each against [Jit.compile]. [blacklist] defaults to the
   VM's own deopt blacklist. Returns the number of methods replayed. *)
let replay_vm tr ~op ?blacklist (config : Jit.config) (program : Link.program) vm =
  let blacklist =
    match blacklist with
    | Some b -> b
    | None ->
        let sites = Hashtbl.create 8 in
        Array.iter
          (fun (m : Classfile.rt_method) ->
            List.iter
              (fun bci -> Hashtbl.replace sites (m.Classfile.mth_id, bci) ())
              (Vm.blacklisted_sites vm m))
          program.Link.methods;
        Hashtbl.mem sites
  in
  let summaries =
    if config.Jit.summaries then
      Some (Span.with_span tr "analysis.summary" ~op (fun () -> Pea_analysis.Summary.analyze program))
    else None
  in
  let profile = Vm.profile vm in
  Array.fold_left
    (fun n (m : Classfile.rt_method) ->
      match Vm.compiled_graph vm m with
      | None -> n
      | Some _ ->
          let copy = Profile.copy profile in
          let replayed =
            Span.with_span tr "vm.jit_compile" ~op (fun () ->
                compile tr ~op ?summaries ~blacklist config program copy m)
          in
          let reference = Jit.compile ?summaries ~blacklist config program (Profile.copy profile) m in
          let want = Graph.n_nodes reference.Jit.graph and got = Graph.n_nodes replayed in
          if want <> got then
            raise
              (Mismatch
                 (Printf.sprintf "phase replay of %s built %d nodes, Jit.compile %d"
                    (Classfile.qualified_name m) got want));
          n + 1)
    0 program.Link.methods
