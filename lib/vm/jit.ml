(* The JIT compilation pipeline. Mirrors the structure the paper assumes:
   graph building, inlining, canonicalization + global value numbering,
   profile-guided speculation (cold-branch pruning -> Deopt), and then one
   of three escape-analysis configurations:

     - [O_none]: no escape analysis ("original Graal", the paper's
       without-PEA baseline);
     - [O_ea]: whole-method equi-escape-set analysis with all-or-nothing
       scalar replacement (the HotSpot-server-compiler-style comparison of
       §6.2);
     - [O_pea]: partial escape analysis (§5). *)

open Pea_bytecode
open Pea_ir
open Pea_rt
module Event = Pea_obs.Event
module Trace = Pea_obs.Trace

type opt_level =
  | O_none
  | O_ea
  | O_pea

let opt_string = function O_none -> "none" | O_ea -> "ea" | O_pea -> "pea"

type config = {
  opt : opt_level;
  inline : bool;
  inlining : bool;
      (* speculative guarded inlining from receiver profiles; [inline]
         gates the whole inliner, this gates only its guarded mode *)
  prune : bool; (* profile-guided cold-branch pruning *)
  read_elim : bool; (* early read elimination (block-local load forwarding) *)
  cond_elim : bool; (* dominance-based conditional elimination *)
  pea_prune_dead : bool; (* liveness-based state pruning inside PEA (ablation) *)
  verify : bool; (* run the IR checker after every pass *)
  check_level : Pea_analysis.Spec_check.level;
      (* when the speculation-safety verifier runs: never, once after the
         full pipeline (default), or after every optimization phase *)
  oracle : bool; (* bisimulation-check every deopt against a shadow replay *)
  summaries : bool; (* interprocedural escape summaries at call sites *)
  stackalloc : bool;
      (* stack-allocation tier: frame-bounded materializations go to the
         frame's stack region (reclaimed at frame pop) instead of the heap *)
  compile_threshold : int; (* interpreter invocations before JIT *)
  max_callee_size : int;
  osr : bool; (* on-stack replacement of hot interpreted loops *)
  osr_threshold : int; (* back edges to one loop header before OSR *)
  deopt_storm_limit : int;
      (* distinct invalidations of one method before the VM gives up on
         compiling it and pins it to the interpreter *)
}

let default_config =
  {
    opt = O_pea;
    inline = true;
    inlining = true;
    prune = true;
    read_elim = true;
    cond_elim = true;
    pea_prune_dead = true;
    verify = true;
    check_level = Pea_analysis.Spec_check.Phase_end;
    oracle = false;
    summaries = true;
    stackalloc = true;
    compile_threshold = 10;
    max_callee_size = 150;
    osr = true;
    osr_threshold = 100;
    deopt_storm_limit = 5;
  }

type compiled = {
  graph : Graph.t;
  pea_stats : Pea_core.Pea.pass_stats option;
  prepared : Ir_exec.prepared; (* the tables the closure tier translates *)
  spec_inlines : int; (* guarded splices in this graph *)
  spec_blacklist_skips : int; (* speculation sites vetoed by the blacklist *)
}

module Spec_check = Pea_analysis.Spec_check

(* Run the speculation-safety verifier on [g] after [phase]. Violations
   are compiler bugs: each becomes a [Verify_violation] trace event, then
   the compile aborts. *)
let spec_check_now ?summaries ?trace ~phase g =
  match Spec_check.check ?summaries ~phase g with
  | [] -> ()
  | vs ->
      Option.iter
        (fun t ->
          List.iter
            (fun (v : Spec_check.violation) ->
              Trace.emit t
                (Event.Verify_violation
                   {
                     meth = v.Spec_check.v_method;
                     phase = v.Spec_check.v_phase;
                     rule = v.Spec_check.v_rule;
                     site = v.Spec_check.v_site;
                     detail = v.Spec_check.v_detail;
                   }))
            vs)
        trace;
      failwith
        (Printf.sprintf "speculation-safety check failed for %s after %s:\n  %s"
           (Classfile.qualified_name g.Graph.g_method)
           phase
           (String.concat "\n  "
              (List.map (Fmt.str "%a" Spec_check.pp_violation) vs)))

let no_blacklist : int * int -> bool = fun _ -> false

(* What the JIT compiles, decided here for the VM and every tool: a
   method with exception handlers or [athrow] runs interpreted, and so
   does an OSR entry into a method that locks (OSR enters the loop with
   an empty lock stack; normal-entry compilation still covers it). *)
let has_monitors (m : Classfile.rt_method) =
  Array.exists (function Classfile.Monitorenter -> true | _ -> false) m.Classfile.mth_code

let compilable ?(osr = false) m = not (Classfile.uses_exceptions m || (osr && has_monitors m))

(* The one phase sequence of lib/ and bin/, on a normal-entry graph or,
   with [osr_at], on a graph entered at that loop header whose code takes
   the interpreter frame's locals as its arguments (see {!Builder.build}).
   [blacklist] vetoes speculation on individual deopt sites (keyed by the
   innermost frame's (mth_id, bci)) so one cold-path deopt does not cost
   the whole method its scalar replacement. Tools watch the phases
   through [after_phase]. *)
let compile ?summaries ?after_phase ?(blacklist = no_blacklist) ?osr_at ?trace config
    (program : Link.program) (profile : Profile.t) (m : Classfile.rt_method) : compiled =
  let meth = Classfile.qualified_name m in
  if not (compilable ~osr:(osr_at <> None) m) then
    raise
      (Builder.Build_error
         (if Classfile.uses_exceptions m then
            Printf.sprintf "cannot build IR for %s: explicit exceptions are not compiled" meth
          else Printf.sprintf "cannot build an OSR graph for %s: it holds monitors" meth));
  Option.iter
    (fun t -> Trace.emit t (Event.Compile_start { meth; opt = opt_string config.opt }))
    trace;
  let span phase f = Trace.span trace ~meth phase f in
  (* After each phase: the IR checker, the speculation-safety verifier
     at [Every_phase], then the observer. *)
  let after phase g =
    if config.verify then Check.check_exn g;
    (match config.check_level with
    | Spec_check.Every_phase -> spec_check_now ?summaries ?trace ~phase g
    | Spec_check.Phase_end | Spec_check.No_check -> ());
    Option.iter (fun f -> f phase g) after_phase
  in
  let g = span "build" (fun () -> Builder.build ?osr_at m) in
  after "build" g;
  let inline_stats = Pea_opt.Inline.mk_stats () in
  if config.inline then
    span "inline" (fun () ->
        let inline_config =
          {
            (Pea_opt.Inline.default_config program) with
            Pea_opt.Inline.max_callee_size = config.max_callee_size;
            speculate =
              (if config.inlining then
                 Some (fun m ~bci -> Profile.hot_receiver profile m ~bci)
               else None);
            blacklisted = blacklist;
            stats = inline_stats;
          }
        in
        ignore (Pea_opt.Inline.run inline_config g);
        Option.iter
          (fun t ->
            List.iter
              (fun (caller, callee, cls, bci) ->
                Trace.emit t (Event.Inline_speculative { meth = caller; callee; cls; bci }))
              (List.rev inline_stats.Pea_opt.Inline.spec_sites))
          trace;
        after "inline" g);
  span "simplify" (fun () ->
      ignore (Pea_opt.Canonicalize.run g);
      ignore (Pea_opt.Gvn.run ?summaries g);
      if config.read_elim then ignore (Pea_opt.Read_elim.run ?summaries g);
      if config.cond_elim then ignore (Pea_opt.Cond_elim.run g);
      after "simplify" g);
  if config.prune then
    span "prune" (fun () ->
        ignore (Pea_opt.Prune.run ~blacklist profile g);
        ignore (Pea_opt.Canonicalize.run g);
        after "prune" g);
  let g, pea_stats =
    match config.opt with
    | O_none -> (g, None)
    | O_ea ->
        span "escape-analysis" (fun () ->
            let g', st = Pea_core.Escape.run ?summaries ?trace g in
            (g', Some st))
    | O_pea ->
        span "pea" (fun () ->
            let stack_eligible =
              if config.stackalloc then Pea_core.Escape.frame_bounded ?summaries g
              else fun _ -> false
            in
            let g', st =
              Pea_core.Pea.run ~stack_eligible ~prune_dead_objects:config.pea_prune_dead
                ?summaries ?trace g
            in
            (g', Some st))
  in
  after (match config.opt with O_none -> "opt" | O_ea -> "escape-analysis" | O_pea -> "pea") g;
  span "cleanup" (fun () ->
      ignore (Pea_opt.Canonicalize.run g);
      ignore (Pea_opt.Gvn.run ?summaries g);
      if config.read_elim then ignore (Pea_opt.Read_elim.run ?summaries g);
      after "cleanup" g);
  (match config.check_level with
  | Spec_check.No_check -> ()
  | Spec_check.Phase_end | Spec_check.Every_phase ->
      spec_check_now ?summaries ?trace ~phase:"final" g);
  Option.iter (fun t -> Trace.emit t (Event.Compile_end { meth; nodes = Graph.n_nodes g })) trace;
  {
    graph = g;
    pea_stats;
    prepared = Ir_exec.prepare g;
    spec_inlines = inline_stats.Pea_opt.Inline.speculative_inlines;
    spec_blacklist_skips = inline_stats.Pea_opt.Inline.blacklist_skips;
  }
