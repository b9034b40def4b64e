open Pea_bytecode
open Pea_rt

(* JIT event log; enable with [Logs.Src.set_level log_src (Some Debug)] or
   mjvm's [-v]. *)
let log_src = Logs.Src.create "pea.vm" ~doc:"Tiered VM events"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Event = Pea_obs.Event
module Trace = Pea_obs.Trace
module Pcpu = Pea_obs.Profile_cpu
module Flight = Pea_obs.Flight
module Instruments = Pea_obs.Instruments

type result = {
  return_value : Value.value option;
  printed : Value.value list;
  stats : Stats.snapshot;
  jit_stats : Pea_core.Pea.pass_stats;
}

(* External code provider (the multi-tenant serving layer's shared code
   cache). When installed, a hot method asks it instead of the VM's own
   compiler: [cs_code] either hands back ready-to-install code or, having
   registered the want, returns [None] and the method keeps interpreting
   until the provider delivers. [cs_deopt] hears of every deopt: the
   compiled root method and the fired site (innermost frame). *)
type code_source = {
  cs_code : Classfile.rt_method -> Jit.compiled option;
  cs_deopt : Classfile.rt_method -> site:int * int -> unit;
}

(* Installed code and this VM's closure translation of it, built at the
   code's first execution: a translation is bound to this VM's heap,
   globals and counters, so it lives here, never in the (possibly shared)
   compiled code. *)
type installed = {
  ic_code : Jit.compiled;
  mutable ic_closure : Closure_compile.code option;
}

(* Everything the VM keeps per method, indexed by [mth_id]. *)
type meth = {
  mutable code : installed option; (* normal-entry code *)
  mutable osr : (int * installed) list; (* loop-header bci -> OSR-entry code *)
  mutable osr_failed : int list;
      (* loop headers OSR gave up on (irreducible from the header, or the
         method holds monitors / uses exceptions): never retried *)
  mutable fired : int list;
      (* bcis of this method's deopt sites that actually fired, whichever
         compiled root they were inlined into: recompilations keep
         speculating everywhere except these exact sites *)
  mutable invalidations : int; (* deopts that invalidated this method's code *)
  mutable pinned : bool;
      (* pinned by the deopt-storm guard: a method invalidated
         [deopt_storm_limit] times stays in the interpreter for good *)
}

type t = {
  program : Link.program;
  config : Jit.config;
  env : Interp.env;
  meths : meth array;
  printed_rev : Value.value list ref;
  jit_stats : Pea_core.Pea.pass_stats;
  summaries : Pea_analysis.Summary.t option;
      (* escape summaries when [config.summaries] is set: one table serves
         every compilation of this VM, and its fixpoint runs at the first
         query *)
  mutable code_source : code_source option;
  mutable interp_only : bool;
      (* tenant quarantine: every method interprets, even ones with
         installed code; the code tables themselves are left intact *)
  invocations_cell : int array;
  invocations_idx : int;
      (* the [invocations] counter's storage ({!Stats.cell}), resolved
         once: a compiled entry bumps it without a call *)
}

let accumulate_jit_stats (acc : Pea_core.Pea.pass_stats) (st : Pea_core.Pea.pass_stats) =
  acc.Pea_core.Pea.virtualized_allocs <- acc.Pea_core.Pea.virtualized_allocs + st.Pea_core.Pea.virtualized_allocs;
  acc.materializations <- acc.materializations + st.materializations;
  acc.removed_loads <- acc.removed_loads + st.removed_loads;
  acc.removed_stores <- acc.removed_stores + st.removed_stores;
  acc.removed_monitor_ops <- acc.removed_monitor_ops + st.removed_monitor_ops;
  acc.folded_checks <- acc.folded_checks + st.folded_checks;
  acc.scratch_args <- acc.scratch_args + st.scratch_args;
  acc.sites <- acc.sites @ st.sites

let site_blacklisted vm (mid, bci) = List.mem bci vm.meths.(mid).fired

let trace vm = vm.env.Interp.instruments.Instruments.trace

(* A flight-recorder incident: the VM's recorder, if it was handed one,
   dumps the VM's tracer (which [create] guarantees it has). *)
let incident vm ~reason =
  match vm.env.Interp.instruments with
  | { Instruments.flight = Some f; trace = Some t; _ } -> Flight.trigger f t ~reason
  | _ -> ()

let tier_name = function None -> "jit" | Some _ -> "osr"

(* The end of a compiled activation, however it ends: its profiler frame
   and its stack region go. A top-level function, so a call allocates no
   closure for it. *)
let leave_compiled cpu pdepth heap =
  (match cpu with Some p -> Pcpu.truncate p pdepth | None -> ());
  Heap.pop_frame heap

(* The one install path: the VM's own compile and shared-cache adoption
   both end here. Compile-time quantities land on the runtime counters
   only when code is installed. *)
let install vm (m : Classfile.rt_method) osr_bci (code : Jit.compiled) =
  let stats = vm.env.Interp.stats in
  let r = vm.meths.(m.Classfile.mth_id) in
  let ic = { ic_code = code; ic_closure = None } in
  (match osr_bci with
  | None ->
      r.code <- Some ic;
      Stats.incr stats Stats.compiled_methods
  | Some header ->
      r.osr <- (header, ic) :: r.osr;
      Stats.incr stats Stats.osr_compiles);
  Stats.observe stats Stats.compiled_graph_nodes (Pea_ir.Graph.n_nodes code.Jit.graph);
  Stats.add stats Stats.speculative_inlines code.Jit.spec_inlines;
  Stats.add stats Stats.inline_blacklist_skips code.Jit.spec_blacklist_skips;
  Option.iter (accumulate_jit_stats vm.jit_stats) code.Jit.pea_stats;
  ic

let rec invoke vm (m : Classfile.rt_method) args =
  let r = vm.meths.(m.Classfile.mth_id) in
  if vm.interp_only || r.pinned then Interp.run vm.env m args
  else
    match r.code with
    | Some ic -> run_compiled vm m ic args
    | None ->
        let invocations = Profile.invocations vm.env.Interp.profile m in
        if invocations >= vm.config.Jit.compile_threshold && Jit.compilable m then
          match vm.code_source with
          | Some cs -> (
              (* serving: the shared cache either delivers ready code or
                 takes the request; the VM never compiles on its own *)
              match cs.cs_code m with
              | Some code -> run_compiled vm m (install vm m None code) args
              | None -> Interp.run vm.env m args)
          | None -> run_compiled vm m (compile_now vm m None) args
        else Interp.run vm.env m args

(* Compile inline at the threshold: the mutator stalls for the pipeline.
   An exception escaping the compiler is a flight-recorder incident: the
   ring is dumped, then the exception propagates and ends the run. An
   OSR build refusal is no fault: [on_back_edge] expects it and marks
   the header. *)
and compile_now vm (m : Classfile.rt_method) osr_bci =
  let invocations = Profile.invocations vm.env.Interp.profile m in
  Log.debug (fun k ->
      k "compiling %s%s (invocations=%d, blacklisted sites=%d)" (Classfile.qualified_name m)
        (match osr_bci with None -> "" | Some h -> Printf.sprintf " for OSR at bci %d" h)
        invocations
        (Stats.get vm.env.Interp.stats Stats.site_blacklists));
  let trace = trace vm in
  (match trace with
  | Some t ->
      Trace.emit t
        (Event.Tier_promote
           { meth = Classfile.qualified_name m; tier = tier_name osr_bci; invocations })
  | None -> ());
  let code =
    match
      Jit.compile ?summaries:vm.summaries ~blacklist:(site_blacklisted vm) ?osr_at:osr_bci ?trace
        vm.config vm.program vm.env.Interp.profile m
    with
    | code -> code
    | exception (Pea_ir.Builder.Build_error _ as e) when osr_bci <> None -> raise e
    | exception e ->
        incident vm ~reason:"compile-failure";
        raise e
  in
  (* synchronous compilation stalls the mutator for the modeled pipeline
     latency; the charge lands on a dedicated counter, never [cycles] *)
  Stats.add vm.env.Interp.stats Stats.compile_stall_cycles
    (Cost.compile_latency ~bytecodes:(Array.length m.Classfile.mth_code));
  install vm m osr_bci code

(* Per-site deopt policy: blacklist the exact site that fired (innermost
   deopt frame), invalidate every piece of the root method's code, and pin
   the method to the interpreter once a deopt storm proves speculation is
   not paying for itself. *)
and handle_deopt vm (m : Classfile.rt_method) ~reason ?oracle (d : Pea_ir.Graph.deopt) lookup =
  let stats = vm.env.Interp.stats in
  let trace = trace vm in
  let fs = d.Pea_ir.Graph.d_state in
  let site_method = fs.Pea_ir.Frame_state.fs_method in
  let site_bci = fs.Pea_ir.Frame_state.fs_bci in
  let site_rec = vm.meths.(site_method.Classfile.mth_id) in
  (* a missed receiver-class guard is counted separately from branch
     deopts, with the actual receiver class in the trace event *)
  let reason =
    match d.Pea_ir.Graph.d_guard with
    | None -> reason
    | Some gd ->
        Stats.incr stats Stats.guard_deopts;
        (match trace with
        | None -> ()
        | Some t ->
          (* the pre-call state stacks [argN..arg1; recv] top-first, so
             the receiver sits [arity - 1] entries down *)
          let actual =
            match List.nth_opt fs.Pea_ir.Frame_state.fs_stack
                    (Classfile.arity gd.Pea_ir.Graph.dg_callee - 1)
            with
            | Some (Pea_ir.Frame_state.F_node id) -> (
                match lookup id with
                | Value.Vobj o -> o.Value.o_cls.Classfile.cls_name
                | Value.Vnull -> "null"
                | _ -> "?")
            | Some (Pea_ir.Frame_state.F_const Pea_ir.Frame_state.Cnull) -> "null"
            | Some (Pea_ir.Frame_state.F_virtual vid) -> (
                (* a virtual receiver's exact class is in its descriptor *)
                match List.assoc_opt vid fs.Pea_ir.Frame_state.fs_virtuals with
                | Some { Pea_ir.Frame_state.vd_shape = Pea_ir.Frame_state.Obj_shape c; _ } ->
                    c.Classfile.cls_name
                | _ -> "?")
            | _ -> "?"
          in
          Trace.emit t
            (Event.Inline_guard_deopt
               {
                 meth = Classfile.qualified_name gd.Pea_ir.Graph.dg_method;
                 bci = gd.Pea_ir.Graph.dg_bci;
                 expected = gd.Pea_ir.Graph.dg_expected.Classfile.cls_name;
                 actual;
               }));
        "guard-failed"
  in
  Log.debug (fun k ->
      k "deoptimizing %s at bci %d (%d frames); blacklisting site in %s, invalidating compiled \
         code"
        (Classfile.qualified_name m) site_bci
        (Pea_ir.Frame_state.depth fs)
        (Classfile.qualified_name site_method));
  if not (List.mem site_bci site_rec.fired) then begin
    site_rec.fired <- site_bci :: site_rec.fired;
    Stats.incr stats Stats.site_blacklists;
    match trace with
    | Some t ->
        Trace.emit t
          (Event.Site_blacklist { meth = Classfile.qualified_name site_method; bci = site_bci })
    | None -> ()
  end;
  let root = vm.meths.(m.Classfile.mth_id) in
  root.code <- None;
  root.osr <- [];
  root.invalidations <- root.invalidations + 1;
  if root.invalidations >= vm.config.Jit.deopt_storm_limit then begin
    Log.debug (fun k ->
        k "deopt storm in %s (%d invalidations): pinning to the interpreter"
          (Classfile.qualified_name m) root.invalidations);
    root.pinned <- true;
    (* the ring now holds the whole storm: snapshot it while it does *)
    incident vm ~reason:"deopt-storm"
  end;
  (* the serving layer acts on the report at its next barrier *)
  (match vm.code_source with
  | Some cs -> cs.cs_deopt m ~site:(site_method.Classfile.mth_id, site_bci)
  | None -> ());
  match Deopt.handle ~reason ?oracle vm.env d lookup with
  | v -> v
  | exception (Oracle.Divergence _ as e) ->
      incident vm ~reason:"oracle-divergence";
      raise e

and run_compiled vm (m : Classfile.rt_method) ic args =
  let cell = vm.invocations_cell and i = vm.invocations_idx in
  cell.(i) <- cell.(i) + 1;
  (* compiled-tier calls keep feeding the profile, so invocation counts
     reported by [mjvm explain] / [Tier_promote] stay live *)
  let p = vm.env.Interp.profile.(m.Classfile.mth_id) in
  p.Profile.invocations <- p.Profile.invocations + 1;
  exec_compiled vm m ~reason:"speculation-failed" ic args

(* Transfer an interpreter frame into OSR code. No invocation is counted:
   the frame was already counted when it entered the interpreter. *)
and run_osr vm m ic (locals : Value.value array) =
  Stats.incr vm.env.Interp.stats Stats.osr_entries;
  exec_compiled vm m ~reason:"osr-speculation-failed" ic (Array.to_list locals)

and exec_compiled vm m ~reason ic args =
  let code = ic.ic_code in
  (* with the oracle on, snapshot the entry state now so a later deopt of
     this activation can be bisimulation-checked against a shadow replay *)
  let oracle =
    if not vm.config.Jit.oracle then None
    else
      match code.Jit.graph.Pea_ir.Graph.g_osr_entry with
      | Some header ->
          Some
            (Oracle.snapshot_osr ~program:vm.program vm.env m ~header
               ~locals:(Array.of_list args))
      | None -> Some (Oracle.snapshot_call ~program:vm.program vm.env m args)
  in
  let cc = ensure_closure vm m ic in
  (* profiler shadow frame for this compiled activation; on deopt the
     frame is truncated BEFORE the interpreter frames run, so the
     reconstructed frames appear at this activation's depth *)
  let cpu = vm.env.Interp.instruments.Instruments.cpu in
  let pdepth =
    match cpu with
    | None -> 0
    | Some p ->
        let d0 = Pcpu.depth p in
        Pcpu.push p m.Classfile.mth_id
          (match code.Jit.graph.Pea_ir.Graph.g_osr_entry with
          | Some _ -> Pcpu.T_osr
          | None -> Pcpu.T_jit);
        d0
  in
  (* the compiled activation owns a stack region: frame-bounded
     materializations land there and are reclaimed in O(1) when the
     activation ends — by return, throw, or deopt alike. A deopt is
     handled inside this extent, which first promotes its live stack
     objects to the heap (see {!Deopt.handle}). *)
  let heap = vm.env.Interp.heap in
  Heap.push_frame heap;
  match Closure_compile.run cc args with
  | r ->
      leave_compiled cpu pdepth heap;
      r
  | exception Ir_exec.Deoptimize (d, lookup) -> (
      (match cpu with Some p -> Pcpu.truncate p pdepth | None -> ());
      match handle_deopt vm m ~reason ?oracle d lookup with
      | r ->
          leave_compiled cpu pdepth heap;
          r
      | exception e ->
          leave_compiled cpu pdepth heap;
          raise e)
  | exception e ->
      leave_compiled cpu pdepth heap;
      raise e

and ensure_closure vm m ic =
  match ic.ic_closure with
  | Some cc -> cc
  | None ->
      (* built on the code's first execution *)
      (match trace vm with
      | Some t ->
          Trace.emit t
            (Event.Tier_promote
               {
                 meth = Classfile.qualified_name m;
                 tier = "closure";
                 invocations = Profile.invocations vm.env.Interp.profile m;
               })
      | None -> ());
      let cc = Closure_compile.compile vm.env ic.ic_code.Jit.prepared in
      ic.ic_closure <- Some cc;
      Stats.incr vm.env.Interp.stats Stats.closure_compiled_methods;
      cc

(* The interpreter's back-edge hook: once a loop header is hot, compile an
   OSR graph entered at it, transfer the running frame in, and cache
   normal-entry code so subsequent calls skip the interpreter too. *)
and on_back_edge vm (m : Classfile.rt_method) ~header ~locals =
  let cfg = vm.config in
  let r = vm.meths.(m.Classfile.mth_id) in
  (* the counter test comes first, so a back edge below the threshold
     makes no list walk; every test is pure, so the order is free *)
  if
    (not cfg.Jit.osr)
    || Profile.back_edge_count vm.env.Interp.profile m ~header < cfg.Jit.osr_threshold
    || vm.interp_only
    || r.pinned
    || List.mem header r.osr_failed
  then Interp.No_osr
  else if not (Jit.compilable ~osr:true m) then begin
    r.osr_failed <- header :: r.osr_failed;
    Interp.No_osr
  end
  else
    let code =
      match List.assoc_opt header r.osr with
      | Some _ as code -> code
      | None -> (
          match compile_now vm m (Some header) with
          | code -> Some code
          | exception Pea_ir.Builder.Build_error msg ->
              (* e.g. the loop nest is irreducible when entered at this
                 header; the enclosing loop's header will still OSR *)
              Log.debug (fun k ->
                  k "OSR at %s bci %d not possible: %s" (Classfile.qualified_name m) header msg);
              r.osr_failed <- header :: r.osr_failed;
              None)
    in
    match code with
    | None -> Interp.No_osr
    | Some code ->
        (* a hot loop makes the whole method hot: ask for normal-entry
           code now instead of waiting for the invocation counter *)
        if Option.is_none r.code && Jit.compilable m then
          ignore (compile_now vm m None);
        Interp.Osr_return (run_osr vm m code locals)

let create ?trace ?cpu ?heap ?flight ?(config = Jit.default_config) (program : Link.program) : t =
  (* catch frontend/compiler bugs at VM-creation time, like the JVM's
     class-file verifier *)
  Verify.verify_program program;
  (* a flight recorder dumps this VM's tracer: handed one without a
     tracer, the VM keeps a private ring for it *)
  let trace = match (trace, flight) with None, Some _ -> Some (Trace.create ()) | _ -> trace in
  let printed_rev = ref [] in
  let env =
    Interp.make_env
      ~on_print:(fun v -> printed_rev := v :: !printed_rev)
      ~instruments:{ Instruments.trace; cpu; heap; flight }
      program
  in
  let stats = env.Interp.stats in
  (* the tracer and the sampling profiler this VM was handed follow its
     cycle clock (each VM's counter starts at zero, so the sampling grid
     restarts with it) *)
  let clock () = Stats.get stats Stats.cycles in
  Option.iter (fun t -> Trace.set_clock t clock) trace;
  Option.iter (fun p -> Pcpu.set_clock p clock) cpu;
  let invocations_cell, invocations_idx = Stats.cell stats Stats.invocations in
  (* the interpreter's hooks close over the VM they belong to *)
  let rec vm =
    {
      program;
      config;
      env =
        {
          env with
          Interp.on_invoke = (fun m args -> invoke vm m args);
          on_back_edge = (fun m ~header ~locals -> on_back_edge vm m ~header ~locals);
        };
      meths =
        Array.init (Array.length program.Link.methods) (fun _ ->
            { code = None; osr = []; osr_failed = []; fired = []; invalidations = 0; pinned = false });
      printed_rev;
      jit_stats = Pea_core.Pea.mk_stats ();
      summaries =
        (if config.Jit.summaries then Some (Pea_analysis.Summary.analyze program) else None);
      code_source = None;
      interp_only = false;
      invocations_cell;
      invocations_idx;
    }
  in
  vm

let stats vm = vm.env.Interp.stats

let profile vm = vm.env.Interp.profile

let jit_stats vm = vm.jit_stats

let printed vm = List.rev !(vm.printed_rev)

let compiled_graph vm (m : Classfile.rt_method) =
  Option.map (fun ic -> ic.ic_code.Jit.graph) vm.meths.(m.Classfile.mth_id).code

let interpreter_pinned vm (m : Classfile.rt_method) = vm.meths.(m.Classfile.mth_id).pinned

let set_code_source vm cs = vm.code_source <- Some cs

let set_interp_only vm = vm.interp_only <- true

let interp_only vm = vm.interp_only

let invalidation_count vm (m : Classfile.rt_method) = vm.meths.(m.Classfile.mth_id).invalidations

let blacklisted_sites vm (m : Classfile.rt_method) =
  List.sort compare vm.meths.(m.Classfile.mth_id).fired

let result_of vm return_value =
  {
    return_value;
    printed = printed vm;
    stats = Stats.snapshot vm.env.Interp.stats;
    jit_stats = vm.jit_stats;
  }

let run vm = result_of vm (invoke vm (Link.entry_exn vm.program) [])

let run_main_iterations vm n =
  let last = ref None in
  for _ = 1 to n do
    last := invoke vm (Link.entry_exn vm.program) []
  done;
  result_of vm !last

let warm_up vm m args n =
  for _ = 1 to n do
    ignore (invoke vm m args)
  done

let run_source ?config src =
  let program = Link.compile_source src in
  run (create ?config program)
