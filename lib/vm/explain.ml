(* Per-allocation-site PEA provenance report.

   Compiles the method through the JIT itself ([Jit.compile], entered at
   a loop header for an OSR entry) and renders the site reports its
   escape analysis collected: for every New / new[] in the method after
   inlining, whether it was virtualized, where and why it was
   materialized, and how many loads, stores and monitor operations its
   virtualization removed. *)

open Pea_bytecode
module Pea = Pea_core.Pea
module Event = Pea_obs.Event
module Pheap = Pea_obs.Profile_heap

(* What the heap profiler actually saw at one bytecode site during an
   observation run — the empirical counterpart of the analysis verdict. *)
type observation = {
  ob_allocs : int; (* materialized heap allocations *)
  ob_remat : int; (* rematerializations at deopts resumed at this site *)
  ob_scratch : int; (* scratch allocations backing virtual arguments *)
  ob_stack : int; (* frame-bounded stack-region allocations *)
}

type t = {
  ex_method : string;
  ex_summaries : bool;
  ex_stats : Pea.pass_stats;
  ex_spec : Pea_analysis.Spec_check.violation list;
      (* speculation-safety verdict on the compiled graph *)
  ex_observed : (string * int, observation) Hashtbl.t option;
      (* per (method, bci) observed counts, when an observation ran *)
}

(* Run the program under private profilers ({!Report.profile}) and fold
   the heap records into per-(method, bci) observations, so `mjvm explain
   --observed` shows the decision AND the outcome in one view. *)
let observe ~config ?(iterations = 1) (program : Link.program) :
    (string * int, observation) Hashtbl.t =
  let _, _, heap = Report.profile ~config ~iterations program in
  let tbl = Hashtbl.create 32 in
  Pheap.fold
    (fun ~mid ~bci ~cls:_ ~kind ~count ~bytes:_ () ->
      let key = (Report.method_name program mid, bci) in
      let prev =
        Option.value
          (Hashtbl.find_opt tbl key)
          ~default:{ ob_allocs = 0; ob_remat = 0; ob_scratch = 0; ob_stack = 0 }
      in
      let next =
        match kind with
        | Pheap.K_alloc -> { prev with ob_allocs = prev.ob_allocs + count }
        | Pheap.K_remat -> { prev with ob_remat = prev.ob_remat + count }
        | Pheap.K_scratch -> { prev with ob_scratch = prev.ob_scratch + count }
        | Pheap.K_stack -> { prev with ob_stack = prev.ob_stack + count }
        (* a promoted object was already observed as [stack] at its
           allocation site; its promotion is recorded at the deopt site *)
        | Pheap.K_promote -> prev
      in
      Hashtbl.replace tbl key next)
    heap ();
  tbl

let analyze ?osr_at ?observed (config : Jit.config) (program : Link.program) profile
    (m : Classfile.rt_method) : t =
  let config = { config with Jit.check_level = Pea_analysis.Spec_check.No_check } in
  let summaries =
    if config.Jit.summaries then Some (Pea_analysis.Summary.analyze program) else None
  in
  let compiled = Jit.compile ?summaries ?osr_at config program profile m in
  {
    ex_method = Classfile.qualified_name m;
    ex_summaries = config.Jit.summaries;
    ex_stats = Option.get compiled.Jit.pea_stats;
    ex_spec = Pea_analysis.Spec_check.check ?summaries ~phase:"final" compiled.Jit.graph;
    ex_observed = observed;
  }

(* One site's fate in one line plus one line per distinct decision. *)
let pp_site ?observed ppf (r : Pea.site_report) =
  Format.fprintf ppf "@,site v%d: %s (allocated in B%d%s)" r.site_node r.site_class r.site_block
    (if r.Pea.site_bci >= 0 then Printf.sprintf ", %s@%d" r.Pea.site_method r.Pea.site_bci
     else "");
  (match r.sr_origin with
  | [] -> ()
  | chain ->
      (* the site lives in a spliced callee: show each inline boundary it
         crossed, outermost first, with the guarded call site's bci *)
      Format.fprintf ppf "@,    inlined:";
      List.iter
        (fun (caller, callee, bci) ->
          Format.fprintf ppf "@,      %s -> %s (call site bci %d)" caller callee bci)
        chain);
  if not r.sr_virtualized then
    Format.fprintf ppf "@,    never virtualized: %s"
      (match r.sr_materialized with
      | (_, reason) :: _ -> Event.reason_message reason
      | [] -> "stays a real allocation")
  else begin
    (match r.sr_materialized with
    | [] -> Format.fprintf ppf "@,    fully scalar-replaced: never materialized"
    | decisions ->
        Format.fprintf ppf "@,    virtualized, then materialized:";
        List.iter
          (fun (block, reason) ->
            Format.fprintf ppf "@,      in B%d: %s" block (Event.reason_message reason))
          decisions);
    if r.sr_scratch > 0 then
      Format.fprintf ppf "@,    passed to callees as a scratch allocation %d time%s" r.sr_scratch
        (if r.sr_scratch = 1 then "" else "s");
    if r.sr_stack > 0 then
      Format.fprintf ppf
        "@,    verdict: stack — frame-bounded, materialized into the stack region %d time%s (no heap allocation)"
        r.sr_stack
        (if r.sr_stack = 1 then "" else "s")
  end;
  if r.sr_loads + r.sr_stores + r.sr_locks > 0 then
    Format.fprintf ppf "@,    removed: %d loads, %d stores, %d monitor ops" r.sr_loads r.sr_stores
      r.sr_locks;
  (* the heap profiler's empirical verdict for the same bytecode site *)
  match observed with
  | None -> ()
  | Some tbl -> (
      match Hashtbl.find_opt tbl (r.Pea.site_method, r.Pea.site_bci) with
      | None -> Format.fprintf ppf "@,    observed: 0 allocations"
      | Some ob ->
          Format.fprintf ppf "@,    observed: %d allocation%s, %d remat, %d scratch, %d stack"
            ob.ob_allocs
            (if ob.ob_allocs = 1 then "" else "s")
            ob.ob_remat ob.ob_scratch ob.ob_stack)

let pp ppf t =
  let st = t.ex_stats in
  Format.pp_open_vbox ppf 0;
  Format.fprintf ppf "PEA report for %s (summaries=%s)" t.ex_method
    (if t.ex_summaries then "on" else "off");
  (match st.Pea.sites with
  | [] -> Format.fprintf ppf "@,no allocation sites after inlining"
  | sites -> List.iter (pp_site ?observed:t.ex_observed ppf) sites);
  let scalar_replaced =
    List.length
      (List.filter (fun r -> r.Pea.sr_virtualized && r.Pea.sr_materialized = []) st.Pea.sites)
  in
  Format.fprintf ppf
    "@,@,sites: %d, fully scalar-replaced: %d, materializations: %d (%d to stack), scratch args: %d"
    (List.length st.Pea.sites) scalar_replaced st.Pea.materializations
    st.Pea.stack_materializations st.Pea.scratch_args;
  (match t.ex_spec with
  | [] -> Format.fprintf ppf "@,speculation safety: clean (every deopt state rematerializable)"
  | vs ->
      Format.fprintf ppf "@,speculation safety: %d violation%s" (List.length vs)
        (if List.length vs = 1 then "" else "s");
      List.iter
        (fun v -> Format.fprintf ppf "@,  %a" Pea_analysis.Spec_check.pp_violation v)
        vs);
  Format.pp_close_box ppf ();
  Format.pp_print_newline ppf ()

let to_string t = Format.asprintf "%a" pp t
