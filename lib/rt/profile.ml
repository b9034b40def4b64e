(* Execution profiles collected by the interpreter tier and consumed by the
   JIT: invocation counters (compilation policy), per-loop-header back-edge
   counters (on-stack-replacement policy), per-branch taken counts
   (speculative cold-branch pruning, the mechanism that makes
   deoptimization and therefore §5.5 of the paper observable), and
   per-call-site receiver classes (inline-cache seeding in the closure
   execution tier).

   Back-edge and branch counts are int arrays indexed by bci, sized to
   the method's code, so recording one is an array increment: the
   interpreter records a branch at every conditional jump. Receiver
   profiles stay hashed per call site; they are sparse, and only an
   interpreted virtual call records one. *)

open Pea_bytecode

(* One receiver class observed at a virtual call site. [rc_order] is the
   arrival rank of the class at this site; [hot_receiver] uses it as the
   deterministic tie-break (first-seen wins), matching the behaviour of
   the original insertion-ordered assoc list. *)
type receiver_cell = {
  rc_cls : Classfile.rt_class;
  mutable rc_count : int;
  rc_order : int;
}

type call_site_profile = {
  site_receivers : (int, receiver_cell) Hashtbl.t; (* cls_id -> cell *)
  mutable site_next_order : int;
}

type method_profile = {
  mutable invocations : int;
  back_edges : int array; (* loop-header bci -> back edges taken to it *)
  branch_taken : int array; (* bci -> times the branch jumped *)
  branch_fallthrough : int array; (* bci -> times it fell through *)
  receivers : (int, call_site_profile) Hashtbl.t;
      (* bci of an Invokevirtual -> per-class dispatch counts; a Hashtbl
         per site so recording stays O(1) even at megamorphic sites *)
}

type t = method_profile array (* indexed by mth_id *)

let create (program : Link.program) : t =
  Array.map
    (fun (m : Classfile.rt_method) ->
      let n = max (Array.length m.mth_code) 1 in
      {
        invocations = 0;
        back_edges = Array.make n 0;
        branch_taken = Array.make n 0;
        branch_fallthrough = Array.make n 0;
        receivers = Hashtbl.create 8;
      })
    program.methods

let for_method (t : t) (m : Classfile.rt_method) = t.(m.mth_id)

(* Deep snapshot for the serving layer's queued compiles: a task compiles
   at its deadline from the profile as it was at enqueue, not from the
   live tables the interpreter kept mutating in between. *)
let copy (t : t) : t =
  Array.map
    (fun p ->
      {
        invocations = p.invocations;
        back_edges = Array.copy p.back_edges;
        branch_taken = Array.copy p.branch_taken;
        branch_fallthrough = Array.copy p.branch_fallthrough;
        receivers =
          (let r = Hashtbl.create (Hashtbl.length p.receivers) in
           Hashtbl.iter
             (fun bci site ->
               let site_receivers = Hashtbl.create (Hashtbl.length site.site_receivers) in
               Hashtbl.iter
                 (fun cls_id cell ->
                   Hashtbl.replace site_receivers cls_id
                     { rc_cls = cell.rc_cls; rc_count = cell.rc_count; rc_order = cell.rc_order })
                 site.site_receivers;
               Hashtbl.replace r bci { site_receivers; site_next_order = site.site_next_order })
             p.receivers;
           r);
      })
    t

let record_invocation t m =
  let p = for_method t m in
  p.invocations <- p.invocations + 1

let record_back_edge t m ~header =
  let p = for_method t m in
  if header >= 0 && header < Array.length p.back_edges then
    p.back_edges.(header) <- p.back_edges.(header) + 1

let back_edge_count t m ~header =
  let p = for_method t m in
  if header >= 0 && header < Array.length p.back_edges then p.back_edges.(header) else 0

let record_branch t m ~bci ~taken =
  let p = for_method t m in
  let counts = if taken then p.branch_taken else p.branch_fallthrough in
  counts.(bci) <- counts.(bci) + 1

let branch_counts t m ~bci =
  let p = for_method t m in
  if bci >= 0 && bci < Array.length p.branch_taken then
    (p.branch_taken.(bci), p.branch_fallthrough.(bci))
  else (0, 0)

let record_receiver t m ~bci (cls : Classfile.rt_class) =
  let p = for_method t m in
  let site =
    match Hashtbl.find_opt p.receivers bci with
    | Some site -> site
    | None ->
        let site = { site_receivers = Hashtbl.create 4; site_next_order = 0 } in
        Hashtbl.replace p.receivers bci site;
        site
  in
  match Hashtbl.find_opt site.site_receivers cls.Classfile.cls_id with
  | Some cell -> cell.rc_count <- cell.rc_count + 1
  | None ->
      Hashtbl.replace site.site_receivers cls.Classfile.cls_id
        { rc_cls = cls; rc_count = 1; rc_order = site.site_next_order };
      site.site_next_order <- site.site_next_order + 1

let hot_receiver t m ~bci =
  match Hashtbl.find_opt (for_method t m).receivers bci with
  | None -> None
  | Some site ->
      let best =
        Hashtbl.fold
          (fun _ cell best ->
            match best with
            | None -> Some cell
            | Some b ->
                if
                  cell.rc_count > b.rc_count
                  || (cell.rc_count = b.rc_count && cell.rc_order < b.rc_order)
                then Some cell
                else best)
          site.site_receivers None
      in
      Option.map (fun c -> c.rc_cls) best

let invocations t m = (for_method t m).invocations
