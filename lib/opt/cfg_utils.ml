(* CFG maintenance shared by the optimization passes:

   - [remove_edge]: unlink one control-flow edge, dropping the matching phi
     inputs in the target;
   - [cleanup]: strip edges from unreachable blocks, re-derive block kinds
     (a loop header whose back edges vanished becomes a merge or a plain
     block), simplify trivial phis, and run dead-code elimination. *)

open Pea_ir

(* Remove the [idx]-th predecessor entry of [target] (and the matching phi
   inputs). *)
let remove_pred_at (g : Graph.t) target idx =
  let b = Graph.block g target in
  b.Graph.preds <- List.filteri (fun i _ -> i <> idx) b.Graph.preds;
  List.iter
    (fun (phi : Node.t) ->
      match phi.Node.op with
      | Node.Phi p ->
          p.Node.inputs <-
            Array.of_list (List.filteri (fun i _ -> i <> idx) (Array.to_list p.Node.inputs))
      | _ -> ())
    b.Graph.phis

(* Remove one edge [src -> target]. When the same src appears several times
   in the pred list (an If with both targets equal), only the first entry
   is removed. *)
let remove_edge g ~src ~target =
  let b = Graph.block g target in
  let rec find idx = function
    | [] -> None
    | p :: _ when p = src -> Some idx
    | _ :: rest -> find (idx + 1) rest
  in
  match find 0 b.Graph.preds with
  | Some idx -> remove_pred_at g target idx
  | None -> ()

(* Re-derive block kinds from the current CFG shape. *)
let recompute_kinds (g : Graph.t) =
  let doms = Dominators.compute g in
  let reachable = Graph.reachable g in
  Graph.iter_blocks
    (fun b ->
      if reachable.(b.Graph.b_id) then begin
        let has_back_edge =
          List.exists (fun p -> Dominators.dominates doms b.Graph.b_id p) b.Graph.preds
        in
        let kind =
          if has_back_edge then Graph.Loop_header
          else if List.length b.Graph.preds > 1 then Graph.Merge
          else Graph.Plain
        in
        (* Keep Merge for single-pred blocks that still carry phis; the phi
           simplifier will remove them first. *)
        if not (kind = Graph.Plain && b.Graph.phis <> []) then b.Graph.kind <- kind
      end)
    g

(* Drop predecessor entries that come from unreachable blocks. *)
let prune_unreachable_edges (g : Graph.t) =
  let reachable = Graph.reachable g in
  Graph.iter_blocks
    (fun b ->
      if reachable.(b.Graph.b_id) then begin
        if List.exists (fun p -> not reachable.(p)) b.Graph.preds then begin
          (* remove back-to-front so indices stay valid *)
          let indexed = List.mapi (fun i p -> (i, p)) b.Graph.preds in
          List.rev indexed
          |> List.iter (fun (i, p) -> if not reachable.(p) then remove_pred_at g b.Graph.b_id i)
        end
      end)
    g

(* Dead-code elimination: pure instructions (and phis) whose values are
   never used — by other instructions, terminators, or frame states — are
   deleted. Every pass ends with it, so liveness is a byte per node id
   and blocks without dead nodes are left untouched. *)
let eliminate_dead_code (g : Graph.t) =
  let reachable = Graph.reachable g in
  let used = Bytes.make (Graph.n_nodes g) '\000' in
  let is_used id = id >= 0 && id < Bytes.length used && Bytes.unsafe_get used id <> '\000' in
  let mark id = if id >= 0 && id < Bytes.length used then Bytes.unsafe_set used id '\001' in
  (* roots: non-pure instructions, terminators, frame states *)
  Graph.iter_blocks
    (fun b ->
      if reachable.(b.Graph.b_id) then begin
        Pea_support.Dyn_array.iter
          (fun (n : Node.t) ->
            if not (Node.is_pure n.Node.op) then begin
              mark n.Node.id;
              Node.iter_operands mark n.Node.op
            end;
            match n.Node.fs with Some fs -> Frame_state.iter_nodes mark fs | None -> ())
          b.Graph.instrs;
        (match b.Graph.term with
        | Graph.If { cond; _ } -> mark cond
        | Graph.Return (Some v) -> mark v
        | Graph.Deopt { d_state = fs; _ } -> Frame_state.iter_nodes mark fs
        | Graph.Goto _ | Graph.Return None | Graph.Trap _ | Graph.Unreachable -> ());
        match b.Graph.entry_fs with Some fs -> Frame_state.iter_nodes mark fs | None -> ()
      end)
    g;
  (* transitively mark operands of used pure nodes *)
  let changed = ref true in
  let mark_new o =
    if o >= 0 && o < Bytes.length used && not (is_used o) then begin
      mark o;
      changed := true
    end
  in
  let visit (n : Node.t) = if is_used n.Node.id then Node.iter_operands mark_new n.Node.op in
  while !changed do
    changed := false;
    Graph.iter_blocks
      (fun b ->
        if reachable.(b.Graph.b_id) then begin
          List.iter visit b.Graph.phis;
          Pea_support.Dyn_array.iter visit b.Graph.instrs
        end)
      g
  done;
  List.iter (fun (p : Node.t) -> mark p.Node.id) g.Graph.params;
  (* sweep *)
  let dead (n : Node.t) = Node.is_pure n.Node.op && not (is_used n.Node.id) in
  let keep (n : Node.t) =
    let k = not (dead n) in
    if not k then Graph.delete_node g n.Node.id;
    k
  in
  Graph.iter_blocks
    (fun b ->
      if reachable.(b.Graph.b_id) then begin
        if List.exists dead b.Graph.phis then b.Graph.phis <- List.filter keep b.Graph.phis;
        if Pea_support.Dyn_array.exists dead b.Graph.instrs then begin
          let kept = List.filter keep (Graph.instr_list b) in
          Pea_support.Dyn_array.clear b.Graph.instrs;
          List.iter (fun n -> ignore (Pea_support.Dyn_array.push b.Graph.instrs n)) kept
        end
      end)
    g

let cleanup (g : Graph.t) =
  prune_unreachable_edges g;
  Graph.simplify_trivial_phis g;
  recompute_kinds g;
  eliminate_dead_code g
