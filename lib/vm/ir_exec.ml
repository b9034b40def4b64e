(* Per-graph execution tables for compiled code, and the exception compiled
   code raises at a [Deopt] terminator.

   [prepare] resolves, once per compiled graph, what the closure tier
   ({!Closure_compile}) needs beyond the graph itself: the phi routing of
   every (predecessor, block) edge and the bytecode-site attribution the
   profilers charge samples and allocations to. A [prepared] record is
   never written after [prepare] returns, so the serving layer's shared
   code cache can hand one to every tenant's domain; per-translation
   scratch state lives in the closure translation instead. *)

open Pea_bytecode
open Pea_ir
open Pea_rt

exception Deoptimize of Graph.deopt * (Node.node_id -> Value.value)

let const_value (c : Node.const) =
  match c with
  | Node.Cint n -> Value.Vint n
  | Node.Cbool b -> Value.Vbool b
  | Node.Cnull | Node.Cundef -> Value.Vnull

type phi_block = {
  pb_dsts : int array;
  pb_srcs : int array array;
  pb_route : int array;
}

type prepared = {
  p_graph : Graph.t;
  p_phis : phi_block option array;
  p_sites : (int * int) array;
  p_bcis : int array;
}

(* Per node the nearest enclosing (method id, bci) — the node's own frame
   state if it has one (innermost frame), else the last frame state seen
   earlier in its block, else the block entry state — and per block a
   representative bci for safepoint samples. (-1, -1) / -1 when the graph
   carries no states at all. *)
let site_tables (g : Graph.t) : (int * int) array * int array =
  let of_fs (fs : Frame_state.t) =
    (fs.Frame_state.fs_method.Classfile.mth_id, fs.Frame_state.fs_bci)
  in
  let sites = Array.make (max (Graph.n_nodes g) 1) (-1, -1) in
  let bcis = Array.make (max (Graph.n_blocks g) 1) (-1) in
  for bid = 0 to Graph.n_blocks g - 1 do
    let b = Graph.block g bid in
    let entry = Option.map of_fs b.Graph.entry_fs in
    bcis.(bid) <- (match entry with Some (_, bci) -> bci | None -> -1);
    let cur = ref (Option.value ~default:(-1, -1) entry) in
    List.iter (fun (p : Node.t) -> sites.(p.Node.id) <- !cur) b.Graph.phis;
    Pea_support.Dyn_array.iter
      (fun (n : Node.t) ->
        (match n.Node.fs with Some fs -> cur := of_fs fs | None -> ());
        sites.(n.Node.id) <- !cur)
      b.Graph.instrs
  done;
  (sites, bcis)

let prepare (g : Graph.t) : prepared =
  let n = Graph.n_blocks g in
  let phis = Array.make n None in
  for bid = 0 to n - 1 do
    let b = Graph.block g bid in
    match b.Graph.phis with
    | [] -> ()
    | ps ->
        let dsts = Array.of_list (List.map (fun (p : Node.t) -> p.Node.id) ps) in
        let input i (p : Node.t) =
          match p.Node.op with Node.Phi ph -> ph.Node.inputs.(i) | _ -> assert false
        in
        let srcs =
          Array.init (List.length b.Graph.preds) (fun i ->
              Array.of_list (List.map (input i) ps))
        in
        let route = Array.make n (-1) in
        (* on a duplicated edge keep the first index *)
        List.iteri (fun i pred -> if route.(pred) < 0 then route.(pred) <- i) b.Graph.preds;
        phis.(bid) <- Some { pb_dsts = dsts; pb_srcs = srcs; pb_route = route }
  done;
  let sites, bcis = site_tables g in
  { p_graph = g; p_phis = phis; p_sites = sites; p_bcis = bcis }
