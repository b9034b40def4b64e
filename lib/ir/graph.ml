(* The IR graph: basic blocks holding SSA instructions, linked by
   terminators. Block 0 is the entry. Phi inputs are positional: input [i]
   of a phi in block [b] corresponds to predecessor [List.nth b.preds i]. *)

open Pea_bytecode

type block_id = int

type block_kind =
  | Plain
  | Merge
  | Loop_header

(* Provenance of a Deopt terminator: the pruned conditional branch whose
   cold edge it replaced. [de_src] is the bytecode index of the branch in
   [de_method]; [de_jump] is true when the deopt fires on the edge the
   bytecode would *jump* along (as opposed to falling through). The deopt
   oracle uses this to stop its shadow replay at the exact branch-edge
   traversal that triggered the deopt. *)
type deopt_edge = {
  de_method : Classfile.rt_method;
  de_src : int;
  de_jump : bool;
}

(* Provenance of a Deopt terminator that is the miss edge of a speculative
   inline's receiver-class guard: which virtual call site was guarded,
   which exact class the profile predicted, and which callee was spliced
   behind the guard. The oracle uses this to stop its shadow replay at the
   dispatch whose receiver broke the speculation; the VM uses it to count
   guard deopts separately from branch deopts. *)
type deopt_guard = {
  dg_method : Classfile.rt_method; (* method containing the invokevirtual *)
  dg_bci : int; (* bytecode index of the guarded invokevirtual *)
  dg_expected : Classfile.rt_class; (* speculated exact receiver class *)
  dg_callee : Classfile.rt_method; (* target inlined behind the guard *)
}

type deopt = {
  d_state : Frame_state.t; (* interpreter state to rematerialize *)
  d_edge : deopt_edge option; (* [None] for deopts without branch provenance *)
  d_guard : deopt_guard option; (* [Some _] for receiver-guard miss edges *)
}

type terminator =
  | Goto of block_id
  | If of {
      cond : Node.node_id;
      tru : block_id;
      fls : block_id;
      br_bci : int; (* bytecode index of the branch, for profile lookup *)
      br_method : Classfile.rt_method; (* method the branch bytecode belongs to *)
      br_negated : bool;
          (* [true] when built from an [If_false] bytecode: the profile's
             "taken" count then corresponds to the [fls] edge *)
    }
  | Return of Node.node_id option
  | Deopt of deopt (* transfer to the interpreter *)
  | Trap of string (* guaranteed runtime fault *)
  | Unreachable (* placeholder during construction *)

type block = {
  b_id : block_id;
  mutable preds : block_id list;
  mutable phis : Node.t list;
  instrs : Node.t Pea_support.Dyn_array.t;
  mutable term : terminator;
  mutable kind : block_kind;
  mutable entry_fs : Frame_state.t option;
      (* interpreter state at block entry; used for speculative pruning *)
}

type t = {
  g_method : Classfile.rt_method;
  blocks : block Pea_support.Dyn_array.t;
  nodes : Node.t option Pea_support.Dyn_array.t; (* indexed by node id *)
  mutable params : Node.t list; (* Param nodes, in parameter order *)
  mutable g_osr_entry : int option;
      (* [Some bci] for on-stack-replacement graphs: the loop-header
         bytecode index whose live locals the params transfer *)
}

let entry_id = 0

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create (m : Classfile.rt_method) =
  {
    g_method = m;
    blocks = Pea_support.Dyn_array.create ();
    nodes = Pea_support.Dyn_array.create ();
    params = [];
    g_osr_entry = None;
  }

let new_block ?(kind = Plain) g : block =
  let b =
    {
      b_id = Pea_support.Dyn_array.length g.blocks;
      preds = [];
      phis = [];
      instrs = Pea_support.Dyn_array.create ();
      term = Unreachable;
      kind;
      entry_fs = None;
    }
  in
  ignore (Pea_support.Dyn_array.push g.blocks b);
  b

let new_node g op : Node.t =
  let id = Pea_support.Dyn_array.length g.nodes in
  let n : Node.t = { id; op; fs = None } in
  ignore (Pea_support.Dyn_array.push g.nodes (Some n));
  n

let add_param g idx =
  let n = new_node g (Node.Param idx) in
  g.params <- g.params @ [ n ];
  n

let append g block op : Node.t =
  let n = new_node g op in
  ignore (Pea_support.Dyn_array.push block.instrs n);
  n

let add_phi g block : Node.t =
  let n = new_node g (Node.Phi { inputs = [||] }) in
  block.phis <- block.phis @ [ n ];
  n

(* ------------------------------------------------------------------ *)
(* Access                                                              *)
(* ------------------------------------------------------------------ *)

let block g id : block = Pea_support.Dyn_array.get g.blocks id

let n_blocks g = Pea_support.Dyn_array.length g.blocks

let node g id : Node.t =
  match Pea_support.Dyn_array.get g.nodes id with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "node v%d has been deleted" id)

let op_of g id = (node g id).Node.op

(* Mark a node as deleted in the node table; any later lookup of its id is
   a bug and raises. The node must already have been unlinked from its
   block by the caller. *)
let delete_node g id = Pea_support.Dyn_array.set g.nodes id None

let n_nodes g = Pea_support.Dyn_array.length g.nodes

let successors (term : terminator) =
  match term with
  | Goto b -> [ b ]
  | If { tru; fls; _ } -> [ tru; fls ]
  | Return _ | Deopt _ | Trap _ | Unreachable -> []

(* [iter_successors f term] is [List.iter f (successors term)] without
   building the list. *)
let iter_successors f (term : terminator) =
  match term with
  | Goto b -> f b
  | If { tru; fls; _ } ->
      f tru;
      f fls
  | Return _ | Deopt _ | Trap _ | Unreachable -> ()

let iter_blocks f g = Pea_support.Dyn_array.iter f g.blocks

(* [instr_list b] materializes the instruction sequence of [b]. *)
let instr_list (b : block) = Pea_support.Dyn_array.to_list b.instrs

(* ------------------------------------------------------------------ *)
(* CFG maintenance                                                     *)
(* ------------------------------------------------------------------ *)

(* Recompute all predecessor lists from terminators. Destroys the pred
   order that phis rely on, so this must only be used before phis exist or
   by passes that rebuild phis. *)
let recompute_preds g =
  iter_blocks (fun b -> b.preds <- []) g;
  iter_blocks
    (fun b -> List.iter (fun s -> (block g s).preds <- (block g s).preds @ [ b.b_id ]) (successors b.term))
    g

(* Reverse postorder over reachable blocks. Loop headers appear before
   their bodies (the DFS visits forward edges first because back edges
   return to an already-visited block). *)
let rpo_array g =
  let n = n_blocks g in
  let visited = Array.make n false and post = Array.make n 0 and count = ref 0 in
  let rec dfs id =
    if not visited.(id) then begin
      visited.(id) <- true;
      iter_successors dfs (block g id).term;
      post.(!count) <- id;
      incr count
    end
  in
  dfs entry_id;
  let k = !count in
  Array.init k (fun i -> post.(k - 1 - i))

let reverse_postorder g : block_id list = Array.to_list (rpo_array g)

let reachable g =
  let visited = Array.make (n_blocks g) false in
  let rec dfs id =
    if not visited.(id) then begin
      visited.(id) <- true;
      iter_successors dfs (block g id).term
    end
  in
  dfs entry_id;
  visited

(* ------------------------------------------------------------------ *)
(* Value substitution                                                  *)
(* ------------------------------------------------------------------ *)

(* The value a phi merges when all its inputs other than itself are one
   value, or -1. *)
let trivial_value (phi : Node.t) (p : Node.phi) =
  let v = ref (-1) and trivial = ref true in
  Array.iter
    (fun x ->
      if x <> phi.Node.id then
        if !v < 0 then v := x else if x <> !v then trivial := false)
    p.Node.inputs;
  if !trivial then !v else -1

(* Phis whose inputs are all equal (ignoring self-references) are replaced
   by that input, iterating to a fixpoint. Shared by the graph builder and
   the CFG cleanup pass. *)
let rec simplify_trivial_phis g =
  let subst = Hashtbl.create 8 in
  iter_blocks
    (fun b ->
      List.iter
        (fun (phi : Node.t) ->
          match phi.Node.op with
          | Node.Phi p ->
              let v = trivial_value phi p in
              if v >= 0 then Hashtbl.replace subst phi.Node.id v
          | _ -> ())
        b.phis)
    g;
  if Hashtbl.length subst > 0 then begin
    let rec resolve n =
      match Hashtbl.find_opt subst n with Some n' when n' <> n -> resolve n' | _ -> n
    in
    substitute_uses g resolve;
    iter_blocks
      (fun b -> b.phis <- List.filter (fun (phi : Node.t) -> not (Hashtbl.mem subst phi.Node.id)) b.phis)
      g;
    simplify_trivial_phis g
  end

(* Rewrite every operand reference (including phi inputs, terminators and
   frame states) through [f]. Only what [f] actually moves is rebuilt:
   passes substitute a handful of values in a graph of hundreds, and
   inlining substitutes once per spliced call. *)
and substitute_uses g (f : Node.node_id -> Node.node_id) =
  let moved id = f id <> id in
  let subst_fs fs =
    if Frame_state.exists_node moved fs then
      Frame_state.map_values
        (function Frame_state.F_node n -> Frame_state.F_node (f n) | fv -> fv)
        fs
    else fs
  in
  let fix_node (n : Node.t) =
    if Node.exists_operand moved n.op then n.op <- Node.map_operands f n.op;
    match n.fs with
    | Some fs ->
        let fs' = subst_fs fs in
        if fs' != fs then n.fs <- Some fs'
    | None -> ()
  in
  iter_blocks
    (fun b ->
      List.iter fix_node b.phis;
      Pea_support.Dyn_array.iter fix_node b.instrs;
      (match b.term with
      | Goto _ | Return None | Trap _ | Unreachable -> ()
      | If r -> if moved r.cond then b.term <- If { r with cond = f r.cond }
      | Return (Some v) -> if moved v then b.term <- Return (Some (f v))
      | Deopt d ->
          let s = subst_fs d.d_state in
          if s != d.d_state then b.term <- Deopt { d with d_state = s });
      match b.entry_fs with
      | Some fs ->
          let fs' = subst_fs fs in
          if fs' != fs then b.entry_fs <- Some fs'
      | None -> ())
    g
