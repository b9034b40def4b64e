(* Dominator-based global value numbering for pure (and idempotently
   trapping) operations. Values available in a dominating block replace
   recomputations; nothing is ever hoisted, so trapping operations (Div,
   Rem) are safe to number as well. *)

open Pea_ir
open Pea_bytecode
module Summary = Pea_analysis.Summary

(* A value-number key is the operation's tag followed by its resolved
   operand ids (and class or method ids), as a small int array: equal
   keys mean the same operation on the same values. Keys never mention
   runtime-class records, which are cyclic, only their ids. Tags: 0-3
   constants, 10 + [arith_tag] commutative Add/Mul, 15/16 reference
   ==/!=, 20 + [arith_tag] other arithmetic, 30 neg, 31 not,
   40 + [cmp_tag] comparisons, 50 instanceof, 51 hasclass, 52 array
   length, 60-62 invokes by kind. *)
type key = int array

let arith_tag = function
  | Node.Add -> 0
  | Node.Sub -> 1
  | Node.Mul -> 2
  | Node.Div -> 3
  | Node.Rem -> 4

let cmp_tag = function
  | Classfile.Clt -> 0
  | Classfile.Cle -> 1
  | Classfile.Cgt -> 2
  | Classfile.Cge -> 3
  | Classfile.Ceq -> 4
  | Classfile.Cne -> 5

let key_of_op resolve (op : Node.op) : key option =
  let commutative2 tag a b =
    let a = resolve a and b = resolve b in
    Some [| tag; min a b; max a b |]
  in
  match op with
  | Node.Const (Node.Cint n) -> Some [| 0; n |]
  | Node.Const (Node.Cbool b) -> Some [| 1; Bool.to_int b |]
  | Node.Const Node.Cnull -> Some [| 2 |]
  | Node.Const Node.Cundef -> Some [| 3 |]
  | Node.Arith (((Node.Add | Node.Mul) as k), a, b) -> commutative2 (10 + arith_tag k) a b
  | Node.Arith (k, a, b) -> Some [| 20 + arith_tag k; resolve a; resolve b |]
  | Node.Neg a -> Some [| 30; resolve a |]
  | Node.Not a -> Some [| 31; resolve a |]
  | Node.Cmp (c, a, b) -> Some [| 40 + cmp_tag c; resolve a; resolve b |]
  | Node.RefCmp (Classfile.AEq, a, b) -> commutative2 15 a b
  | Node.RefCmp (Classfile.ANe, a, b) -> commutative2 16 a b
  | Node.Instance_of (a, cls) -> Some [| 50; resolve a; cls.cls_id |]
  | Node.Has_class (a, cls) -> Some [| 51; resolve a; cls.cls_id |]
  | Node.Array_length a -> Some [| 52; resolve a |]
  | Node.Param _ | Node.Phi _ | Node.New _ | Node.Alloc _ | Node.Alloc_array _ | Node.New_array _
  | Node.Stack_alloc _ | Node.Stack_alloc_array _
  | Node.Load_field _ | Node.Store_field _ | Node.Load_static _ | Node.Store_static _
  | Node.Array_load _ | Node.Array_store _ | Node.Monitor_enter _ | Node.Monitor_exit _
  | Node.Invoke _ | Node.Check_cast _ | Node.Null_check _ | Node.Print _ ->
      None

(* Calls whose summary proves them pure, heap-independent and
   scalar-returning compute the same value for the same arguments and have
   no observable effects, so a dominated duplicate can be value-numbered
   like a pure node. The duplicate must then be removed physically:
   [Cfg_utils.cleanup] only drops [is_pure] nodes. *)
let key_of_invoke resolve summaries (op : Node.op) : key option =
  match (op, summaries) with
  | Node.Invoke (k, m, args), Some t ->
      let cs = Summary.call_summary t k m in
      if Summary.mergeable_call cs m then begin
        let kind = match k with Node.Virtual -> 60 | Node.Static -> 61 | Node.Special -> 62 in
        let key = Array.make (Array.length args + 2) kind in
        key.(1) <- m.mth_id;
        Array.iteri (fun i a -> key.(i + 2) <- resolve a) args;
        Some key
      end
      else None
  | _ -> None

let run ?summaries (g : Graph.t) =
  let doms = Dominators.compute g in
  let kids = Dominators.children doms (Graph.n_blocks g) in
  let table : (key, Node.node_id) Hashtbl.t = Hashtbl.create 64 in
  (* replacement of each numbered-away node, by node id; -1 = none *)
  let subst = Array.make (Graph.n_nodes g) (-1) in
  let rec resolve id =
    if id < 0 || id >= Array.length subst then id
    else
      let v = Array.unsafe_get subst id in
      if v >= 0 && v <> id then resolve v else id
  in
  let changed = ref false in
  let removed_invokes : (Node.node_id, unit) Hashtbl.t = Hashtbl.create 4 in
  let rec walk block_id =
    let b = Graph.block g block_id in
    let added = ref [] in
    Pea_support.Dyn_array.iter
      (fun (n : Node.t) ->
        if subst.(n.Node.id) < 0 then
          let key =
            match key_of_op resolve n.Node.op with
            | Some _ as k -> k
            | None -> key_of_invoke resolve summaries n.Node.op
          in
          match key with
          | Some key -> (
              match Hashtbl.find_opt table key with
              | Some existing ->
                  subst.(n.Node.id) <- existing;
                  (match n.Node.op with
                  | Node.Invoke _ -> Hashtbl.replace removed_invokes n.Node.id ()
                  | _ -> ());
                  changed := true
              | None ->
                  Hashtbl.add table key n.Node.id;
                  added := key :: !added)
          | None -> ())
      b.Graph.instrs;
    List.iter walk kids.(block_id);
    List.iter (fun key -> Hashtbl.remove table key) !added
  in
  walk Graph.entry_id;
  if Hashtbl.length removed_invokes > 0 then
    Graph.iter_blocks
      (fun b ->
        let kept =
          List.filter
            (fun (n : Node.t) -> not (Hashtbl.mem removed_invokes n.Node.id))
            (Graph.instr_list b)
        in
        if List.length kept <> Pea_support.Dyn_array.length b.Graph.instrs then begin
          Pea_support.Dyn_array.clear b.Graph.instrs;
          List.iter (fun n -> ignore (Pea_support.Dyn_array.push b.Graph.instrs n)) kept
        end)
      g;
  Hashtbl.iter (fun id () -> Graph.delete_node g id) removed_invokes;
  if !changed then begin
    Graph.substitute_uses g resolve;
    Cfg_utils.cleanup g
  end;
  !changed
