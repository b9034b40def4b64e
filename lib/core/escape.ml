open Pea_ir
module Summary = Pea_analysis.Summary

let escaping_allocations ?summaries (g : Graph.t) : Node.node_id -> bool =
  let n = Graph.n_nodes g in
  let uf = Pea_support.Union_find.create n in
  let reachable = Graph.reachable g in
  let escape id = Pea_support.Union_find.mark_escaped uf id in
  (* Kotzmann-style deferred edges: [holder -> value] means the stored
     value escapes if the holder's set ever escapes. Keeping these directed
     (instead of merging the sets) avoids tainting a local object when an
     already-external value is stored into one of its fields. *)
  let deferred : (int * int) list ref = ref [] in
  let visit (node : Node.t) =
    let id = node.Node.id in
    match node.Node.op with
    | Node.New _ | Node.Alloc _ | Node.Alloc_array _ -> () (* tracked allocations *)
    | Node.Phi p ->
        (* values merged by phis share their escape fate *)
        Array.iter (fun i -> Pea_support.Union_find.union uf id i) p.Node.inputs
    | Node.Check_cast (a, _) -> Pea_support.Union_find.union uf id a
    | Node.Store_field (o, _, v) -> deferred := (o, v) :: !deferred
    | Node.Store_static (_, v) -> escape v
    | Node.Array_store (_, _, v) -> escape v
    | Node.Invoke (k, m, args) ->
        (* arguments escape into the callee — unless an interprocedural
           summary proves the callee neither retains nor mutates that
           position (the PEA engine still re-checks reference loads per
           call site); the result is external *)
        (match summaries with
        | None -> Array.iter escape args
        | Some t ->
            let cs = Summary.call_summary t k m in
            Array.iteri
              (fun j a ->
                if
                  not
                    (j < Array.length cs.Summary.s_params
                    && Summary.transparent cs.Summary.s_params.(j))
                then escape a)
              args);
        escape id
    | Node.Load_field _ | Node.Load_static _ | Node.Array_load _ ->
        (* loaded references come from the heap: external *)
        escape id
    | Node.New_array _ ->
        (* arrays are never virtualized *)
        escape id
    | Node.Stack_alloc _ | Node.Stack_alloc_array _ ->
        (* scratch objects from an earlier pass are already real *)
        escape id
    | Node.Const _ | Node.Param _ | Node.Arith _ | Node.Neg _ | Node.Not _ | Node.Cmp _
    | Node.RefCmp _ | Node.Array_length _ | Node.Monitor_enter _ | Node.Monitor_exit _
    | Node.Instance_of _ | Node.Has_class _ | Node.Null_check _ | Node.Print _ ->
        ()
  in
  (* parameters are externally visible objects *)
  List.iter (fun (p : Node.t) -> escape p.Node.id) g.Graph.params;
  Graph.iter_blocks
    (fun b ->
      if reachable.(b.Graph.b_id) then begin
        List.iter visit b.Graph.phis;
        Pea_support.Dyn_array.iter visit b.Graph.instrs;
        match b.Graph.term with
        | Graph.Return (Some v) -> escape v
        | Graph.Return None | Graph.Goto _ | Graph.If _ | Graph.Deopt _ | Graph.Trap _
        | Graph.Unreachable ->
            ()
      end)
    g;
  (* propagate escapes along deferred edges to a fixpoint *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (holder, value) ->
        if Pea_support.Union_find.escaped uf holder
           && not (Pea_support.Union_find.escaped uf value)
        then begin
          Pea_support.Union_find.mark_escaped uf value;
          changed := true
        end)
      !deferred
  done;
  fun id -> id < n && Pea_support.Union_find.escaped uf id

(* ------------------------------------------------------------------ *)
(* Frame-bounded allocations (the stack tier's eligibility analysis).  *)
(*                                                                     *)
(* An allocation is frame-bounded when no alias of it can outlive the  *)
(* compiled activation: it is never returned, never stored into a      *)
(* static or into an object that itself outlives the frame, never     *)
(* printed, and only passed to callees whose summary proves the        *)
(* argument position does not globally escape (No_escape, or           *)
(* Arg_escape — "reachable from the return value only" — in which      *)
(* case the call result is tracked as a possible alias). Frame states  *)
(* are deliberately NOT escape sinks here: a deoptimization that       *)
(* revives a frame state promotes live stack objects to the heap       *)
(* (see Pea_vm.Deopt), so references from deopt metadata are safe.     *)
(*                                                                     *)
(* The analysis is the same equi-escape-set scheme as above with a     *)
(* second mark per set — "contains an external value" (parameter,      *)
(* loaded reference, call result). Externality does not itself escape  *)
(* an allocation; it only matters at stores: a value stored into a set *)
(* holding an external object may land in an object that outlives the  *)
(* frame, so the store edge fires on escaped-or-external holders.      *)
(* Directed edges keep precision: [store] (holder -> value), [load]    *)
(* (result -> holder; an escaping loaded reference may be a value      *)
(* stored into the holder earlier) and [alias] (call result -> arg,    *)
(* for Arg_escape positions whose result may be the argument itself).  *)
(* ------------------------------------------------------------------ *)

let frame_bounded ?summaries (g : Graph.t) : Node.node_id -> bool =
  let n = Graph.n_nodes g in
  let uf = Pea_support.Union_find.create n in (* mark: escapes the frame *)
  let ext = Pea_support.Union_find.create n in (* mark: set holds an external value *)
  let union a b =
    Pea_support.Union_find.union uf a b;
    Pea_support.Union_find.union ext a b
  in
  let escape id = Pea_support.Union_find.mark_escaped uf id in
  let external_ id = Pea_support.Union_find.mark_escaped ext id in
  let reachable = Graph.reachable g in
  let store_edges : (int * int) list ref = ref [] in
  let load_edges : (int * int) list ref = ref [] in
  let alias_edges : (int * int) list ref = ref [] in
  let visit (node : Node.t) =
    let id = node.Node.id in
    match node.Node.op with
    | Node.New _ | Node.Alloc _ | Node.Alloc_array _ | Node.New_array _ ->
        () (* tracked allocations: frame-bounded until proven otherwise *)
    | Node.Phi p -> Array.iter (fun i -> union id i) p.Node.inputs
    | Node.Check_cast (a, _) -> union id a
    | Node.Store_field (o, _, v) -> store_edges := (o, v) :: !store_edges
    | Node.Array_store (a, _, v) -> store_edges := (a, v) :: !store_edges
    | Node.Store_static (_, v) -> escape v
    | Node.Load_field (o, _) ->
        external_ id;
        load_edges := (id, o) :: !load_edges
    | Node.Array_load (a, _) ->
        external_ id;
        load_edges := (id, a) :: !load_edges
    | Node.Load_static _ -> external_ id
    | Node.Invoke (k, m, args) ->
        (match summaries with
        | None -> Array.iter escape args
        | Some t ->
            let cs = Summary.call_summary t k m in
            Array.iteri
              (fun j a ->
                if j < Array.length cs.Summary.s_params then
                  match cs.Summary.s_params.(j).Summary.ps_escape with
                  | Summary.No_escape -> ()
                  | Summary.Arg_escape ->
                      (* only reachable from the return value: the result
                         may be the argument itself *)
                      alias_edges := (id, a) :: !alias_edges
                  | Summary.Global_escape -> escape a
                else escape a)
              args);
        external_ id
    | Node.Print v ->
        (* printed values are retained for output comparison *)
        escape v
    | Node.Stack_alloc _ | Node.Stack_alloc_array _ ->
        (* decided by an earlier pass; not a candidate again *)
        escape id
    | Node.Const _ | Node.Param _ | Node.Arith _ | Node.Neg _ | Node.Not _ | Node.Cmp _
    | Node.RefCmp _ | Node.Array_length _ | Node.Monitor_enter _ | Node.Monitor_exit _
    | Node.Instance_of _ | Node.Has_class _ | Node.Null_check _ ->
        ()
  in
  List.iter (fun (p : Node.t) -> external_ p.Node.id) g.Graph.params;
  Graph.iter_blocks
    (fun b ->
      if reachable.(b.Graph.b_id) then begin
        List.iter visit b.Graph.phis;
        Pea_support.Dyn_array.iter visit b.Graph.instrs;
        match b.Graph.term with
        | Graph.Return (Some v) -> escape v
        | Graph.Return None | Graph.Goto _ | Graph.If _ | Graph.Deopt _ | Graph.Trap _
        | Graph.Unreachable ->
            ()
      end)
    g;
  let escaped id = Pea_support.Union_find.escaped uf id in
  let is_ext id = Pea_support.Union_find.escaped ext id in
  let changed = ref true in
  while !changed do
    changed := false;
    let fire id =
      if not (escaped id) then begin
        escape id;
        changed := true
      end
    in
    List.iter (fun (holder, v) -> if escaped holder || is_ext holder then fire v) !store_edges;
    List.iter (fun (result, holder) -> if escaped result then fire holder) !load_edges;
    List.iter (fun (result, arg) -> if escaped result then fire arg) !alias_edges
  done;
  fun id -> id >= 0 && id < n && not (escaped id)

let run ?summaries ?trace (g : Graph.t) =
  Pea.run ~force_escape:(escaping_allocations ?summaries g) ?summaries ?trace g
