(* IR well-formedness checker, run after every pass in tests:

   - the node table is consistent (ids map to themselves);
   - every operand of a reachable instruction is defined by a param, or by
     an instruction in a block that can reach the use (we check the weaker
     per-block property: defined before use within the block, or defined in
     some other reachable block — full dominance checking lives in
     {!Dominators});
   - phi arity equals predecessor count, phis only in merge/loop blocks;
   - terminator targets are valid blocks and preds/succs are mutually
     consistent;
   - side-effecting instructions carry frame states.

   The JIT runs it after every phase by default, so a passing check must
   be cheap: definitions live in {!Defs}' arrays, frame states are walked
   in place, and the description of a use ("phi v3 (input 1)") is kept as
   a few ints and rendered only when a check fails. Past the per-graph
   tables, a well-formed graph costs no allocation. *)

type error = string

(* Who uses a value, for diagnostics. *)
type user =
  | Instr (* "v<id>" *)
  | Phi_node (* "phi v<id>" *)
  | Phi_input (* "phi v<id> (input <aux>)" *)
  | State_of (* "frame state of v<id>" *)
  | Terminator (* "terminator of B<id>" *)
  | Deopt_state (* "deopt state of B<id>" *)

type ctx = {
  mutable user : user;
  mutable uid : int;
  mutable aux : int;
  mutable ub : int; (* block of the use, for dominance *)
  mutable ui : int; (* index of the use in [ub] *)
}

let render c =
  match c.user with
  | Instr -> Printf.sprintf "v%d" c.uid
  | Phi_node -> Printf.sprintf "phi v%d" c.uid
  | Phi_input -> Printf.sprintf "phi v%d (input %d)" c.uid c.aux
  | State_of -> Printf.sprintf "frame state of v%d" c.uid
  | Terminator -> Printf.sprintf "terminator of B%d" c.uid
  | Deopt_state -> Printf.sprintf "deopt state of B%d" c.uid

let set c user uid ~ub ~ui =
  c.user <- user;
  c.uid <- uid;
  c.ub <- ub;
  c.ui <- ui

let check ?(require_frame_states = true) (g : Graph.t) : error list =
  let errors = ref [] in
  let add fmt = Format.kasprintf (fun m -> errors := m :: !errors) fmt in
  let defs = Defs.compute g in
  let reachable = Defs.reachable defs in
  let n_blocks = Graph.n_blocks g in
  let c = { user = Instr; uid = 0; aux = 0; ub = 0; ui = 0 } in
  let check_operand id =
    if not (Defs.defined defs id) then
      add "v%d used by %s but not defined in any reachable block" id (render c)
  in
  let check_succ bid s =
    if s < 0 || s >= n_blocks then add "B%d jumps to nonexistent block B%d" bid s
    else if not (List.mem bid (Graph.block g s).Graph.preds) then
      add "B%d jumps to B%d but is not in its predecessor list" bid s
  in
  let rec check_phis bid n_preds = function
    | [] -> ()
    | (phi : Node.t) :: rest ->
        (match phi.Node.op with
        | Node.Phi p ->
            if Array.length p.Node.inputs <> n_preds then
              add "phi v%d in B%d has %d inputs but the block has %d predecessors" phi.Node.id bid
                (Array.length p.Node.inputs) n_preds;
            set c Phi_node phi.Node.id ~ub:bid ~ui:0;
            Array.iter check_operand p.Node.inputs
        | _ -> add "non-phi node v%d in the phi list of B%d" phi.Node.id bid);
        check_phis bid n_preds rest
  in
  for bid = 0 to n_blocks - 1 do
    let b = Graph.block g bid in
    if reachable.(bid) then begin
      check_phis bid (List.length b.Graph.preds) b.Graph.phis;
      if b.Graph.phis <> [] && b.Graph.kind = Graph.Plain then
        add "plain block B%d has phis" bid;
      (* instructions *)
      for i = 0 to Pea_support.Dyn_array.length b.Graph.instrs - 1 do
        let n : Node.t = Pea_support.Dyn_array.get b.Graph.instrs i in
        (match n.Node.op with
        | Node.Phi _ -> add "phi v%d appears in the instruction list of B%d" n.Node.id bid
        | _ -> ());
        set c Instr n.Node.id ~ub:bid ~ui:i;
        Node.iter_operands check_operand n.Node.op;
        (* Invokes must always carry a state (deoptimization inside the
           callee needs the caller frame); other side-effecting nodes
           may lose theirs when escape analysis re-emits them during
           materialization. *)
        (match n.Node.op with
        | Node.Invoke _ when require_frame_states && n.Node.fs = None ->
            add "invoke v%d in B%d has no frame state" n.Node.id bid
        | _ -> ());
        match n.Node.fs with
        | Some fs ->
            c.user <- State_of;
            Frame_state.iter_nodes check_operand fs
        | None -> ()
      done;
      (* terminator *)
      match b.Graph.term with
      | Graph.Unreachable -> add "reachable block B%d has an Unreachable terminator" bid
      | Graph.If { cond; tru; fls; _ } ->
          set c Terminator bid ~ub:bid ~ui:max_int;
          check_operand cond;
          check_succ bid tru;
          check_succ bid fls
      | Graph.Return (Some v) ->
          set c Terminator bid ~ub:bid ~ui:max_int;
          check_operand v
      | Graph.Deopt { d_state = fs; _ } ->
          set c Deopt_state bid ~ub:bid ~ui:max_int;
          Frame_state.iter_nodes check_operand fs
      | Graph.Goto s -> check_succ bid s
      | Graph.Return None | Graph.Trap _ -> ()
    end
  done;
  (* --- dominance: every use is dominated by its definition ------------ *)
  (* a phi use happens at the end of the corresponding predecessor; a
     frame state describes the state just after the node's effect, so it
     may legitimately reference the node itself; undefined operands are
     already reported above *)
  let check_dom def =
    if Defs.defined defs def && not (Defs.dominates_use defs def ~ub:c.ub ~ui:c.ui) then
      add "v%d used by %s in B%d is not dominated by its definition" def (render c) c.ub
  in
  let rec dom_phi_inputs (phi : Node.t) inputs i = function
    | [] -> ()
    | pred :: rest ->
        if i < Array.length inputs then begin
          set c Phi_input phi.Node.id ~ub:pred ~ui:max_int;
          c.aux <- i;
          check_dom inputs.(i)
        end;
        dom_phi_inputs phi inputs (i + 1) rest
  in
  let rec dom_phis preds = function
    | [] -> ()
    | (phi : Node.t) :: rest ->
        (match phi.Node.op with Node.Phi p -> dom_phi_inputs phi p.Node.inputs 0 preds | _ -> ());
        dom_phis preds rest
  in
  for bid = 0 to n_blocks - 1 do
    let b = Graph.block g bid in
    if reachable.(bid) then begin
      dom_phis b.Graph.preds b.Graph.phis;
      for i = 0 to Pea_support.Dyn_array.length b.Graph.instrs - 1 do
        let n : Node.t = Pea_support.Dyn_array.get b.Graph.instrs i in
        set c Instr n.Node.id ~ub:bid ~ui:i;
        Node.iter_operands check_dom n.Node.op;
        match n.Node.fs with
        | Some fs ->
            set c State_of n.Node.id ~ub:bid ~ui:(i + 1);
            Frame_state.iter_nodes check_dom fs
        | None -> ()
      done;
      match b.Graph.term with
      | Graph.If { cond = v; _ } | Graph.Return (Some v) ->
          set c Terminator bid ~ub:bid ~ui:max_int;
          check_dom v
      | Graph.Deopt { d_state = fs; _ } ->
          set c Deopt_state bid ~ub:bid ~ui:max_int;
          Frame_state.iter_nodes check_dom fs
      | Graph.Goto _ | Graph.Return None | Graph.Trap _ | Graph.Unreachable -> ()
    end
  done;
  (* --- frame-state well-formedness: virtual-object descriptors -------- *)
  (* Every F_virtual referenced anywhere in a frame-state chain (locals,
     stack, locks, or another descriptor's fields) must have a descriptor
     somewhere in that chain, or deoptimization cannot rematerialize it. *)
  let declared = Pea_support.Int_marks.create () in
  let check_virtual vid =
    if not (Pea_support.Int_marks.mem declared vid) then
      add "%s references virtual object #%d without a descriptor" (render c) vid
  in
  let declare id _ = Pea_support.Int_marks.add declared id in
  let check_fs_virtuals (fs : Frame_state.t) =
    Pea_support.Int_marks.clear declared;
    Frame_state.iter_descs declare fs;
    Frame_state.iter_virtuals check_virtual fs
  in
  for bid = 0 to n_blocks - 1 do
    let b = Graph.block g bid in
    if reachable.(bid) then begin
      for i = 0 to Pea_support.Dyn_array.length b.Graph.instrs - 1 do
        let n : Node.t = Pea_support.Dyn_array.get b.Graph.instrs i in
        match n.Node.fs with
        | Some fs ->
            set c State_of n.Node.id ~ub:bid ~ui:i;
            check_fs_virtuals fs
        | None -> ()
      done;
      match b.Graph.term with
      | Graph.Deopt { d_state = fs; _ } ->
          set c Deopt_state bid ~ub:bid ~ui:max_int;
          check_fs_virtuals fs
      | _ -> ()
    end
  done;
  (* --- OSR-entry graphs: complete live-local transfer map ------------- *)
  (* An OSR graph is entered mid-frame: its parameters are the transfer
     map from the interpreter frame's local slots. Every slot must be
     transferred by exactly one [Param], or entry reads garbage. *)
  (match g.Graph.g_osr_entry with
  | None -> ()
  | Some entry_bci ->
      let code = g.Graph.g_method.Pea_bytecode.Classfile.mth_code in
      if entry_bci < 0 || entry_bci >= Array.length code then
        add "OSR entry bci %d outside the method's code (length %d)" entry_bci
          (Array.length code);
      let max_locals = g.Graph.g_method.Pea_bytecode.Classfile.mth_max_locals in
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (p : Node.t) ->
          match p.Node.op with
          | Node.Param i ->
              if i < 0 then add "OSR transfer map names negative local slot %d" i;
              if Hashtbl.mem seen i then add "OSR transfer map transfers local slot %d twice" i
              else Hashtbl.replace seen i ()
          | _ -> add "non-param node v%d in an OSR graph's parameter list" p.Node.id)
        g.Graph.params;
      for slot = 0 to max_locals - 1 do
        if not (Hashtbl.mem seen slot) then
          add "OSR transfer map at bci %d misses live local slot %d" entry_bci slot
      done);
  List.rev !errors

(* [check_exn g] raises [Failure] with a readable message on the first
   malformed graph; convenient in tests and pass pipelines. *)
let check_exn ?require_frame_states g =
  match check ?require_frame_states g with
  | [] -> ()
  | errs ->
      failwith
        (Printf.sprintf "IR check failed for %s:\n  %s"
           (Pea_bytecode.Classfile.qualified_name g.Graph.g_method)
           (String.concat "\n  " errs))
