(* Static speculation-safety verifier (ROADMAP item 5).

   The IR checker ({!Pea_ir.Check}) proves the graph is structurally
   well-formed; this pass proves the *deopt metadata* is sufficient to
   rematerialize: that every frame state reachable from a deopt point or
   guard describes a state the interpreter could actually resume from.
   It is the static half of the bisimulation argument (the dynamic half
   is the deopt oracle): if every rule below holds, rematerialization
   cannot dangle, double-free a lock, or resume at a non-call site; what
   remains — that the *values* in the state are the right ones — is
   exactly what the oracle checks at runtime.

   Rules (stable ids, surfaced in diagnostics, trace events and docs):

   SPEC01 dangling-virtual      every F_virtual in a state chain has a
                                descriptor in that chain
   SPEC02 unreachable-value     every F_node in a state (including
                                descriptor fields) is defined in a
                                reachable block and dominates the state's
                                program point
   SPEC03 descriptor-conflict   one virtual id never has two structurally
                                different descriptors in one chain
   SPEC04 missing-frame-state   every Invoke carries a frame state (a
                                deopt inside the callee needs the caller
                                frame)
   SPEC05 unbalanced-lock       a virtual's recorded lock depth equals
                                its elided monitorenter entries on the
                                chain's lock stacks, and is never
                                negative
   SPEC06 escape-regression     escape status is monotone along dominator
                                paths: once a virtual id disappears from
                                the states (materialized/escaped), no
                                dominated state declares it virtual again
   SPEC07 osr-transfer-map      an OSR graph's parameters transfer every
                                local slot of the frame exactly once
   SPEC08 bad-deopt-edge        Deopt branch provenance points at a
                                conditional branch bytecode of its method
   SPEC09 state-bci-range       every frame's resume bci lies inside its
                                method's code
   SPEC10 bad-resume-point      every outer frame resumes just after an
                                invoke bytecode (the callee's return
                                value is pushed on resume)
   SPEC11 bad-guard-provenance  receiver-guard provenance names an
                                invokevirtual bytecode of its method, is
                                exclusive with branch provenance, and its
                                deopt state resumes exactly at that call
                                site (the pre-call frame)
   SPEC12 stack-confinement     no alias of a frame-bounded stack
                                allocation (Stack_alloc Sk_frame) reaches
                                a frame-outliving sink: a return, a
                                static store, a print, a store into a
                                non-stack holder, a heap materialization
                                field, or an invoke argument whose
                                summary position may globally escape.
                                Frame-state references are exempt: deopt
                                promotes live stack objects to the heap
                                during rematerialization *)

open Pea_bytecode
open Pea_ir

type level =
  | No_check
  | Phase_end
  | Every_phase

let level_string = function
  | No_check -> "none"
  | Phase_end -> "phase-end"
  | Every_phase -> "every-phase"

let level_of_string = function
  | "none" | "off" -> Some No_check
  | "phase-end" | "phase_end" | "end" -> Some Phase_end
  | "every-phase" | "every_phase" | "all" -> Some Every_phase
  | _ -> None

type violation = {
  v_rule : string; (* stable rule id, e.g. "SPEC01" *)
  v_method : string; (* qualified name of the graph's method *)
  v_phase : string; (* pipeline phase after which the check ran *)
  v_site : string; (* node/block locus, e.g. "v17", "B3/deopt" *)
  v_detail : string;
}

let rules =
  [
    ("SPEC01", "dangling-virtual: a state references a virtual object without a descriptor");
    ("SPEC02", "unreachable-value: a state value is not defined at (or does not dominate) its use");
    ("SPEC03", "descriptor-conflict: one virtual id has two different descriptors in a chain");
    ("SPEC04", "missing-frame-state: an invoke carries no frame state");
    ("SPEC05", "unbalanced-lock: a virtual's lock depth disagrees with the chain's lock stacks");
    ("SPEC06", "escape-regression: a materialized virtual is declared virtual again downstream");
    ("SPEC07", "osr-transfer-map: OSR parameters do not transfer every local slot exactly once");
    ("SPEC08", "bad-deopt-edge: deopt provenance does not name a conditional branch");
    ("SPEC09", "state-bci-range: a frame's resume bci is outside its method's code");
    ("SPEC10", "bad-resume-point: an outer frame does not resume just after an invoke");
    ("SPEC11", "bad-guard-provenance: guard provenance does not name its invokevirtual call site");
    ("SPEC12", "stack-confinement: a frame-bounded stack allocation reaches a frame-outliving sink");
  ]

let pp_violation ppf v =
  Fmt.pf ppf "[%s] %s %s%s: %s" v.v_rule v.v_method v.v_site
    (if v.v_phase = "" then "" else Printf.sprintf " (after %s)" v.v_phase)
    v.v_detail

let is_invoke_bc = function
  | Classfile.Invokevirtual _ | Classfile.Invokestatic _ | Classfile.Invokespecial _ -> true
  | _ -> false

(* The program point whose state is being checked, kept as ints and
   rendered ("v17", "B3/deopt") only when a rule fails: the verifier runs
   on every compiled graph, and a passing check allocates nothing per
   state. *)
type site =
  | Entry (* "B<id>/entry" *)
  | At_node (* "v<id>" *)
  | At_deopt (* "B<id>/deopt" *)

type ctx = {
  mutable site : site;
  mutable sid : int;
  mutable dom : bool; (* entry states skip dominance *)
  mutable ub : int;
  mutable ui : int;
}

let render c =
  match c.site with
  | Entry -> Printf.sprintf "B%d/entry" c.sid
  | At_node -> Printf.sprintf "v%d" c.sid
  | At_deopt -> Printf.sprintf "B%d/deopt" c.sid

let rec has_descriptors (f : Frame_state.t) =
  match (f.Frame_state.fs_virtuals, f.Frame_state.fs_outer) with
  | _ :: _, _ -> true
  | [], Some o -> has_descriptors o
  | [], None -> false

(* The first declaration of [id] in a chain, innermost frame first (the
   rematerializer walks the chain the same way). *)
let rec first_desc id (f : Frame_state.t) =
  match List.assoc_opt id f.Frame_state.fs_virtuals with
  | Some _ as d -> d
  | None -> ( match f.Frame_state.fs_outer with Some o -> first_desc id o | None -> None)

(* How many times the chain's lock stacks hold virtual [vid]. *)
let rec lock_entries vid (f : Frame_state.t) =
  let rec count acc = function
    | [] -> acc
    | Frame_state.F_virtual v :: rest when v = vid -> count (acc + 1) rest
    | _ :: rest -> count acc rest
  in
  count 0 f.Frame_state.fs_locks
  + match f.Frame_state.fs_outer with Some o -> lock_entries vid o | None -> 0

let same_desc (a : Frame_state.virtual_desc) (b : Frame_state.virtual_desc) =
  (match (a.Frame_state.vd_shape, b.Frame_state.vd_shape) with
  | Frame_state.Obj_shape x, Frame_state.Obj_shape y -> x.Classfile.cls_id = y.Classfile.cls_id
  | Frame_state.Arr_shape x, Frame_state.Arr_shape y -> x = y
  | _ -> false)
  && Array.length a.Frame_state.vd_fields = Array.length b.Frame_state.vd_fields
  && a.Frame_state.vd_lock = b.Frame_state.vd_lock

let check ?summaries ?(phase = "") (g : Graph.t) : violation list =
  let meth = lazy (Classfile.qualified_name g.Graph.g_method) in
  let violations = ref [] in
  let report ~rule ~site fmt =
    Format.kasprintf
      (fun detail ->
        violations :=
          {
            v_rule = rule;
            v_method = Lazy.force meth;
            v_phase = phase;
            v_site = site;
            v_detail = detail;
          }
          :: !violations)
      fmt
  in
  let defs = Defs.compute g in
  let reachable = Defs.reachable defs in
  let c = { site = At_node; sid = 0; dom = false; ub = 0; ui = 0 } in
  let at site sid ~dom ~ub ~ui =
    c.site <- site;
    c.sid <- sid;
    c.dom <- dom;
    c.ub <- ub;
    c.ui <- ui
  in

  (* ---- per-state rules: SPEC01/02/03/05/09/10 --------------------- *)
  (* [c] locates the state's program point for dominance; [ui] may be
     [max_int] for terminators. Entry states skip dominance: they may
     legitimately reference the block's own phis. *)
  let declared = Pea_support.Int_marks.create () in
  let seen = Pea_support.Int_marks.create () in
  let declare id _ = Pea_support.Int_marks.add declared id in
  let check_value = function
    | Frame_state.F_virtual vid ->
        if not (Pea_support.Int_marks.mem declared vid) then
          report ~rule:"SPEC01" ~site:(render c) "state references virtual #%d without a descriptor"
            vid
    | Frame_state.F_node n ->
        if not (Defs.defined defs n) then
          report ~rule:"SPEC02" ~site:(render c)
            "state references v%d, not defined in any reachable block" n
        else if c.dom && not (Defs.dominates_use defs n ~ub:c.ub ~ui:c.ui) then
          report ~rule:"SPEC02" ~site:(render c)
            "state references v%d, which does not dominate the state's program point" n
    | Frame_state.F_const _ -> ()
  in
  (* SPEC09 + SPEC10 along the chain *)
  let rec walk ~innermost (f : Frame_state.t) =
    let code = f.Frame_state.fs_method.Classfile.mth_code in
    if f.Frame_state.fs_bci < 0 || f.Frame_state.fs_bci >= Array.length code then
      report ~rule:"SPEC09" ~site:(render c)
        "frame of %s resumes at bci %d, outside its code (length %d)"
        (Classfile.qualified_name f.Frame_state.fs_method)
        f.Frame_state.fs_bci (Array.length code)
    else if not innermost then begin
      (* an outer frame resumes just after the call it was suspended
         at; [Deopt.handle] pushes the callee's result there *)
      let call = f.Frame_state.fs_bci - 1 in
      if call < 0 || not (is_invoke_bc code.(call)) then
        report ~rule:"SPEC10" ~site:(render c)
          "outer frame of %s resumes at bci %d, which does not follow an invoke"
          (Classfile.qualified_name f.Frame_state.fs_method)
          f.Frame_state.fs_bci
    end;
    match f.Frame_state.fs_outer with Some o -> walk ~innermost:false o | None -> ()
  in
  let check_state (fs : Frame_state.t) =
    Pea_support.Int_marks.clear declared;
    let descriptors = has_descriptors fs in
    if descriptors then begin
      (* SPEC03: a re-declaration must match the first declaration *)
      Frame_state.iter_descs
        (fun id vd ->
          if not (Pea_support.Int_marks.mem declared id) then Pea_support.Int_marks.add declared id
          else
            match first_desc id fs with
            | Some first when not (same_desc first vd) ->
                report ~rule:"SPEC03" ~site:(render c) "virtual #%d has conflicting descriptors" id
            | _ -> ())
        fs
    end;
    (* SPEC01 + SPEC02 over every value in the chain, descriptors included *)
    Frame_state.iter_values check_value fs;
    (* SPEC05: every virtual's lock depth balances against the chain's
       lock stacks (elided monitorenters push F_virtual entries there) *)
    if descriptors then begin
      Pea_support.Int_marks.clear seen;
      Frame_state.iter_descs
        (fun vid (vd : Frame_state.virtual_desc) ->
          if not (Pea_support.Int_marks.mem seen vid) then begin
            Pea_support.Int_marks.add seen vid;
            if vd.Frame_state.vd_lock < 0 then
              report ~rule:"SPEC05" ~site:(render c) "virtual #%d has negative lock depth %d" vid
                vd.Frame_state.vd_lock
            else
              let held = lock_entries vid fs in
              if vd.Frame_state.vd_lock <> held then
                report ~rule:"SPEC05" ~site:(render c)
                  "virtual #%d records lock depth %d but the chain's lock stacks hold it %d times"
                  vid vd.Frame_state.vd_lock held
          end)
        fs
    end;
    walk ~innermost:true fs
  in

  Graph.iter_blocks
    (fun b ->
      let bid = b.Graph.b_id in
      if reachable.(bid) then begin
        (match b.Graph.entry_fs with
        | Some fs ->
            at Entry bid ~dom:false ~ub:bid ~ui:0;
            check_state fs
        | None -> ());
        for i = 0 to Pea_support.Dyn_array.length b.Graph.instrs - 1 do
          let n : Node.t = Pea_support.Dyn_array.get b.Graph.instrs i in
          (* SPEC04 *)
          (match n.Node.op with
          | Node.Invoke _ when n.Node.fs = None ->
              report ~rule:"SPEC04" ~site:(Printf.sprintf "v%d" n.Node.id)
                "invoke has no frame state: a deopt inside the callee cannot rebuild the caller"
          | _ -> ());
          match n.Node.fs with
          | Some fs ->
              at At_node n.Node.id ~dom:true ~ub:bid ~ui:(i + 1);
              check_state fs
          | None -> ()
        done;
        match b.Graph.term with
        | Graph.Deopt d ->
            at At_deopt bid ~dom:true ~ub:bid ~ui:max_int;
            check_state d.Graph.d_state;
            (* SPEC08: branch provenance must name a conditional branch *)
            Option.iter
              (fun (e : Graph.deopt_edge) ->
                let code = e.Graph.de_method.Classfile.mth_code in
                if e.Graph.de_src < 0 || e.Graph.de_src >= Array.length code then
                  report ~rule:"SPEC08" ~site:(render c) "deopt edge source bci %d is outside %s"
                    e.Graph.de_src
                    (Classfile.qualified_name e.Graph.de_method)
                else
                  match code.(e.Graph.de_src) with
                  | Classfile.If_true _ | Classfile.If_false _ -> ()
                  | _ ->
                      report ~rule:"SPEC08" ~site:(render c)
                        "deopt edge source bci %d of %s is not a conditional branch" e.Graph.de_src
                        (Classfile.qualified_name e.Graph.de_method))
              d.Graph.d_edge;
            (* SPEC11: receiver-guard provenance must name an invokevirtual
               and the miss edge must resume the interpreter exactly at it *)
            (match (d.Graph.d_edge, d.Graph.d_guard) with
            | Some _, Some _ ->
                report ~rule:"SPEC11" ~site:(render c)
                  "deopt carries both branch and receiver-guard provenance"
            | None, Some gd ->
                let code = gd.Graph.dg_method.Classfile.mth_code in
                (if gd.Graph.dg_bci < 0 || gd.Graph.dg_bci >= Array.length code then
                   report ~rule:"SPEC11" ~site:(render c) "guard call-site bci %d is outside %s"
                     gd.Graph.dg_bci
                     (Classfile.qualified_name gd.Graph.dg_method)
                 else
                   match code.(gd.Graph.dg_bci) with
                   | Classfile.Invokevirtual _ -> ()
                   | _ ->
                       report ~rule:"SPEC11" ~site:(render c)
                         "guard call-site bci %d of %s is not an invokevirtual" gd.Graph.dg_bci
                         (Classfile.qualified_name gd.Graph.dg_method));
                let inner = d.Graph.d_state in
                if
                  inner.Frame_state.fs_method.Classfile.mth_id
                  <> gd.Graph.dg_method.Classfile.mth_id
                  || inner.Frame_state.fs_bci <> gd.Graph.dg_bci
                then
                  report ~rule:"SPEC11" ~site:(render c)
                    "guard deopt resumes at %s bci %d, not at its call site %s bci %d"
                    (Classfile.qualified_name inner.Frame_state.fs_method)
                    inner.Frame_state.fs_bci
                    (Classfile.qualified_name gd.Graph.dg_method)
                    gd.Graph.dg_bci
            | _, None -> ())
        | _ -> ()
      end)
    g;

  (* ---- SPEC07: OSR transfer map ----------------------------------- *)
  (match g.Graph.g_osr_entry with
  | None -> ()
  | Some entry_bci ->
      let max_locals = g.Graph.g_method.Classfile.mth_max_locals in
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (p : Node.t) ->
          match p.Node.op with
          | Node.Param i ->
              if Hashtbl.mem seen i then
                report ~rule:"SPEC07" ~site:"params" "local slot %d is transferred twice" i
              else Hashtbl.replace seen i ()
          | _ ->
              report ~rule:"SPEC07" ~site:"params" "non-param node v%d in the parameter list"
                p.Node.id)
        g.Graph.params;
      for slot = 0 to max_locals - 1 do
        if not (Hashtbl.mem seen slot) then
          report ~rule:"SPEC07" ~site:"params"
            "OSR entry at bci %d transfers no value for live local slot %d" entry_bci slot
      done);

  (* ---- SPEC06: escape monotonicity along dominator paths ----------- *)
  (* Walk the dominator tree keeping, per virtual id, whether it is
     currently declared (active) or was declared upstream and has since
     disappeared (retired — materialized or escaped). A retired id that
     reappears means a state downstream of the materialization still
     claims the object is virtual: rematerialization would duplicate it.
     [live] holds every id made active on the current tree path; a
     subtree's additions are popped, and its status changes undone, when
     the walk leaves it. *)
  let active = Pea_support.Int_marks.create () in
  let retired = Pea_support.Int_marks.create () in
  let live = Pea_support.Dyn_array.create () in
  let undo = ref [] in
  (* a declared id: a retired one is a violation, a new one turns active *)
  let activate vid _ =
    if not (Pea_support.Int_marks.mem seen vid) then begin
      Pea_support.Int_marks.add seen vid;
      if Pea_support.Int_marks.mem retired vid then
        report ~rule:"SPEC06" ~site:(render c)
          "virtual #%d was materialized on a dominating path but is declared virtual again" vid
      else if not (Pea_support.Int_marks.mem active vid) then begin
        Pea_support.Int_marks.add active vid;
        ignore (Pea_support.Dyn_array.push live vid);
        undo := (vid, false) :: !undo
      end
    end
  in
  let visit_state (fs : Frame_state.t) =
    Pea_support.Int_marks.clear declared;
    Frame_state.iter_descs declare fs;
    (* ids that vanish at this state *)
    for i = 0 to Pea_support.Dyn_array.length live - 1 do
      let vid = Pea_support.Dyn_array.get live i in
      if Pea_support.Int_marks.mem active vid && not (Pea_support.Int_marks.mem declared vid)
      then begin
        Pea_support.Int_marks.remove active vid;
        Pea_support.Int_marks.add retired vid;
        undo := (vid, true) :: !undo
      end
    done;
    Pea_support.Int_marks.clear seen;
    Frame_state.iter_descs activate fs
  in
  (* Deoptimization never resumes *at* an allocation: states on
     allocation nodes exist only to attribute the allocation to its
     bytecode site (heap profiling), and PEA value-strips the ones it
     attaches to materializations. They are not resumable states, so
     they take no part in the monotonicity walk — an empty one would
     otherwise falsely retire every live virtual. *)
  let attribution_only (n : Node.t) =
    match n.Node.op with
    | Node.New _ | Node.New_array _ | Node.Alloc _ | Node.Alloc_array _ | Node.Stack_alloc _
    | Node.Stack_alloc_array _ ->
        true
    | _ -> false
  in
  (* undo, newest first, the status changes made since [mark] *)
  let rec restore mark l =
    if l != mark then
      match l with
      | (vid, was_active) :: rest ->
          if was_active then begin
            Pea_support.Int_marks.remove retired vid;
            Pea_support.Int_marks.add active vid
          end
          else Pea_support.Int_marks.remove active vid;
          restore mark rest
      | [] -> ()
  in
  let tree = Dominators.children (Defs.doms defs) (Graph.n_blocks g) in
  let rec dfs bid =
    let undo_mark = !undo and live_mark = Pea_support.Dyn_array.length live in
    let b = Graph.block g bid in
    (match b.Graph.entry_fs with
    | Some fs ->
        at Entry bid ~dom:false ~ub:bid ~ui:0;
        visit_state fs
    | None -> ());
    for i = 0 to Pea_support.Dyn_array.length b.Graph.instrs - 1 do
      let n : Node.t = Pea_support.Dyn_array.get b.Graph.instrs i in
      match n.Node.fs with
      | Some fs when not (attribution_only n) ->
          at At_node n.Node.id ~dom:false ~ub:bid ~ui:i;
          visit_state fs
      | _ -> ()
    done;
    (match b.Graph.term with
    | Graph.Deopt d ->
        at At_deopt bid ~dom:false ~ub:bid ~ui:max_int;
        visit_state d.Graph.d_state
    | _ -> ());
    List.iter dfs tree.(bid);
    restore undo_mark !undo;
    undo := undo_mark;
    Pea_support.Dyn_array.truncate live live_mark
  in
  if reachable.(Graph.entry_id) then dfs Graph.entry_id;

  (* ---- SPEC12: stack-allocation confinement ------------------------ *)
  (* A frame-bounded stack allocation ([Stack_alloc Sk_frame]) lives in
     the frame's stack region and is reclaimed when the frame pops, so no
     alias of it may outlive the frame. Compute the possibly-stack value
     set (the allocations themselves, closed over phis, casts, and the
     results of calls whose summary says the argument is reachable from
     the return value) to a fixpoint, then flag every flow into a sink
     that survives the frame. Frame-state references to stack nodes are
     deliberately allowed: deoptimization promotes live stack objects to
     the heap during rematerialization, so deopt metadata cannot dangle.
     Graphs without a frame-bounded allocation have nothing to check. *)
  let frame_alloc (n : Node.t) =
    match n.Node.op with
    | Node.Stack_alloc (Node.Sk_frame, _, _) | Node.Stack_alloc_array (Node.Sk_frame, _, _) -> true
    | _ -> false
  in
  let any_frame_alloc =
    let found = ref false in
    Graph.iter_blocks
      (fun b ->
        if reachable.(b.Graph.b_id) && Pea_support.Dyn_array.exists frame_alloc b.Graph.instrs then
          found := true)
      g;
    !found
  in
  if any_frame_alloc then begin
    let stack = Bytes.make (Graph.n_nodes g) '\000' in
    let is_stack id = id >= 0 && id < Bytes.length stack && Bytes.get stack id <> '\000' in
    let changed = ref true in
    while !changed do
      changed := false;
      let add id =
        if not (is_stack id) then begin
          Bytes.set stack id '\001';
          changed := true
        end
      in
      Graph.iter_blocks
        (fun b ->
          if reachable.(b.Graph.b_id) then begin
            List.iter
              (fun (n : Node.t) ->
                match n.Node.op with
                | Node.Phi p -> if Array.exists is_stack p.Node.inputs then add n.Node.id
                | _ -> ())
              b.Graph.phis;
            Pea_support.Dyn_array.iter
              (fun (n : Node.t) ->
                match n.Node.op with
                | Node.Stack_alloc (Node.Sk_frame, _, _)
                | Node.Stack_alloc_array (Node.Sk_frame, _, _) ->
                    add n.Node.id
                | Node.Check_cast (a, _) -> if is_stack a then add n.Node.id
                | Node.Invoke (k, m, args) when Array.exists is_stack args -> (
                    (* an Arg_escape position makes the call result a
                       possible alias of the argument *)
                    match summaries with
                    | None -> ()
                    | Some t ->
                        let cs = Summary.call_summary t k m in
                        Array.iteri
                          (fun j a ->
                            if
                              is_stack a
                              && j < Array.length cs.Summary.s_params
                              && cs.Summary.s_params.(j).Summary.ps_escape = Summary.Arg_escape
                            then add n.Node.id)
                          args)
                | _ -> ())
              b.Graph.instrs
          end)
        g
    done;
    Graph.iter_blocks
      (fun b ->
        if reachable.(b.Graph.b_id) then begin
          Pea_support.Dyn_array.iter
            (fun (n : Node.t) ->
              let site () = Printf.sprintf "v%d" n.Node.id in
              match n.Node.op with
              | Node.Store_static (_, v) when is_stack v ->
                  report ~rule:"SPEC12" ~site:(site ())
                    "stack allocation v%d is stored into a static field and outlives its frame" v
              | Node.Print v when is_stack v ->
                  report ~rule:"SPEC12" ~site:(site ())
                    "stack allocation v%d is printed (retained)" v
              | Node.Store_field (o, _, v) when is_stack v && not (is_stack o) ->
                  report ~rule:"SPEC12" ~site:(site ())
                    "stack allocation v%d is stored into non-stack holder v%d" v o
              | Node.Array_store (a, _, v) when is_stack v && not (is_stack a) ->
                  report ~rule:"SPEC12" ~site:(site ())
                    "stack allocation v%d is stored into non-stack array v%d" v a
              | Node.Alloc (_, fields) | Node.Alloc_array (_, fields) ->
                  Array.iter
                    (fun f ->
                      if is_stack f then
                        report ~rule:"SPEC12" ~site:(site ())
                          "stack allocation v%d is a field of heap materialization v%d" f n.Node.id)
                    fields
              | Node.Invoke (k, m, args) ->
                  Array.iteri
                    (fun j a ->
                      if is_stack a then
                        match summaries with
                        | None ->
                            report ~rule:"SPEC12" ~site:(site ())
                              "stack allocation v%d passed to %s with no summary table" a
                              (Classfile.qualified_name m)
                        | Some t ->
                            let cs = Summary.call_summary t k m in
                            if
                              j >= Array.length cs.Summary.s_params
                              || cs.Summary.s_params.(j).Summary.ps_escape
                                 = Summary.Global_escape
                            then
                              report ~rule:"SPEC12" ~site:(site ())
                                "stack allocation v%d passed to %s at a position that may \
                                 globally escape"
                                a
                                (Classfile.qualified_name m))
                    args
              | _ -> ())
            b.Graph.instrs;
          match b.Graph.term with
          | Graph.Return (Some v) when is_stack v ->
              report ~rule:"SPEC12"
                ~site:(Printf.sprintf "B%d/return" b.Graph.b_id)
                "stack allocation v%d is returned and outlives its frame" v
          | _ -> ()
        end)
      g
  end;

  List.rev !violations

let check_exn ?summaries ?phase g =
  match check ?summaries ?phase g with
  | [] -> ()
  | vs ->
      failwith
        (Printf.sprintf "speculation-safety check failed for %s:\n  %s"
           (Classfile.qualified_name g.Graph.g_method)
           (String.concat "\n  " (List.map (Fmt.str "%a" pp_violation) vs)))
