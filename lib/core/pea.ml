open Pea_ir
open Pea_state
module Summary = Pea_analysis.Summary
module Event = Pea_obs.Event
module Trace = Pea_obs.Trace

(* Per-allocation-site provenance: what the pass decided about one New /
   Alloc / New_array node and why. Counters accumulate over every
   speculative loop attempt (discarded attempts included, matching the
   aggregate counters below); the decision list is deduplicated, so it
   reads as the history of distinct (block, reason) decisions. *)
type site_report = {
  site_node : int; (* input-graph node id of the allocation *)
  site_class : string;
  site_block : int; (* block holding the allocation *)
  site_method : string; (* declaring method (innermost frame when inlined) *)
  site_bci : int; (* bytecode index of the allocation; -1 if unknown *)
  mutable sr_virtualized : bool; (* tracked as a virtual object at least once *)
  mutable sr_forced : bool; (* pre-pass escape analysis pinned it escaping *)
  mutable sr_materialized : (int * Event.pea_reason) list; (* (block, why), chronological *)
  mutable sr_loads : int; (* field/array loads replaced by tracked values *)
  mutable sr_stores : int;
  mutable sr_locks : int; (* monitor operations elided *)
  mutable sr_scratch : int; (* passed to callees as scratch allocations *)
  mutable sr_stack : int;
      (* materializations that went to the frame's stack region instead
         of the heap (the site is frame-bounded) *)
  sr_origin : (string * string * int) list;
      (* inline provenance when the site lives in a spliced callee: one
         (caller, callee, call-site bci) triple per inline boundary,
         outermost first; [] for sites native to the compiled method *)
}

type pass_stats = {
  mutable virtualized_allocs : int;
  mutable materializations : int;
  mutable removed_loads : int;
  mutable removed_stores : int;
  mutable removed_monitor_ops : int;
  mutable folded_checks : int;
  mutable scratch_args : int; (* virtual objects passed to callees as scratch objects *)
  mutable stack_materializations : int;
      (* materializations emitted as frame-bounded stack allocations
         (subset of [materializations]) *)
  mutable sites : site_report list; (* per-allocation-site provenance, by node id *)
}

let mk_stats () =
  {
    virtualized_allocs = 0;
    materializations = 0;
    removed_loads = 0;
    removed_stores = 0;
    removed_monitor_ops = 0;
    folded_checks = 0;
    scratch_args = 0;
    stack_materializations = 0;
    sites = [];
  }

type ctx = {
  in_g : Graph.t;
  out_g : Graph.t;
  vmap : (int, pvalue) Hashtbl.t; (* input node id -> translated value *)
  obj_ids : Pea_support.Fresh.t;
  force_escape : int -> bool;
  stack_eligible : int -> bool;
      (* input allocation node id -> the object is frame-bounded, so a
         materialization may go to the stack region (Escape.frame_bounded) *)
  summaries : Summary.t option; (* interprocedural escape summaries, if enabled *)
  end_states : Pea_state.t option array; (* per input block *)
  loops : Loops.t;
  pstats : pass_stats;
  prune_dead_objects : bool; (* drop dead objects at merges instead of materializing *)
  aliases : (int, int list ref) Hashtbl.t; (* obj id -> input nodes that alias it *)
  def_block : (int, int) Hashtbl.t; (* input node id -> defining block *)
  used_from_cache : (int * int, (int, unit) Hashtbl.t) Hashtbl.t;
      (* (start block, barrier block) -> input nodes used in blocks
         reachable from start without passing through barrier *)
  meth : string; (* qualified method name, for provenance events *)
  trace : Trace.t option; (* where provenance events go *)
  sites : (int, site_report) Hashtbl.t; (* input allocation node id -> report *)
  obj_site : (int, int) Hashtbl.t; (* virtual object id -> allocation node id *)
}

let fail fmt = Format.kasprintf failwith fmt

let tr ctx id : pvalue =
  match Hashtbl.find_opt ctx.vmap id with
  | Some pv -> pv
  | None -> fail "PEA: input node v%d has no translation" id

let set_tr ctx id pv =
  Hashtbl.replace ctx.vmap id pv;
  match pv with
  | Pobj oid -> (
      match Hashtbl.find_opt ctx.aliases oid with
      | Some l -> if not (List.mem id !l) then l := id :: !l
      | None -> Hashtbl.replace ctx.aliases oid (ref [ id ]))
  | Pnode _ | Pconst _ -> ()

(* All input-node ids used by blocks reachable from [start] without
   passing through [barrier] (the defining block of the alias being
   queried): operands, phi inputs, terminator references and frame-state
   values. Not traversing past the definition point is what separates uses
   of *this* iteration's object from uses of a fresh object created when
   the allocation re-executes on a later loop iteration. *)
let used_from ctx ~start ~barrier : (int, unit) Hashtbl.t =
  match Hashtbl.find_opt ctx.used_from_cache (start, barrier) with
  | Some t -> t
  | None ->
      let used = Hashtbl.create 64 in
      let mark id = Hashtbl.replace used id () in
      let mark_fs fs = Frame_state.iter_nodes mark fs in
      let visited = Hashtbl.create 16 in
      let rec walk b =
        if b <> barrier && not (Hashtbl.mem visited b) then begin
          Hashtbl.replace visited b ();
          let blk = Graph.block ctx.in_g b in
          List.iter
            (fun (phi : Node.t) -> Node.iter_operands mark phi.Node.op)
            blk.Graph.phis;
          Pea_support.Dyn_array.iter
            (fun (n : Node.t) ->
              Node.iter_operands mark n.Node.op;
              Option.iter mark_fs n.Node.fs)
            blk.Graph.instrs;
          (match blk.Graph.term with
          | Graph.If { cond; _ } -> mark cond
          | Graph.Return (Some v) -> mark v
          | Graph.Deopt { d_state = fs; _ } -> mark_fs fs
          | Graph.Goto _ | Graph.Return None | Graph.Trap _ | Graph.Unreachable -> ());
          List.iter walk (Graph.successors blk.Graph.term)
        end
      in
      walk start;
      Hashtbl.replace ctx.used_from_cache (start, barrier) used;
      used

(* Is some alias of [oid] still visible at or after block [start]? *)
let alias_used_after ctx ~start oid =
  match Hashtbl.find_opt ctx.aliases oid with
  | None -> false
  | Some l ->
      List.exists
        (fun node ->
          let barrier =
            match Hashtbl.find_opt ctx.def_block node with Some b -> b | None -> -1
          in
          Hashtbl.mem (used_from ctx ~start ~barrier) node)
        !l

let out_block ctx bid = Graph.block ctx.out_g bid

(* Attribution-only frame state naming the bytecode site where virtual
   object [oid] was originally allocated. Attached to materialization
   and scratch allocations so the heap profiler charges them to the
   source-level allocation site, not the escape point. Stripped of all
   values — it references no nodes and no virtuals, so it is never a
   deopt target and trivially satisfies the safety verifier. *)
let origin_fs ctx oid =
  match Hashtbl.find_opt ctx.obj_site oid with
  | None -> None
  | Some node_id when node_id >= 0 && node_id < Graph.n_nodes ctx.in_g -> (
      match (Graph.node ctx.in_g node_id).Node.fs with
      | Some fs ->
          Some
            {
              fs with
              Frame_state.fs_locals = [||];
              fs_stack = [];
              fs_locks = [];
              fs_outer = None;
              fs_virtuals = [];
            }
      | None -> None)
  | Some _ -> None

let emit ?fs ctx ob op =
  let n = Graph.append ctx.out_g ob op in
  n.Node.fs <- fs;
  n.Node.id

let end_state ctx bid =
  match ctx.end_states.(bid) with
  | Some s -> s
  | None -> fail "PEA: block B%d used before being processed" bid

(* ------------------------------------------------------------------ *)
(* Decision provenance                                                 *)
(* ------------------------------------------------------------------ *)

(* Inline provenance of a block: if the block was spliced in from a
   callee, its interpreter entry state is a chain of frames. Every
   adjacent (outer, inner) frame pair is one inline boundary, reported as
   (caller, callee, call-site bci) — the bci of the invoke the splice
   replaced, which is also the bci a receiver guard protects. *)
let inline_origin ctx block =
  if block < 0 || block >= Graph.n_blocks ctx.in_g then []
  else
    match (Graph.block ctx.in_g block).Graph.entry_fs with
    | None -> []
    | Some fs ->
        let rec outermost_first (f : Frame_state.t) acc =
          match f.Frame_state.fs_outer with
          | None -> f :: acc
          | Some o -> outermost_first o (f :: acc)
        in
        let rec boundaries = function
          | outer :: (inner :: _ as rest) ->
              ( Pea_bytecode.Classfile.qualified_name outer.Frame_state.fs_method,
                Pea_bytecode.Classfile.qualified_name inner.Frame_state.fs_method,
                outer.Frame_state.fs_bci - 1 )
              :: boundaries rest
          | _ -> []
        in
        boundaries (outermost_first fs [])

(* The allocation's bytecode site, from the frame state the builder
   attaches to New/New_array nodes. The fs record itself is the innermost
   frame, so under inlining this names the callee the allocation really
   lives in — exactly the site the heap profiler attributes to. *)
let bytecode_site ctx node_id =
  if node_id < 0 || node_id >= Graph.n_nodes ctx.in_g then (ctx.meth, -1)
  else
    match (Graph.node ctx.in_g node_id).Node.fs with
    | Some fs ->
        ( Pea_bytecode.Classfile.qualified_name fs.Frame_state.fs_method,
          fs.Frame_state.fs_bci )
    | None -> (ctx.meth, -1)

let register_site ctx node_id cls block =
  match Hashtbl.find_opt ctx.sites node_id with
  | Some r -> r
  | None ->
      let site_method, site_bci = bytecode_site ctx node_id in
      let r =
        {
          site_node = node_id;
          site_class = cls;
          site_block = block;
          site_method;
          site_bci;
          sr_virtualized = false;
          sr_forced = false;
          sr_materialized = [];
          sr_loads = 0;
          sr_stores = 0;
          sr_locks = 0;
          sr_scratch = 0;
          sr_stack = 0;
          sr_origin = inline_origin ctx block;
        }
      in
      Hashtbl.replace ctx.sites node_id r;
      r

let note_virtualize ctx node_id cls (ob : Graph.block) oid =
  let r = register_site ctx node_id cls ob.Graph.b_id in
  r.sr_virtualized <- true;
  Hashtbl.replace ctx.obj_site oid node_id;
  match ctx.trace with
  | Some t ->
      Trace.emit t
        (Event.Pea_virtualize { meth = ctx.meth; site = node_id; block = ob.Graph.b_id; cls })
  | None -> ()

let record_decision r block reason =
  let entry = (block, reason) in
  if not (List.mem entry r.sr_materialized) then r.sr_materialized <- r.sr_materialized @ [ entry ]

(* An allocation the escape pre-pass (or the array-length rule) never let
   become virtual: the site stays a real allocation at its own block. *)
let note_unvirtualized ctx node_id cls (ob : Graph.block) ~forced ~reason =
  let r = register_site ctx node_id cls ob.Graph.b_id in
  if forced then r.sr_forced <- true;
  record_decision r ob.Graph.b_id reason;
  match ctx.trace with
  | Some t ->
      Trace.emit t
        (Event.Pea_materialize { meth = ctx.meth; site = node_id; block = ob.Graph.b_id; reason })
  | None -> ()

let note_materialize ctx (ob : Graph.block) ~reason oid =
  match Hashtbl.find_opt ctx.obj_site oid with
  | None -> ()
  | Some site ->
      (match Hashtbl.find_opt ctx.sites site with
      | Some r -> record_decision r ob.Graph.b_id reason
      | None -> ());
      match ctx.trace with
      | Some t ->
          Trace.emit t
            (Event.Pea_materialize { meth = ctx.meth; site; block = ob.Graph.b_id; reason })
      | None -> ()

let note_lock_elided ctx oid =
  match Hashtbl.find_opt ctx.obj_site oid with
  | None -> ()
  | Some site -> (
      match Hashtbl.find_opt ctx.sites site with
      | Some r -> (
          r.sr_locks <- r.sr_locks + 1;
          match ctx.trace with
          | Some t ->
              Trace.emit t (Event.Lock_elided { meth = ctx.meth; site; block = r.site_block })
          | None -> ())
      | None -> ())

let with_site ctx oid f =
  match Hashtbl.find_opt ctx.obj_site oid with
  | None -> ()
  | Some site -> ( match Hashtbl.find_opt ctx.sites site with Some r -> f r | None -> ())

(* ------------------------------------------------------------------ *)
(* Materialization                                                     *)
(* ------------------------------------------------------------------ *)

(* Materialize object [id] at the end of output block [ob]: emit an
   initialized allocation ([Alloc]), re-acquire elided locks, and flip the
   object's state to Escaped. Cyclic virtual structures are handled with
   null placeholders patched by explicit stores. Mutates [s]. [reason]
   names why the root object escapes; objects reachable from it escape
   because they are stored in a materialized object. *)
let materialize ctx ob (s : Pea_state.t ref) ~reason id : Node.node_id =
  let root = id in
  let patches = ref [] in
  let results : (int, Node.node_id) Hashtbl.t = Hashtbl.create 4 in
  let visiting : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  let rec go id =
    match Hashtbl.find_opt results id with
    | Some n -> n
    | None -> (
        match find !s id with
        | Some (Escaped e) -> e.materialized
        | None -> fail "PEA: materializing obj%d which is not in the current state" id
        | Some (Virtual { shape; fields; lock_count }) ->
            Hashtbl.replace visiting id ();
            let field_nodes =
              Array.mapi
                (fun i fv ->
                  match fv with
                  | Pnode n -> n
                  | Pconst c -> emit ctx ob (Node.Const c)
                  | Pobj other ->
                      if Hashtbl.mem visiting other && not (Hashtbl.mem results other) then begin
                        patches := (id, i, other) :: !patches;
                        emit ctx ob (Node.Const Node.Cnull)
                      end
                      else go other)
                fields
            in
            let stack_ok =
              (* frame-bounded objects materialize into the frame's stack
                 region: same identity, fields and lock support, but no
                 heap allocation — reclaimed wholesale at frame pop *)
              match Hashtbl.find_opt ctx.obj_site id with
              | Some site -> ctx.stack_eligible site
              | None -> false
            in
            let alloc =
              let fs = origin_fs ctx id in
              if stack_ok then
                match shape with
                | Obj_shape cls -> emit ?fs ctx ob (Node.Stack_alloc (Node.Sk_frame, cls, field_nodes))
                | Arr_shape elem ->
                    emit ?fs ctx ob (Node.Stack_alloc_array (Node.Sk_frame, elem, field_nodes))
              else
                match shape with
                | Obj_shape cls -> emit ?fs ctx ob (Node.Alloc (cls, field_nodes))
                | Arr_shape elem -> emit ?fs ctx ob (Node.Alloc_array (elem, field_nodes))
            in
            if stack_ok then begin
              ctx.pstats.stack_materializations <- ctx.pstats.stack_materializations + 1;
              with_site ctx id (fun r -> r.sr_stack <- r.sr_stack + 1)
            end;
            Hashtbl.replace results id alloc;
            s := add !s id (Escaped { e_shape = shape; materialized = alloc });
            (* re-lock: the object was virtually locked (Fig. 4c) *)
            for _ = 1 to lock_count do
              ignore (emit ctx ob (Node.Monitor_enter alloc))
            done;
            ctx.pstats.materializations <- ctx.pstats.materializations + 1;
            note_materialize ctx ob
              ~reason:(if id = root then reason else Event.R_store_escaped)
              id;
            alloc)
  in
  let n = go id in
  List.iter
    (fun (owner, fidx, target) ->
      let owner_node = Hashtbl.find results owner in
      let target_node = go target in
      match (match find !s owner with Some os -> shape_of os | None -> assert false) with
      | Obj_shape cls ->
          let fld = cls.Pea_bytecode.Classfile.cls_instance_fields.(fidx) in
          ignore (emit ctx ob (Node.Store_field (owner_node, fld, target_node)))
      | Arr_shape _ ->
          let idx = emit ctx ob (Node.Const (Node.Cint fidx)) in
          ignore (emit ctx ob (Node.Array_store (owner_node, idx, target_node))))
    (List.rev !patches);
  n

let node_of ctx ob (s : Pea_state.t ref) ~reason pv : Node.node_id =
  match pv with
  | Pnode n -> n
  | Pconst c -> emit ctx ob (Node.Const c)
  | Pobj id -> materialize ctx ob s ~reason id

(* ------------------------------------------------------------------ *)
(* Frame-state translation (§5.5)                                      *)
(* ------------------------------------------------------------------ *)

let translate_fs ctx (s : Pea_state.t) (fs : Frame_state.t) : Frame_state.t =
  let collected = ref [] in
  let collecting : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  let rec pvalue_to_fs pv : Frame_state.fs_value =
    match pv with
    | Pnode n -> Frame_state.F_node n
    | Pconst c -> Frame_state.F_const c
    | Pobj oid -> (
        match find s oid with
        | Some (Escaped e) -> Frame_state.F_node e.materialized
        | Some (Virtual _) ->
            collect oid;
            Frame_state.F_virtual oid
        | None -> fail "PEA: frame state references obj%d missing from the state" oid)
  and collect oid =
    if not (Hashtbl.mem collecting oid) then begin
      Hashtbl.replace collecting oid ();
      match find s oid with
      | Some (Virtual { shape; fields; lock_count }) ->
          let vd_fields = Array.map pvalue_to_fs fields in
          collected :=
            (oid, { Frame_state.vd_shape = shape; vd_fields; vd_lock = lock_count }) :: !collected
      | Some (Escaped _) | None -> assert false
    end
  in
  let value_of (fv : Frame_state.fs_value) : Frame_state.fs_value =
    match fv with
    | Frame_state.F_const _ | Frame_state.F_virtual _ -> fv
    | Frame_state.F_node id -> pvalue_to_fs (tr ctx id)
  in
  let rec go fs =
    {
      fs with
      Frame_state.fs_locals = Array.map value_of fs.Frame_state.fs_locals;
      Frame_state.fs_stack = List.map value_of fs.Frame_state.fs_stack;
      Frame_state.fs_locks = List.map value_of fs.Frame_state.fs_locks;
      Frame_state.fs_outer = Option.map go fs.Frame_state.fs_outer;
      Frame_state.fs_virtuals =
        List.map
          (fun (v, vd) ->
            (v, { vd with Frame_state.vd_fields = Array.map value_of vd.Frame_state.vd_fields }))
          fs.Frame_state.fs_virtuals;
    }
  in
  let fs' = go fs in
  { fs' with Frame_state.fs_virtuals = fs'.Frame_state.fs_virtuals @ List.rev !collected }

(* ------------------------------------------------------------------ *)
(* Effects of nodes on the state (§5.2, Figures 4 and 5)               *)
(* ------------------------------------------------------------------ *)

let is_subclass_cls cls anc = Pea_bytecode.Classfile.is_subclass ~cls ~anc

(* Arrays are only virtualized up to this many elements, mirroring
   Graal's bounded array virtualization. *)
let max_virtual_array_length = 64

let is_obj_shape = function Obj_shape _ -> true | Arr_shape _ -> false

(* Runtime subtype test on the exact compile-time shape. *)
let shape_instanceof shape (cls : Pea_bytecode.Classfile.rt_class) =
  match shape with
  | Obj_shape c -> is_subclass_cls c cls
  | Arr_shape _ -> cls.Pea_bytecode.Classfile.cls_name = Pea_mjava.Ast.object_class

let const_index ctx i =
  match tr ctx i with Pconst (Node.Cint n) -> Some n | _ -> None

let process_instr ctx ob (sref : Pea_state.t ref) (n : Node.t) =
  let fs () = Option.map (translate_fs ctx !sref) n.Node.fs in
  let nof reason pv = node_of ctx ob sref ~reason pv in
  let u what = Event.R_use what in
  let virtual_of pv =
    match pv with
    | Pobj id -> ( match find !sref id with Some (Virtual v) -> Some (id, v) | _ -> None)
    | Pnode _ | Pconst _ -> None
  in
  match n.Node.op with
  | Node.Const c -> set_tr ctx n.Node.id (Pconst c)
  | Node.Param _ -> () (* params are translated up front *)
  | Node.Phi _ -> assert false (* phis never appear in instruction lists *)
  | Node.New cls ->
      let cls_name = cls.Pea_bytecode.Classfile.cls_name in
      if ctx.force_escape n.Node.id then begin
        note_unvirtualized ctx n.Node.id cls_name ob ~forced:true ~reason:Event.R_forced;
        set_tr ctx n.Node.id (Pnode (emit ?fs:(fs ()) ctx ob (Node.New cls)))
      end
      else begin
        let id = Pea_support.Fresh.next ctx.obj_ids in
        sref := add !sref id (fresh_virtual cls);
        set_tr ctx n.Node.id (Pobj id);
        note_virtualize ctx n.Node.id cls_name ob id;
        ctx.pstats.virtualized_allocs <- ctx.pstats.virtualized_allocs + 1
      end
  | Node.Alloc (cls, args) ->
      (* a materialization from an earlier pass: re-virtualize it with the
         given initial field values *)
      let cls_name = cls.Pea_bytecode.Classfile.cls_name in
      if ctx.force_escape n.Node.id then begin
        note_unvirtualized ctx n.Node.id cls_name ob ~forced:true ~reason:Event.R_forced;
        let arg_nodes = Array.map (fun a -> nof (u "allocation-argument") (tr ctx a)) args in
        set_tr ctx n.Node.id (Pnode (emit ?fs:(fs ()) ctx ob (Node.Alloc (cls, arg_nodes))))
      end
      else begin
        let id = Pea_support.Fresh.next ctx.obj_ids in
        let fields = Array.map (fun a -> tr ctx a) args in
        sref := add !sref id (Virtual { shape = Obj_shape cls; fields; lock_count = 0 });
        set_tr ctx n.Node.id (Pobj id);
        note_virtualize ctx n.Node.id cls_name ob id;
        ctx.pstats.virtualized_allocs <- ctx.pstats.virtualized_allocs + 1
      end
  | Node.Alloc_array (elem, args) ->
      let arr_name = Pea_mjava.Ast.string_of_ty elem ^ "[]" in
      if ctx.force_escape n.Node.id then begin
        note_unvirtualized ctx n.Node.id arr_name ob ~forced:true ~reason:Event.R_forced;
        let arg_nodes = Array.map (fun a -> nof (u "allocation-argument") (tr ctx a)) args in
        set_tr ctx n.Node.id (Pnode (emit ?fs:(fs ()) ctx ob (Node.Alloc_array (elem, arg_nodes))))
      end
      else begin
        let id = Pea_support.Fresh.next ctx.obj_ids in
        let fields = Array.map (fun a -> tr ctx a) args in
        sref := add !sref id (Virtual { shape = Arr_shape elem; fields; lock_count = 0 });
        set_tr ctx n.Node.id (Pobj id);
        note_virtualize ctx n.Node.id arr_name ob id;
        ctx.pstats.virtualized_allocs <- ctx.pstats.virtualized_allocs + 1
      end
  | Node.New_array (t, len) -> (
      (* fixed-length arrays below the size cap are virtualized, like
         objects (the extension Graal also implements); arrays of unknown
         or large length stay allocations *)
      let arr_name = Pea_mjava.Ast.string_of_ty t ^ "[]" in
      match tr ctx len with
      | Pconst (Node.Cint n_elems)
        when n_elems >= 0 && n_elems <= max_virtual_array_length
             && not (ctx.force_escape n.Node.id) ->
          let id = Pea_support.Fresh.next ctx.obj_ids in
          sref := add !sref id (fresh_virtual_array t n_elems);
          set_tr ctx n.Node.id (Pobj id);
          note_virtualize ctx n.Node.id arr_name ob id;
          ctx.pstats.virtualized_allocs <- ctx.pstats.virtualized_allocs + 1
      | pv ->
          let forced = ctx.force_escape n.Node.id in
          note_unvirtualized ctx n.Node.id arr_name ob ~forced
            ~reason:
              (if forced then Event.R_forced else u "non-constant-or-too-large-array-length");
          let len_node = nof (u "array-length") pv in
          set_tr ctx n.Node.id (Pnode (emit ?fs:(fs ()) ctx ob (Node.New_array (t, len_node)))))
  | Node.Load_field (o, f) -> (
      match virtual_of (tr ctx o) with
      | Some (id, v) when is_obj_shape v.shape ->
          (* Fig. 4b/4f: the load is replaced by the tracked field value *)
          set_tr ctx n.Node.id v.fields.(f.fld_offset);
          with_site ctx id (fun r -> r.sr_loads <- r.sr_loads + 1);
          ctx.pstats.removed_loads <- ctx.pstats.removed_loads + 1
      | Some _ | None ->
          let obj_node = nof (u "field-load") (tr ctx o) in
          set_tr ctx n.Node.id (Pnode (emit ctx ob (Node.Load_field (obj_node, f)))))
  | Node.Store_field (o, f, v) -> (
      match virtual_of (tr ctx o) with
      | Some (id, vs) when is_obj_shape vs.shape ->
          (* Fig. 4b/4e: update the tracked field value; storing another
             virtual object keeps a reference to its Id *)
          let fields = Array.copy vs.fields in
          fields.(f.fld_offset) <- tr ctx v;
          sref := add !sref id (Virtual { vs with fields });
          with_site ctx id (fun r -> r.sr_stores <- r.sr_stores + 1);
          ctx.pstats.removed_stores <- ctx.pstats.removed_stores + 1
      | Some _ | None ->
          (* Fig. 5: a store into an escaped object materializes the value *)
          let obj_node = nof (u "field-store") (tr ctx o) in
          let value_node = nof Event.R_store_escaped (tr ctx v) in
          ignore (emit ?fs:(fs ()) ctx ob (Node.Store_field (obj_node, f, value_node))))
  | Node.Load_static sf -> set_tr ctx n.Node.id (Pnode (emit ctx ob (Node.Load_static sf)))
  | Node.Store_static (sf, v) ->
      (* global escape *)
      let value_node = nof Event.R_store_static (tr ctx v) in
      ignore (emit ?fs:(fs ()) ctx ob (Node.Store_static (sf, value_node)))
  | Node.Array_load (a, i) -> (
      match virtual_of (tr ctx a), const_index ctx i with
      | Some (id, v), Some idx when idx >= 0 && idx < Array.length v.fields ->
          (* constant in-bounds index on a virtual array *)
          set_tr ctx n.Node.id v.fields.(idx);
          with_site ctx id (fun r -> r.sr_loads <- r.sr_loads + 1);
          ctx.pstats.removed_loads <- ctx.pstats.removed_loads + 1
      | _ ->
          let an = nof (u "array-access-with-non-constant-index") (tr ctx a)
          and inode = nof (u "array-index") (tr ctx i) in
          set_tr ctx n.Node.id (Pnode (emit ctx ob (Node.Array_load (an, inode)))))
  | Node.Array_store (a, i, v) -> (
      match virtual_of (tr ctx a), const_index ctx i with
      | Some (id, vs), Some idx when idx >= 0 && idx < Array.length vs.fields ->
          let fields = Array.copy vs.fields in
          fields.(idx) <- tr ctx v;
          sref := add !sref id (Virtual { vs with fields });
          with_site ctx id (fun r -> r.sr_stores <- r.sr_stores + 1);
          ctx.pstats.removed_stores <- ctx.pstats.removed_stores + 1
      | _ ->
          let an = nof (u "array-access-with-non-constant-index") (tr ctx a) in
          let inode = nof (u "array-index") (tr ctx i) in
          let vn = nof Event.R_store_escaped (tr ctx v) in
          ignore (emit ?fs:(fs ()) ctx ob (Node.Array_store (an, inode, vn))))
  | Node.Array_length a -> (
      match virtual_of (tr ctx a) with
      | Some (_, v) ->
          (* the length of a virtual array is a compile-time constant *)
          set_tr ctx n.Node.id (Pconst (Node.Cint (Array.length v.fields)));
          ctx.pstats.folded_checks <- ctx.pstats.folded_checks + 1
      | None ->
          let an = nof (u "array-length") (tr ctx a) in
          set_tr ctx n.Node.id (Pnode (emit ctx ob (Node.Array_length an))))
  | Node.Monitor_enter o -> (
      match virtual_of (tr ctx o) with
      | Some (id, vs) ->
          (* Fig. 4c: lock elision on the virtual object *)
          sref := add !sref id (Virtual { vs with lock_count = vs.lock_count + 1 });
          note_lock_elided ctx id;
          ctx.pstats.removed_monitor_ops <- ctx.pstats.removed_monitor_ops + 1
      | None ->
          ignore
            (emit ?fs:(fs ()) ctx ob
               (Node.Monitor_enter (nof (u "monitor-on-escaped-object") (tr ctx o)))))
  | Node.Monitor_exit o -> (
      match virtual_of (tr ctx o) with
      | Some (id, vs) ->
          (* Fig. 4d *)
          if vs.lock_count <= 0 then fail "PEA: monitorexit on an unlocked virtual object";
          sref := add !sref id (Virtual { vs with lock_count = vs.lock_count - 1 });
          note_lock_elided ctx id;
          ctx.pstats.removed_monitor_ops <- ctx.pstats.removed_monitor_ops + 1
      | None ->
          ignore
            (emit ?fs:(fs ()) ctx ob
               (Node.Monitor_exit (nof (u "monitor-on-escaped-object") (tr ctx o)))))
  | Node.Arith (k, a, b) ->
      let op = u "arithmetic" in
      set_tr ctx n.Node.id (Pnode (emit ctx ob (Node.Arith (k, nof op (tr ctx a), nof op (tr ctx b)))))
  | Node.Neg a -> set_tr ctx n.Node.id (Pnode (emit ctx ob (Node.Neg (nof (u "arithmetic") (tr ctx a)))))
  | Node.Not a -> set_tr ctx n.Node.id (Pnode (emit ctx ob (Node.Not (nof (u "arithmetic") (tr ctx a)))))
  | Node.Cmp (c, a, b) ->
      let op = u "comparison" in
      set_tr ctx n.Node.id (Pnode (emit ctx ob (Node.Cmp (c, nof op (tr ctx a), nof op (tr ctx b)))))
  | Node.RefCmp (c, a, b) -> (
      let pa = tr ctx a and pb = tr ctx b in
      let fold eq =
        let r = match c with Pea_bytecode.Classfile.AEq -> eq | Pea_bytecode.Classfile.ANe -> not eq in
        set_tr ctx n.Node.id (Pconst (Node.Cbool r));
        ctx.pstats.folded_checks <- ctx.pstats.folded_checks + 1
      in
      match virtual_of pa, virtual_of pb with
      | Some (ida, _), Some (idb, _) ->
          (* both virtual: identity is the Id *)
          fold (ida = idb)
      | Some _, None | None, Some _ ->
          (* "always false when exactly one of the inputs is virtual" *)
          fold false
      | None, None ->
          let op = u "reference-comparison" in
          set_tr ctx n.Node.id (Pnode (emit ctx ob (Node.RefCmp (c, nof op pa, nof op pb)))))
  | Node.Instance_of (a, cls) -> (
      match virtual_of (tr ctx a) with
      | Some (_, v) ->
          (* exact type is known at compile time *)
          set_tr ctx n.Node.id (Pconst (Node.Cbool (shape_instanceof v.shape cls)));
          ctx.pstats.folded_checks <- ctx.pstats.folded_checks + 1
      | None ->
          set_tr ctx n.Node.id
            (Pnode (emit ctx ob (Node.Instance_of (nof (u "instanceof") (tr ctx a), cls)))))
  | Node.Has_class (a, cls) -> (
      match virtual_of (tr ctx a) with
      | Some (_, v) ->
          (* the exact shape is a compile-time constant: a virtual object
             satisfies the guard iff its class is exactly the expected one *)
          let hit =
            match v.shape with
            | Obj_shape c ->
                c.Pea_bytecode.Classfile.cls_id = cls.Pea_bytecode.Classfile.cls_id
            | Arr_shape _ -> false
          in
          set_tr ctx n.Node.id (Pconst (Node.Cbool hit));
          ctx.pstats.folded_checks <- ctx.pstats.folded_checks + 1
      | None ->
          set_tr ctx n.Node.id
            (Pnode (emit ctx ob (Node.Has_class (nof (u "hasclass") (tr ctx a), cls)))))
  | Node.Check_cast (a, cls) -> (
      let pa = tr ctx a in
      match virtual_of pa with
      | Some (id, v) when shape_instanceof v.shape cls ->
          (* the cast is statically correct: the virtual object flows on *)
          set_tr ctx n.Node.id (Pobj id);
          ctx.pstats.folded_checks <- ctx.pstats.folded_checks + 1
      | Some _ | None ->
          (* failing or unknown cast: requires the actual reference *)
          set_tr ctx n.Node.id
            (Pnode (emit ctx ob (Node.Check_cast (nof (u "failing-or-unknown-cast") pa, cls)))))
  | Node.Null_check a -> (
      match tr ctx a with
      | Pobj _ -> () (* tracked allocations are never null *)
      | pv -> ignore (emit ctx ob (Node.Null_check (nof (u "null-check") pv))))
  | Node.Invoke (k, m, args) ->
      (* Without a summary, arguments escape into the callee and any
         virtual argument is materialized (§5's hard escape point). With
         an interprocedural summary, an argument position the callee
         provably neither retains nor mutates may instead receive a
         *scratch* object ([Stack_alloc]): a real object carrying the
         tracked field values that is built without charging a heap
         allocation and is dead once the call returns, so the virtual
         object stays virtual in the caller. *)
      let summary =
        match ctx.summaries with
        | None -> None
        | Some t -> (
            match k with
            | Node.Static | Node.Special -> Some (Summary.call_summary t k m)
            | Node.Virtual -> (
                (* a virtual receiver has a known exact class: dispatch is
                   static and we can use that one target's summary *)
                match
                  (if Array.length args > 0 then virtual_of (tr ctx args.(0)) else None)
                with
                | Some (_, { shape = Obj_shape c; _ }) -> Some (Summary.exact_summary t c m)
                | _ -> Some (Summary.call_summary t k m)))
      in
      (* Per distinct virtual object: scratch only if every position it
         occupies is transparent, otherwise one position would receive the
         materialized object and another the scratch, breaking reference
         identity inside the callee. *)
      let scratch_ok : (int, bool) Hashtbl.t = Hashtbl.create 4 in
      (match summary with
      | None -> ()
      | Some cs ->
          Array.iteri
            (fun j a ->
              match virtual_of (tr ctx a) with
              | Some (oid, v) ->
                  let ok_here =
                    j < Array.length cs.Summary.s_params
                    && Summary.transparent cs.Summary.s_params.(j)
                    && ((not cs.Summary.s_params.(j).Summary.ps_ref_loaded)
                       || Array.for_all
                            (function Pobj _ -> false | Pnode _ | Pconst _ -> true)
                            v.fields)
                    && v.lock_count = 0
                  in
                  Hashtbl.replace scratch_ok oid
                    (ok_here
                    && Option.value (Hashtbl.find_opt scratch_ok oid) ~default:true)
              | None -> ())
            args);
      let planned oid = Hashtbl.find_opt scratch_ok oid = Some true in
      let callee = Pea_bytecode.Classfile.qualified_name m in
      let arg_reason =
        match ctx.summaries with
        | None -> Event.R_unknown_callee callee
        | Some _ -> Event.R_call callee
      in
      (* Pass 1: materialize all non-scratch arguments. This may
         transitively materialize an object scheduled for scratching (it
         became reachable from an escaping one); pass 2 re-checks. *)
      let arg_nodes = Array.make (Array.length args) (-1) in
      Array.iteri
        (fun j a ->
          let pv = tr ctx a in
          match pv with
          | Pobj oid when planned oid -> ()
          | pv -> arg_nodes.(j) <- nof arg_reason pv)
        args;
      (* Pass 2: emit one scratch per still-virtual object. *)
      let scratch_nodes : (int, Node.node_id) Hashtbl.t = Hashtbl.create 4 in
      Array.iteri
        (fun j a ->
          match tr ctx a with
          | Pobj oid when planned oid ->
              arg_nodes.(j) <-
                (match Hashtbl.find_opt scratch_nodes oid with
                | Some nd -> nd
                | None ->
                    let nd =
                      match find !sref oid with
                      | Some (Virtual { shape; fields; _ }) ->
                          let fnodes =
                            Array.map
                              (function
                                | Pnode x -> x
                                | Pconst c -> emit ctx ob (Node.Const c)
                                | Pobj _ ->
                                    (* only reachable when the callee never
                                       loads this reference field *)
                                    emit ctx ob (Node.Const Node.Cnull))
                              fields
                          in
                          ctx.pstats.scratch_args <- ctx.pstats.scratch_args + 1;
                          with_site ctx oid (fun r ->
                              r.sr_scratch <- r.sr_scratch + 1;
                              match ctx.trace with
                              | Some t ->
                                  Trace.emit t
                                    (Event.Pea_scratch_arg
                                       { meth = ctx.meth; site = r.site_node; callee })
                              | None -> ());
                          let sfs = origin_fs ctx oid in
                          (match shape with
                          | Obj_shape cls ->
                              emit ?fs:sfs ctx ob (Node.Stack_alloc (Node.Sk_scratch, cls, fnodes))
                          | Arr_shape elem ->
                              emit ?fs:sfs ctx ob
                                (Node.Stack_alloc_array (Node.Sk_scratch, elem, fnodes)))
                      | _ ->
                          (* materialized transitively during pass 1 *)
                          nof arg_reason (Pobj oid)
                    in
                    Hashtbl.replace scratch_nodes oid nd;
                    nd)
          | _ -> ())
        args;
      let out = emit ?fs:(fs ()) ctx ob (Node.Invoke (k, m, arg_nodes)) in
      if Node.produces_value n.Node.op then set_tr ctx n.Node.id (Pnode out)
  | Node.Stack_alloc (k, cls, args) ->
      (* produced by an earlier PEA pass: keep as-is with translated
         operands (and the attribution state, when it carries one) *)
      let arg_nodes = Array.map (fun a -> nof (u "scratch-argument") (tr ctx a)) args in
      set_tr ctx n.Node.id (Pnode (emit ?fs:(fs ()) ctx ob (Node.Stack_alloc (k, cls, arg_nodes))))
  | Node.Stack_alloc_array (k, elem, args) ->
      let arg_nodes = Array.map (fun a -> nof (u "scratch-argument") (tr ctx a)) args in
      set_tr ctx n.Node.id
        (Pnode (emit ?fs:(fs ()) ctx ob (Node.Stack_alloc_array (k, elem, arg_nodes))))
  | Node.Print a -> ignore (emit ?fs:(fs ()) ctx ob (Node.Print (nof (u "print") (tr ctx a))))

(* ------------------------------------------------------------------ *)
(* Terminators                                                         *)
(* ------------------------------------------------------------------ *)

let process_term ctx bid (sref : Pea_state.t ref) =
  let ib = Graph.block ctx.in_g bid in
  let ob = out_block ctx bid in
  ob.Graph.term <-
    (match ib.Graph.term with
    | Graph.Goto t -> Graph.Goto t
    | Graph.If r ->
        Graph.If
          { r with cond = node_of ctx ob sref ~reason:(Event.R_use "branch-condition") (tr ctx r.cond) }
    | Graph.Return None -> Graph.Return None
    | Graph.Return (Some v) ->
        (* returning a reference lets it escape the compilation scope *)
        Graph.Return (Some (node_of ctx ob sref ~reason:Event.R_return (tr ctx v)))
    | Graph.Deopt d ->
        (* §5.5: virtual objects stay virtual in deoptimization states *)
        Graph.Deopt { d with d_state = translate_fs ctx !sref d.Graph.d_state }
    | Graph.Trap msg -> Graph.Trap msg
    | Graph.Unreachable -> Graph.Unreachable)

(* ------------------------------------------------------------------ *)
(* The MergeProcessor (§5.3, Figure 6)                                 *)
(* ------------------------------------------------------------------ *)

type created_phi =
  | Value_phi of { phi_in : Node.t; phi_out : Node.t }
  | Field_phi of { obj : obj_id; field_idx : int; phi_out : Node.t }
  | Mat_phi of { obj : obj_id; phi_out : Node.t }

module IntSet = Set.Make (Int)

(* Merge the end states of [preds] (a prefix of [in_block]'s predecessor
   list) into a single state, emitting materializations at the mirror
   blocks of the predecessors and phis in the mirror of [in_block].

   [total_inputs] sizes created phi input arrays: for ordinary merges it
   equals [List.length preds]; for loop headers it is the full predecessor
   count and the caller fills the back-edge slots after processing the
   loop body. The [forced_*] sets encode loop speculation decisions. *)
let merge_states ctx ~(in_block : Graph.block) ~(preds : int list) ~total_inputs
    ~(forced_escapes : IntSet.t) ~(forced_field_phis : (obj_id * int, unit) Hashtbl.t)
    ~(forced_value_phis : IntSet.t) : Pea_state.t * created_phi list =
  let mb = out_block ctx in_block.Graph.b_id in
  let n_preds = List.length preds in
  let pred_arr = Array.of_list preds in
  let states () = Array.map (fun p -> end_state ctx p) pred_arr in
  (* Liveness: an object is kept in the merged state only if some alias of
     it is still used at or after the merge (in code or in a frame state),
     or it is reachable through the fields of such an object. Objects that
     are dead here are dropped instead of being materialized — matching
     the behaviour the paper's evaluation relies on when inlining turns
     callee returns into merges. *)
  let live_ids sts candidates =
    let alive = Hashtbl.create 8 in
    let rec add id =
      if not (Hashtbl.mem alive id) then begin
        Hashtbl.replace alive id ();
        (* closure over virtual fields in every predecessor state *)
        Array.iter
          (fun s ->
            match find s id with
            | Some (Virtual v) ->
                Array.iter (function Pobj o -> add o | Pnode _ | Pconst _ -> ()) v.fields
            | Some (Escaped _) | None -> ())
          sts
      end
    in
    List.iter
      (fun id -> if alias_used_after ctx ~start:in_block.Graph.b_id id then add id)
      candidates;
    List.filter (fun id -> Hashtbl.mem alive id) candidates
  in
  (* ids present in every predecessor state and still live *)
  let surviving sts =
    let inter =
      match Array.to_list sts with
      | [] -> []
      | first :: rest ->
          List.filter (fun id -> List.for_all (fun s -> mem s id) rest) (ids first)
    in
    if ctx.prune_dead_objects then live_ids sts inter else inter
  in
  (* --- materialization rounds --- *)
  let continue_rounds = ref true in
  while !continue_rounds do
    continue_rounds := false;
    let sts = states () in
    let mats : (int * obj_id, Event.pea_reason) Hashtbl.t = Hashtbl.create 4 in
    let want_mat pred_idx oid reason =
      (* only virtual objects need materialization *)
      if is_virtual sts.(pred_idx) oid then Hashtbl.replace mats (pred_idx, oid) reason
    in
    let ids_list = surviving sts in
    List.iter
      (fun id ->
        let obj_states = Array.map (fun s -> Option.get (find s id)) sts in
        let virtual_count =
          Array.fold_left
            (fun acc os -> match os with Virtual _ -> acc + 1 | Escaped _ -> acc)
            0 obj_states
        in
        if IntSet.mem id forced_escapes then
          Array.iteri (fun i _ -> want_mat i id Event.R_loop_escape) obj_states
        else if virtual_count > 0 && virtual_count < Array.length obj_states then
          (* mixed: materialize the virtual ones at their predecessors *)
          Array.iteri
            (fun i os -> match os with Virtual _ -> want_mat i id Event.R_merge_mixed | Escaped _ -> ())
            obj_states
        else if virtual_count = Array.length obj_states then begin
          (* all virtual: lock counts must agree, and differing fields that
             hold virtual objects force those objects to materialize *)
          let locks =
            Array.map (function Virtual v -> v.lock_count | Escaped _ -> 0) obj_states
          in
          let lock0 = locks.(0) in
          if Array.exists (fun l -> l <> lock0) locks then
            Array.iteri (fun i _ -> want_mat i id Event.R_merge_lock) obj_states
          else begin
            let fields_of i =
              match obj_states.(i) with Virtual v -> v.fields | Escaped _ -> assert false
            in
            let n_fields = Array.length (fields_of 0) in
            for idx = 0 to n_fields - 1 do
              let vals = Array.init (Array.length obj_states) (fun i -> (fields_of i).(idx)) in
              let all_equal = Array.for_all (fun v -> equal_pvalue v vals.(0)) vals in
              let needs_phi =
                Hashtbl.mem forced_field_phis (id, idx) || not all_equal
              in
              if needs_phi then
                Array.iteri
                  (fun i v ->
                    match v with Pobj x -> want_mat i x Event.R_merge_field | Pnode _ | Pconst _ -> ())
                  vals
            done
          end
        end)
      ids_list;
    (* input phis that cannot be aliased force their virtual inputs out *)
    List.iter
      (fun (phi : Node.t) ->
        match phi.Node.op with
        | Node.Phi p ->
            let inputs = Array.init n_preds (fun i -> tr ctx p.Node.inputs.(i)) in
            let alias_ok =
              (not (IntSet.mem phi.Node.id forced_value_phis))
              && Array.length inputs > 0
              && (match inputs.(0) with
                 | Pobj id0 ->
                     Array.for_all
                       (function Pobj x -> x = id0 | Pnode _ | Pconst _ -> false)
                       inputs
                     && List.mem id0 ids_list
                     && not (IntSet.mem id0 forced_escapes)
                 | Pnode _ | Pconst _ -> false)
            in
            if not alias_ok then
              Array.iteri
                (fun i v ->
                  match v with Pobj x -> want_mat i x Event.R_merge_phi | Pnode _ | Pconst _ -> ())
                inputs
        | _ -> ())
      in_block.Graph.phis;
    if Hashtbl.length mats > 0 then begin
      continue_rounds := true;
      Hashtbl.iter
        (fun (pred_idx, oid) reason ->
          let p = pred_arr.(pred_idx) in
          let sref = ref (end_state ctx p) in
          ignore (materialize ctx (out_block ctx p) sref ~reason oid);
          ctx.end_states.(p) <- Some !sref)
        mats
    end
  done;
  (* --- build the merged state --- *)
  let sts = states () in
  let created = ref [] in
  let new_phi fwd_inputs =
    let phi = Graph.add_phi ctx.out_g mb in
    let inputs = Array.make total_inputs phi.Node.id in
    Array.blit fwd_inputs 0 inputs 0 (Array.length fwd_inputs);
    (match phi.Node.op with Node.Phi p -> p.Node.inputs <- inputs | _ -> assert false);
    phi
  in
  (* convert a pvalue from predecessor [i] into a node, emitting in that
     predecessor's mirror block *)
  let node_at ~reason i pv =
    let p = pred_arr.(i) in
    let sref = ref (end_state ctx p) in
    let n = node_of ctx (out_block ctx p) sref ~reason pv in
    ctx.end_states.(p) <- Some !sref;
    n
  in
  let merged = ref Pea_state.empty in
  List.iter
    (fun id ->
      let obj_states = Array.map (fun s -> Option.get (find s id)) sts in
      let all_virtual = Array.for_all (function Virtual _ -> true | Escaped _ -> false) obj_states in
      if all_virtual then begin
        let v0 = match obj_states.(0) with Virtual v -> v | Escaped _ -> assert false in
        let n_fields = Array.length v0.fields in
        let fields =
          Array.init n_fields (fun idx ->
              let vals =
                Array.map
                  (function Virtual v -> v.fields.(idx) | Escaped _ -> assert false)
                  obj_states
              in
              let all_equal = Array.for_all (fun v -> equal_pvalue v vals.(0)) vals in
              if all_equal && not (Hashtbl.mem forced_field_phis (id, idx)) then vals.(0)
              else begin
                let fwd = Array.mapi (fun i v -> node_at ~reason:Event.R_merge_field i v) vals in
                let phi = new_phi fwd in
                created := Field_phi { obj = id; field_idx = idx; phi_out = phi } :: !created;
                Pnode phi.Node.id
              end)
        in
        merged := add !merged id (Virtual { shape = v0.shape; fields; lock_count = v0.lock_count })
      end
      else begin
        (* all escaped after the materialization rounds *)
        let nodes =
          Array.map (function Escaped e -> e.materialized | Virtual _ -> assert false) obj_states
        in
        let shape = shape_of obj_states.(0) in
        let all_equal = Array.for_all (fun n -> n = nodes.(0)) nodes in
        if all_equal && total_inputs = n_preds then
          merged := add !merged id (Escaped { e_shape = shape; materialized = nodes.(0) })
        else begin
          let phi = new_phi nodes in
          created := Mat_phi { obj = id; phi_out = phi } :: !created;
          merged := add !merged id (Escaped { e_shape = shape; materialized = phi.Node.id })
        end
      end)
    (surviving sts);
  (* --- input phis --- *)
  List.iter
    (fun (phi : Node.t) ->
      match phi.Node.op with
      | Node.Phi p ->
          let inputs = Array.init n_preds (fun i -> tr ctx p.Node.inputs.(i)) in
          let alias =
            if IntSet.mem phi.Node.id forced_value_phis then None
            else
              match inputs.(0) with
              | Pobj id0
                when Array.for_all
                       (function Pobj x -> x = id0 | Pnode _ | Pconst _ -> false)
                       inputs
                     && mem !merged id0 ->
                  Some id0
              | Pobj _ | Pnode _ | Pconst _ -> None
          in
          (match alias with
          | Some id0 ->
              (* Fig. 6c: the phi becomes an alias of the Id *)
              set_tr ctx phi.Node.id (Pobj id0)
          | None ->
              let fwd = Array.mapi (fun i v -> node_at ~reason:Event.R_merge_phi i v) inputs in
              let out_phi = new_phi fwd in
              created := Value_phi { phi_in = phi; phi_out = out_phi } :: !created;
              set_tr ctx phi.Node.id (Pnode out_phi.Node.id))
      | _ -> ())
    in_block.Graph.phis;
  (!merged, List.rev !created)

(* ------------------------------------------------------------------ *)
(* Block and loop processing (§5.4, Figure 7)                          *)
(* ------------------------------------------------------------------ *)

let no_forced_fields : (obj_id * int, unit) Hashtbl.t = Hashtbl.create 1

let process_body ctx bid (entry : Pea_state.t) =
  let ib = Graph.block ctx.in_g bid in
  let ob = out_block ctx bid in
  let sref = ref entry in
  Pea_support.Dyn_array.iter (fun n -> process_instr ctx ob sref n) ib.Graph.instrs;
  process_term ctx bid sref;
  ctx.end_states.(bid) <- Some !sref

let entry_state_of ctx bid =
  let ib = Graph.block ctx.in_g bid in
  match ib.Graph.preds with
  | [] -> Pea_state.empty
  | [ p ] -> end_state ctx p
  | preds ->
      let st, _ =
        merge_states ctx ~in_block:ib ~preds ~total_inputs:(List.length preds)
          ~forced_escapes:IntSet.empty ~forced_field_phis:no_forced_fields
          ~forced_value_phis:IntSet.empty
      in
      st

let process_block ctx bid = process_body ctx bid (entry_state_of ctx bid)

(* Output-graph snapshot for loop retries: instruction counts and phi
   lists per block. Nodes emitted by a discarded attempt become garbage in
   the node table, which is harmless. *)
type snapshot = {
  snap_instrs : int array;
  snap_phis : Node.t list array;
  snap_end_states : Pea_state.t option array;
      (* merge materialization mutates predecessor end states; a discarded
         loop attempt must roll those back together with the emitted
         nodes *)
}

let take_snapshot ctx =
  let n = Graph.n_blocks ctx.out_g in
  {
    snap_instrs =
      Array.init n (fun i -> Pea_support.Dyn_array.length (out_block ctx i).Graph.instrs);
    snap_phis = Array.init n (fun i -> (out_block ctx i).Graph.phis);
    snap_end_states = Array.copy ctx.end_states;
  }

let restore_snapshot ctx snap =
  let n = Graph.n_blocks ctx.out_g in
  for i = 0 to n - 1 do
    let b = out_block ctx i in
    Pea_support.Dyn_array.truncate b.Graph.instrs snap.snap_instrs.(i);
    b.Graph.phis <- snap.snap_phis.(i)
  done;
  Array.blit snap.snap_end_states 0 ctx.end_states 0 (Array.length snap.snap_end_states)


let rec process_loop ctx header ~mark =
  let loop =
    match Loops.find ctx.loops header with
    | Some l -> l
    | None -> fail "PEA: B%d is not a loop header" header
  in
  let members = IntSet.of_list loop.Loops.members in
  let in_header = Graph.block ctx.in_g header in
  let fwd_preds = List.filter (fun p -> not (IntSet.mem p members)) in_header.Graph.preds in
  let back_preds = List.filter (fun p -> IntSet.mem p members) in_header.Graph.preds in
  let n_fwd = List.length fwd_preds in
  if n_fwd = 0 then fail "PEA: loop header B%d has no forward predecessor" header;
  (* member blocks in reverse postorder, header first *)
  let rpo = Graph.reverse_postorder ctx.in_g in
  let members_rpo = List.filter (fun b -> IntSet.mem b members) rpo in
  let body_rpo = List.filter (fun b -> b <> header) members_rpo in
  (* speculation state: grows monotonically across attempts *)
  let spec_escapes = ref IntSet.empty in
  let spec_field_phis : (obj_id * int, unit) Hashtbl.t = Hashtbl.create 4 in
  let spec_value_phis = ref IntSet.empty in
  let snap = take_snapshot ctx in
  let attempts = ref 0 in
  let finished = ref false in
  while not !finished do
    incr attempts;
    if !attempts > 1000 then fail "PEA: loop fixpoint for B%d did not converge" header;
    (* 1. speculative entry state from the forward predecessors *)
    let entry, created =
      merge_states ctx ~in_block:in_header ~preds:fwd_preds
        ~total_inputs:(List.length in_header.Graph.preds) ~forced_escapes:!spec_escapes
        ~forced_field_phis:spec_field_phis ~forced_value_phis:!spec_value_phis
    in
    (* every phi created at a loop entry needs its back inputs later, so it
       also becomes part of the expected (speculative) state *)
    List.iter
      (fun c ->
        match c with
        | Field_phi { obj; field_idx; _ } -> Hashtbl.replace spec_field_phis (obj, field_idx) ()
        | Value_phi { phi_in; _ } -> spec_value_phis := IntSet.add phi_in.Node.id !spec_value_phis
        | Mat_phi _ -> ())
      created;
    (* 2. process the loop body with the speculative state *)
    process_body ctx header entry;
    let done_local = Hashtbl.create 8 in
    List.iter
      (fun b ->
        if not (Hashtbl.mem done_local b) then
          if Loops.is_header ctx.loops b then
            process_loop ctx b ~mark:(fun x -> Hashtbl.replace done_local x ())
          else begin
            process_block ctx b;
            Hashtbl.replace done_local b ()
          end)
      body_rpo;
    (* 3. validate the speculation against the back-edge states *)
    let grow = ref false in
    let force_escape_of id =
      if not (IntSet.mem id !spec_escapes) then begin
        spec_escapes := IntSet.add id !spec_escapes;
        grow := true
      end
    in
    let back_states = List.map (fun p -> end_state ctx p) back_preds in
    List.iter
      (fun id ->
        match find entry id with
        | Some (Virtual ve) ->
            List.iter
              (fun bs ->
                match find bs id with
                | None | Some (Escaped _) -> force_escape_of id
                | Some (Virtual vb) ->
                    if vb.lock_count <> ve.lock_count then force_escape_of id
                    else
                      Array.iteri
                        (fun idx bval ->
                          if not (Hashtbl.mem spec_field_phis (id, idx)) then
                            if not (equal_pvalue bval ve.fields.(idx)) then begin
                              Hashtbl.replace spec_field_phis (id, idx) ();
                              grow := true
                            end)
                        vb.fields)
              back_states
        | Some (Escaped _) | None -> ())
      (ids entry);
    (* Phi back-input values must not refer to loop-entry virtual objects,
       directly or through the fields of objects that will be materialized
       when the input is filled: materialization is transitive, and
       re-allocating an entry object on the back edge would duplicate
       allocations and break object identity across iterations. *)
    let check_phi_input bs pv =
      let seen = Hashtbl.create 4 in
      let rec walk pv =
        match pv with
        | Pnode _ | Pconst _ -> ()
        | Pobj x ->
            if not (Hashtbl.mem seen x) then begin
              Hashtbl.replace seen x ();
              match find bs x with
              | Some (Virtual v) ->
                  if mem entry x then force_escape_of x;
                  Array.iter walk v.fields
              | Some (Escaped _) | None -> ()
            end
      in
      walk pv
    in
    List.iter
      (fun c ->
        match c with
        | Value_phi { phi_in; _ } ->
            let p = match phi_in.Node.op with Node.Phi p -> p | _ -> assert false in
            List.iteri
              (fun i bp ->
                ignore bp;
                let input_idx = n_fwd + i in
                check_phi_input (List.nth back_states i) (tr ctx p.Node.inputs.(input_idx)))
              back_preds
        | Field_phi { obj; field_idx; _ } ->
            List.iter
              (fun bs ->
                match find bs obj with
                | Some (Virtual v) -> check_phi_input bs v.fields.(field_idx)
                | Some (Escaped _) | None -> ())
              back_states
        | Mat_phi _ -> ())
      created;
    (* aliased input phis must keep pointing at the same Id around the loop *)
    List.iter
      (fun (phi : Node.t) ->
        match phi.Node.op, tr ctx phi.Node.id with
        | Node.Phi p, Pobj id0 ->
            List.iteri
              (fun i _ ->
                let input_idx = n_fwd + i in
                match tr ctx p.Node.inputs.(input_idx) with
                | Pobj x when x = id0 -> ()
                | _ ->
                    if not (IntSet.mem phi.Node.id !spec_value_phis) then begin
                      spec_value_phis := IntSet.add phi.Node.id !spec_value_phis;
                      grow := true
                    end)
              back_preds
        | _ -> ())
      in_header.Graph.phis;
    if !grow then restore_snapshot ctx snap
    else begin
      (* 4. fixpoint reached: fill the back-edge inputs of created phis *)
      let fill (phi_out : Node.t) values =
        match phi_out.Node.op with
        | Node.Phi p ->
            List.iteri (fun i v -> p.Node.inputs.(n_fwd + i) <- v) values
        | _ -> assert false
      in
      let node_at_back ~reason i pv =
        let p = List.nth back_preds i in
        let sref = ref (end_state ctx p) in
        let n = node_of ctx (out_block ctx p) sref ~reason pv in
        ctx.end_states.(p) <- Some !sref;
        n
      in
      List.iter
        (fun c ->
          match c with
          | Value_phi { phi_in; phi_out } ->
              let p = match phi_in.Node.op with Node.Phi p -> p | _ -> assert false in
              fill phi_out
                (List.mapi
                   (fun i _ ->
                     node_at_back ~reason:Event.R_merge_phi i (tr ctx p.Node.inputs.(n_fwd + i)))
                   back_preds)
          | Field_phi { obj; field_idx; phi_out } ->
              fill phi_out
                (List.mapi
                   (fun i bp ->
                     let bs = end_state ctx bp in
                     match find bs obj with
                     | Some (Virtual v) -> node_at_back ~reason:Event.R_merge_field i v.fields.(field_idx)
                     | Some (Escaped _) | None ->
                         fail "PEA: loop object obj%d lost on the back edge" obj)
                   back_preds)
          | Mat_phi { obj; phi_out } ->
              fill phi_out
                (List.mapi
                   (fun i bp ->
                     let bs = end_state ctx bp in
                     match find bs obj with
                     | Some (Escaped e) -> e.materialized
                     | Some (Virtual _) | None ->
                         ignore i;
                         fail "PEA: escaped loop object obj%d not escaped on the back edge" obj)
                   back_preds))
        created;
      finished := true
    end
  done;
  IntSet.iter (fun b -> mark b) members

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let run ?(force_escape = fun _ -> false) ?(stack_eligible = fun _ -> false)
    ?(prune_dead_objects = true) ?summaries ?trace (in_g : Graph.t) : Graph.t * pass_stats =
  let doms = Dominators.compute in_g in
  let loops = Loops.compute in_g doms in
  let out_g = Graph.create in_g.Graph.g_method in
  out_g.Graph.g_osr_entry <- in_g.Graph.g_osr_entry;
  (* mirror the CFG *)
  Graph.iter_blocks
    (fun ib ->
      let ob = Graph.new_block ~kind:ib.Graph.kind out_g in
      assert (ob.Graph.b_id = ib.Graph.b_id);
      ob.Graph.preds <- ib.Graph.preds)
    in_g;
  let ctx =
    {
      in_g;
      out_g;
      vmap = Hashtbl.create 256;
      obj_ids = Pea_support.Fresh.create ();
      force_escape;
      stack_eligible;
      summaries;
      prune_dead_objects;
      end_states = Array.make (Graph.n_blocks in_g) None;
      loops;
      pstats = mk_stats ();
      aliases = Hashtbl.create 32;
      def_block = Hashtbl.create 64;
      used_from_cache = Hashtbl.create 16;
      meth = Pea_bytecode.Classfile.qualified_name in_g.Graph.g_method;
      trace;
      sites = Hashtbl.create 16;
      obj_site = Hashtbl.create 32;
    }
  in
  (* defining blocks of every input node, for the liveness queries *)
  Graph.iter_blocks
    (fun b ->
      List.iter (fun (n : Node.t) -> Hashtbl.replace ctx.def_block n.Node.id b.Graph.b_id) b.Graph.phis;
      Pea_support.Dyn_array.iter
        (fun (n : Node.t) -> Hashtbl.replace ctx.def_block n.Node.id b.Graph.b_id)
        b.Graph.instrs)
    in_g;
  (* parameters *)
  List.iter
    (fun (p : Node.t) ->
      match p.Node.op with
      | Node.Param i ->
          let q = Graph.add_param out_g i in
          set_tr ctx p.Node.id (Pnode q.Node.id)
      | _ -> assert false)
    in_g.Graph.params;
  let rpo = Graph.reverse_postorder in_g in
  let processed = Hashtbl.create 16 in
  List.iter
    (fun bid ->
      if not (Hashtbl.mem processed bid) then
        if Loops.is_header ctx.loops bid then
          process_loop ctx bid ~mark:(fun b -> Hashtbl.replace processed b ())
        else begin
          process_block ctx bid;
          Hashtbl.replace processed bid ()
        end)
    rpo;
  ctx.pstats.sites <-
    Hashtbl.fold (fun _ r acc -> r :: acc) ctx.sites []
    |> List.sort (fun a b -> compare a.site_node b.site_node);
  (out_g, ctx.pstats)
