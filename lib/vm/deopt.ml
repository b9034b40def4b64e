(* Deoptimization: transfer from compiled code back to the interpreter
   (§2, §5.5 of the paper).

   The frame state attached to the Deopt terminator describes the
   interpreter state (locals, operand stack, locks) for the innermost
   frame, with an [fs_outer] chain for inlined callers. Scalar-replaced
   allocations appear as [F_virtual] references with descriptors; they are
   rematerialized here — allocated for real, fields filled (two-phase, so
   cyclic structures work), and re-locked — before the interpreter
   resumes. *)

open Pea_bytecode
open Pea_ir
open Pea_rt
open Value
module Event = Pea_obs.Event
module Trace = Pea_obs.Trace

(* Collect every virtual-object descriptor reachable from the frame-state
   chain (innermost state holds them all in this implementation, but be
   robust and walk the chain). *)
let collect_virtuals (fs : Frame_state.t) =
  let table = Hashtbl.create 8 in
  let rec walk fs =
    List.iter
      (fun (id, vd) -> if not (Hashtbl.mem table id) then Hashtbl.replace table id vd)
      fs.Frame_state.fs_virtuals;
    Option.iter walk fs.Frame_state.fs_outer
  in
  walk fs;
  table

(* [handle env d lookup] rematerializes virtual objects, reconstructs the
   interpreter frames described by [d.d_state], executes them
   innermost-first and returns the result of the outermost frame (the
   compiled method). With [oracle] set, the rematerialized state is
   bisimulation-checked against a shadow interpreter replay before any
   frame runs. *)
let handle ?(reason = "speculation-failed") ?(oracle : Oracle.t option) (env : Interp.env)
    (d : Graph.deopt) (lookup : Node.node_id -> Value.value) : Value.value option =
  let fs = d.Graph.d_state in
  let stats = env.Interp.stats in
  let trace = env.Interp.instruments.Pea_obs.Instruments.trace in
  Stats.incr stats Stats.deopts;
  Stats.add stats Stats.cycles Cost.deopt;
  (* --- rematerialize --- *)
  let descriptors = collect_virtuals fs in
  let objects : (Frame_state.virt_id, Value.value) Hashtbl.t = Hashtbl.create 8 in
  (* rematerializations and promotions are recorded at the deopt site
     (innermost frame): the bytecode position the allocations reappear
     at, which is what "42 remat at C.m@12" should mean in a report *)
  let heap = env.Interp.heap in
  let mid = fs.Frame_state.fs_method.Classfile.mth_id and bci = fs.Frame_state.fs_bci in
  Hashtbl.iter
    (fun id (vd : Frame_state.virtual_desc) ->
      let v =
        match vd.Frame_state.vd_shape with
        | Frame_state.Obj_shape cls -> Vobj (Heap.remat_object heap ~mid ~bci cls)
        | Frame_state.Arr_shape elem ->
            Varr (Heap.remat_array heap ~mid ~bci elem (Array.length vd.Frame_state.vd_fields))
      in
      Stats.incr stats Stats.rematerialized;
      Hashtbl.replace objects id v)
    descriptors;
  let resolve (fv : Frame_state.fs_value) : Value.value =
    match fv with
    | Frame_state.F_node n -> lookup n
    | Frame_state.F_const c -> Ir_exec.const_value c
    | Frame_state.F_virtual id -> (
        match Hashtbl.find_opt objects id with
        | Some v -> v
        | None -> raise (Interp.Trap (Printf.sprintf "deopt: no descriptor for virt%d" id)))
  in
  Hashtbl.iter
    (fun id (vd : Frame_state.virtual_desc) ->
      (* fill fields/elements and restore elided locks *)
      (match Hashtbl.find objects id with
      | Vobj o ->
          Array.iteri (fun i fv -> o.o_fields.(i) <- resolve fv) vd.Frame_state.vd_fields;
          o.o_lock <- vd.Frame_state.vd_lock
      | Varr a ->
          Array.iteri (fun i fv -> a.a_elems.(i) <- resolve fv) vd.Frame_state.vd_fields;
          a.a_lock <- vd.Frame_state.vd_lock
      | Vint _ | Vbool _ | Vnull -> assert false);
      Stats.add stats Stats.monitor_ops vd.Frame_state.vd_lock)
    descriptors;
  Stats.observe stats Stats.remat_per_deopt (Hashtbl.length descriptors);
  (* --- promote live stack objects to the heap --- *)
  (* The compiled activation's stack region is reclaimed when this deopt
     unwinds out of it, but every value reachable from the reconstructed
     interpreter state survives into the interpreter — which may return
     or store it anywhere. Walk everything the state can reach
     (rematerialized fields included: remat objects are heap-allocated
     but may point at stack objects) and promote each live stack-region
     object: the heap charges the allocation the stack tier elided,
     clears its region marker so the enclosing pop skips it, and records
     it at the deopt site like a rematerialization. *)
  let visited_o = ref [] and visited_a = ref [] in
  let rec promote_value (v : Value.value) =
    match v with
    | Vobj o ->
        if not (List.memq o !visited_o) then begin
          visited_o := o :: !visited_o;
          Heap.promote heap ~mid ~bci v;
          Array.iter promote_value o.o_fields
        end
    | Varr a ->
        if not (List.memq a !visited_a) then begin
          visited_a := a :: !visited_a;
          Heap.promote heap ~mid ~bci v;
          Array.iter promote_value a.a_elems
        end
    | Vint _ | Vbool _ | Vnull -> ()
  in
  Frame_state.iter_values (fun fv -> promote_value (resolve fv)) fs;
  (* --- bisimulation oracle: validate the rematerialized state before
     any reconstructed frame executes --- *)
  (match oracle with
  | Some sn -> Oracle.check sn ~env ~deopt:d ~resolve
  | None -> ());
  (match trace with
  | Some t ->
      Trace.emit t
        (Event.Deopt
           {
             meth = Classfile.qualified_name fs.Frame_state.fs_method;
             bci = fs.Frame_state.fs_bci;
             reason;
             rematerialized = Hashtbl.length descriptors;
           })
  | None -> ());
  (* --- run the frames, innermost first --- *)
  let frames =
    let rec chain fs = fs :: (match fs.Frame_state.fs_outer with None -> [] | Some o -> chain o) in
    chain fs
  in
  let run_frame (fs : Frame_state.t) ~(extra : Value.value option) =
    let m = fs.Frame_state.fs_method in
    let locals = Array.make (max m.Classfile.mth_max_locals (Array.length fs.Frame_state.fs_locals)) Vnull in
    Array.iteri (fun i fv -> locals.(i) <- resolve fv) fs.Frame_state.fs_locals;
    let stack = List.map resolve fs.Frame_state.fs_stack in
    (* the value returned by the inlined callee is pushed on resume *)
    let stack = match extra with Some v -> v :: stack | None -> stack in
    Interp.resume env m ~locals ~stack ~bci:fs.Frame_state.fs_bci
  in
  let rec execute frames (incoming : Value.value option) =
    match frames with
    | [] -> assert false
    | [ outermost ] -> run_frame outermost ~extra:incoming
    | inner :: rest ->
        let r = run_frame inner ~extra:incoming in
        let passed =
          if inner.Frame_state.fs_method.Classfile.mth_ret <> None then
            Some (match r with Some v -> v | None -> raise (Interp.Trap "deopt: missing return value"))
          else None
        in
        execute rest passed
  in
  execute frames None
