(* Interprocedural escape summaries (see summary.mli).

   Per method we run a small flow-insensitive dataflow over its IR:

   - [alias]: for every node, the set of parameter indices whose value the
     node may be (through phis, casts and returned-argument calls).
   - [fresh]: whether the node's value is always a fresh, unaliased
     object (allocations, and calls whose callee returns fresh).

   A second pass over the same IR escalates the per-parameter facts
   (escape level, written, ref-loaded) and the method-level facts (pure,
   reads-heap, ret-fresh). The global fixpoint iterates methods from a
   worklist seeded with every method and re-enqueues callers whenever a
   callee's summary grows; all facts move one way on a finite lattice, so
   it terminates. It runs at the first query, not in [analyze]: a table
   that no compile asks about costs nothing. *)

open Pea_bytecode
open Pea_ir
module ISet = Set.Make (Int)

type escape_level = No_escape | Arg_escape | Global_escape

type param_summary = { ps_escape : escape_level; ps_written : bool; ps_ref_loaded : bool }

type method_summary = {
  s_params : param_summary array;
  s_ret_fresh : bool;
  s_pure : bool;
  s_reads_heap : bool;
}

type solution = {
  table : method_summary array; (* indexed by mth_id *)
  targets : Classfile.rt_method list array; (* CHA targets, indexed by mth_id *)
}

type t = {
  solution : solution Lazy.t; (* the whole-program fixpoint, run at the first query *)
  virtual_cache : (int, method_summary) Hashtbl.t;
}

let lvl_rank = function No_escape -> 0 | Arg_escape -> 1 | Global_escape -> 2

let lvl_join a b = if lvl_rank a >= lvl_rank b then a else b

let top_param = { ps_escape = Global_escape; ps_written = true; ps_ref_loaded = true }

let top n =
  { s_params = Array.make n top_param; s_ret_fresh = false; s_pure = false; s_reads_heap = true }

(* Optimistic starting point: nothing escapes, everything is pure; the
   fixpoint only ever escalates from here. *)
let optimistic (m : Classfile.rt_method) =
  let clean = { ps_escape = No_escape; ps_written = false; ps_ref_loaded = false } in
  {
    s_params = Array.make (Classfile.arity m) clean;
    s_ret_fresh = (match m.mth_ret with Some ty -> Pea_mjava.Ast.is_ref_ty ty | None -> false);
    s_pure = true;
    s_reads_heap = false;
  }

let join_param a b =
  {
    ps_escape = lvl_join a.ps_escape b.ps_escape;
    ps_written = a.ps_written || b.ps_written;
    ps_ref_loaded = a.ps_ref_loaded || b.ps_ref_loaded;
  }

let join_summary a b =
  let na = Array.length a.s_params and nb = Array.length b.s_params in
  if na <> nb then top (max na nb)
  else
    {
      s_params = Array.init na (fun i -> join_param a.s_params.(i) b.s_params.(i));
      s_ret_fresh = a.s_ret_fresh && b.s_ret_fresh;
      s_pure = a.s_pure && b.s_pure;
      s_reads_heap = a.s_reads_heap || b.s_reads_heap;
    }

let join_all arity = function
  | [] -> top arity
  | s :: rest -> List.fold_left join_summary s rest

(* ------------------------------------------------------------------ *)
(* Per-method transfer                                                 *)
(* ------------------------------------------------------------------ *)

(* Summary to assume at a call site during the fixpoint, reading the
   current (still-growing) table. *)
let site_summary table targets kind (m : Classfile.rt_method) =
  match (kind : Node.invoke_kind) with
  | Static | Special -> table.(m.mth_id)
  | Virtual ->
      join_all (Classfile.arity m)
        (List.map (fun (t : Classfile.rt_method) -> table.(t.mth_id)) targets.(m.mth_id))

(* Declared argument types of [m], including [this]. *)
let param_tys (m : Classfile.rt_method) =
  let tys =
    if m.mth_static then m.mth_params
    else Pea_mjava.Ast.Tclass m.mth_class.cls_name :: m.mth_params
  in
  Array.of_list tys

let summarize table targets (m : Classfile.rt_method) (g : Graph.t) =
  let nparams = Classfile.arity m in
  let tys = param_tys m in
  let n = Graph.n_nodes g in
  let alias = Array.make n ISet.empty in
  let fresh = Array.make n true in
  let live = Graph.reachable g in
  let changed = ref true in
  let set_alias id s =
    if not (ISet.subset s alias.(id)) then begin
      alias.(id) <- ISet.union alias.(id) s;
      changed := true
    end
  in
  let clear_fresh id cond =
    if fresh.(id) && not cond then begin
      fresh.(id) <- false;
      changed := true
    end
  in
  let transfer (nd : Node.t) =
    let id = nd.Node.id in
    match nd.Node.op with
    | Node.Param i ->
        set_alias id (ISet.singleton i);
        clear_fresh id false
    | Node.Phi p ->
        Array.iter (fun a -> set_alias id alias.(a)) p.Node.inputs;
        clear_fresh id (Array.for_all (fun a -> fresh.(a)) p.Node.inputs)
    | Node.Check_cast (a, _) ->
        set_alias id alias.(a);
        clear_fresh id fresh.(a)
    | Node.Invoke (k, m', args) ->
        let cs = site_summary table targets k m' in
        Array.iteri
          (fun j a ->
            if j < Array.length cs.s_params && cs.s_params.(j).ps_escape <> No_escape then
              set_alias id alias.(a))
          args;
        clear_fresh id cs.s_ret_fresh
    | Node.Load_field _ | Node.Load_static _ | Node.Array_load _ -> clear_fresh id false
    | _ -> ()
    (* allocations, constants and scalar ops: no parameter aliases, and
       "fresh" in the sense that they can never alias pre-existing heap *)
  in
  let iterate_values () =
    while !changed do
      changed := false;
      List.iter transfer g.Graph.params;
      Graph.iter_blocks
        (fun b ->
          if live.(b.Graph.b_id) then begin
            List.iter transfer b.Graph.phis;
            Pea_support.Dyn_array.iter transfer b.Graph.instrs
          end)
        g
    done
  in
  iterate_values ();
  (* Effects pass: escalate parameter and method facts. *)
  let esc = Array.make nparams No_escape in
  let written = Array.make nparams false in
  let ref_loaded = Array.make nparams false in
  let pure = ref true in
  let reads_heap = ref false in
  let ret_fresh =
    ref (match m.mth_ret with Some ty -> Pea_mjava.Ast.is_ref_ty ty | None -> false)
  in
  let escalate set lvl = ISet.iter (fun p -> esc.(p) <- lvl_join esc.(p) lvl) set in
  let mark arr set = ISet.iter (fun p -> arr.(p) <- true) set in
  let effect (nd : Node.t) =
    match nd.Node.op with
    | Node.Store_field (o, _, v) ->
        escalate alias.(v) Global_escape;
        mark written alias.(o);
        if not fresh.(o) then pure := false
    | Node.Array_store (a, _, v) ->
        escalate alias.(v) Global_escape;
        mark written alias.(a);
        if not fresh.(a) then pure := false
    | Node.Store_static (_, v) ->
        escalate alias.(v) Global_escape;
        pure := false
    | Node.Print v ->
        escalate alias.(v) Global_escape;
        pure := false
    | Node.Load_field (o, f) ->
        if Pea_mjava.Ast.is_ref_ty f.Classfile.fld_ty then mark ref_loaded alias.(o);
        if not fresh.(o) then reads_heap := true
    | Node.Load_static _ -> reads_heap := true
    | Node.Array_load (a, _) ->
        (* element-type ref-ness from the parameter's declared type *)
        ISet.iter
          (fun p ->
            match tys.(p) with
            | Pea_mjava.Ast.Tarray e -> if Pea_mjava.Ast.is_ref_ty e then ref_loaded.(p) <- true
            | _ -> ref_loaded.(p) <- true)
          alias.(a);
        if not fresh.(a) then reads_heap := true
    | Node.Invoke (k, m', args) ->
        let cs = site_summary table targets k m' in
        Array.iteri
          (fun j a ->
            let ps = if j < Array.length cs.s_params then cs.s_params.(j) else top_param in
            if ps.ps_escape = Global_escape then escalate alias.(a) Global_escape;
            if ps.ps_written then mark written alias.(a);
            if ps.ps_ref_loaded then mark ref_loaded alias.(a))
          args;
        if not cs.s_pure then pure := false;
        if cs.s_reads_heap then reads_heap := true
    | _ -> ()
  in
  let effect_term (b : Graph.block) =
    match b.Graph.term with
    | Graph.Return (Some v) ->
        escalate alias.(v) Arg_escape;
        if not fresh.(v) then ret_fresh := false
    | Graph.Deopt _ ->
        (* should not appear in freshly built graphs; be conservative *)
        pure := false;
        reads_heap := true;
        for p = 0 to nparams - 1 do
          esc.(p) <- Global_escape
        done
    | _ -> ()
  in
  Graph.iter_blocks
    (fun b ->
      if live.(b.Graph.b_id) then begin
        Pea_support.Dyn_array.iter effect b.Graph.instrs;
        effect_term b
      end)
    g;
  {
    s_params =
      Array.init nparams (fun i ->
          { ps_escape = esc.(i); ps_written = written.(i); ps_ref_loaded = ref_loaded.(i) });
    s_ret_fresh = !ret_fresh;
    s_pure = !pure;
    s_reads_heap = !reads_heap;
  }

(* ------------------------------------------------------------------ *)
(* Whole-program fixpoint                                              *)
(* ------------------------------------------------------------------ *)

let solve (program : Link.program) =
  let n = Array.length program.Link.methods in
  let table = Array.make n (top 0) in
  let targets = Array.map (fun m -> Link.cha_targets program m) program.Link.methods in
  (* IR of every analyzable method; the JIT bails out on methods that use
     exceptions, so a [top] summary there loses nothing. *)
  let graphs =
    Array.map
      (fun m ->
        if Classfile.uses_exceptions m then None
        else try Some (Builder.build m) with Builder.Build_error _ -> None)
      program.Link.methods
  in
  Array.iteri
    (fun i m ->
      table.(i) <-
        (match graphs.(i) with Some _ -> optimistic m | None -> top (Classfile.arity m)))
    program.Link.methods;
  (* Reverse call graph: callee id -> callers to re-enqueue on change. *)
  let dependents = Array.make n ISet.empty in
  Array.iteri
    (fun i g ->
      match g with
      | None -> ()
      | Some g ->
          Graph.iter_blocks
            (fun b ->
              Pea_support.Dyn_array.iter
                (fun (nd : Node.t) ->
                  match nd.Node.op with
                  | Node.Invoke (k, m', _) ->
                      let callees =
                        match (k : Node.invoke_kind) with
                        | Static | Special -> [ m' ]
                        | Virtual -> targets.(m'.Classfile.mth_id)
                      in
                      List.iter
                        (fun (c : Classfile.rt_method) ->
                          dependents.(c.mth_id) <- ISet.add i dependents.(c.mth_id))
                        callees
                  | _ -> ())
                b.Graph.instrs)
            g)
    graphs;
  let queue = Queue.create () in
  let queued = Array.make n false in
  let enqueue i =
    if (not queued.(i)) && graphs.(i) <> None then begin
      queued.(i) <- true;
      Queue.add i queue
    end
  in
  for i = 0 to n - 1 do
    enqueue i
  done;
  let guard = ref 0 in
  while not (Queue.is_empty queue) do
    incr guard;
    if !guard > 100 * (n + 1) * 8 then failwith "Summary: fixpoint did not converge";
    let i = Queue.pop queue in
    queued.(i) <- false;
    match graphs.(i) with
    | None -> ()
    | Some g ->
        let s = join_summary table.(i) (summarize table targets program.Link.methods.(i) g) in
        if s <> table.(i) then begin
          table.(i) <- s;
          ISet.iter enqueue dependents.(i)
        end
  done;
  { table; targets }

let analyze program = { solution = lazy (solve program); virtual_cache = Hashtbl.create 16 }

let solved t = Lazy.is_val t.solution

let of_method t (m : Classfile.rt_method) = (Lazy.force t.solution).table.(m.Classfile.mth_id)

let call_summary t kind (m : Classfile.rt_method) =
  match (kind : Node.invoke_kind) with
  | Static | Special -> of_method t m
  | Virtual -> (
      match Hashtbl.find_opt t.virtual_cache m.Classfile.mth_id with
      | Some s -> s
      | None ->
          let { table; targets } = Lazy.force t.solution in
          let s =
            join_all (Classfile.arity m)
              (List.map
                 (fun (tg : Classfile.rt_method) -> table.(tg.mth_id))
                 targets.(m.Classfile.mth_id))
          in
          Hashtbl.replace t.virtual_cache m.Classfile.mth_id s;
          s)

let exact_summary t (cls : Classfile.rt_class) (m : Classfile.rt_method) =
  match Classfile.resolve_method cls m.Classfile.mth_name with
  | Some tgt -> of_method t tgt
  | None -> top (Classfile.arity m)

let transparent ps = ps.ps_escape = No_escape && (not ps.ps_written)

let mergeable_call cs (m : Classfile.rt_method) =
  cs.s_pure
  && (not cs.s_reads_heap)
  && match m.mth_ret with Some Pea_mjava.Ast.Tint | Some Pea_mjava.Ast.Tbool -> true | _ -> false

let string_of_level = function
  | No_escape -> "no-escape"
  | Arg_escape -> "arg-escape"
  | Global_escape -> "global-escape"

let pp_summary fmt s =
  Format.fprintf fmt "params=[%s] ret_fresh=%b pure=%b reads_heap=%b"
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun ps ->
               Printf.sprintf "%s%s%s" (string_of_level ps.ps_escape)
                 (if ps.ps_written then ",written" else "")
                 (if ps.ps_ref_loaded then ",ref-loaded" else ""))
             s.s_params)))
    s.s_ret_fresh s.s_pure s.s_reads_heap

let pp_method t fmt (m : Classfile.rt_method) =
  Format.fprintf fmt "%s: %a" (Classfile.qualified_name m) pp_summary (of_method t m)
