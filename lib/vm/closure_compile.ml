(* The closure execution tier: a one-time translation of an optimized IR
   graph into a tree of OCaml closures. It is the only way compiled code
   runs; the interpreter is the semantic reference it is checked against
   (the differential properties, the deopt oracle and the fuzz farm).

   Everything that does not depend on the values flowing through one
   invocation is resolved once, at translation time:

     - Every instruction becomes a pre-bound [regs -> unit] closure with
       its operands, field offsets, class pointers and cost charges
       resolved at compile time; no per-op [Node.op] match at run time.
     - Every block fuses its instruction closures into one chain, followed
       by a terminator closure; control transfers are (tail) calls through
       a per-graph closure table, so loops run in constant stack space.
     - Phi routing comes from the graph's {!Ir_exec.prepared} tables: each
       [(pred, block)] edge becomes a parallel assignment over index
       arrays, with no predecessor search and no list allocation. The
       scratch buffer of the move belongs to this translation, never to
       the shared tables; reusing it across invocations is safe because
       the move performs no calls (no reentrancy) and a VM never runs on
       two domains at once.
     - Virtual [Invoke] sites get a monomorphic inline cache seeded from
       the interpreter's receiver profile: the fast path is one class-id
       check against a pre-resolved target; a miss falls back to
       {!Interp.dispatch_target} and rebiases the cache.
     - Register files are pooled per compiled method across invocations
       instead of [Array.make] per call (see the lifetime rules below).

   Cost accounting: every instruction closure charges [Cost.compiled_op]
   plus its operation-specific cost and one [compiled_ops], before the
   operation body, so an operation that traps is still charged; an [If]
   charges one [Cost.compiled_op]; edge moves and jumps charge nothing.
   Inline caches and register pooling are wall-clock optimizations only
   and add no model cycles. test/test_closure.ml pins the totals.

   Register-file lifetime rules: a register file is acquired from the pool
   on entry and released on normal return and on an MJ exception unwinding
   through this frame. A [Deopt] terminator is the delicate case: the
   [Deoptimize] exception carries a [regs]-backed lookup closure that
   {!Deopt.handle} consults after re-entrant interpreter execution, so the
   file must survive until the handler finishes. When the caller passes a
   [?deopt] handler, [run] invokes it in-frame and releases the file
   afterwards (the lookup closure is dead by then); without a handler the
   exception propagates and the file leaks with it — the VM always passes
   a handler. Released files keep their stale values; that is sound
   because SSA guarantees every read is dominated by a write in the same
   invocation, and frame states only reference dominating definitions
   (enforced by the IR checker). *)

open Pea_bytecode
open Pea_ir
open Pea_rt
open Value
module Event = Pea_obs.Event
module Trace = Pea_obs.Trace

type code = {
  nregs : int;
  param_ids : int array; (* Param node ids, in parameter order *)
  entry : Value.value array -> Value.value option;
  mutable pool : Value.value array list; (* free register files *)
  method_name : string; (* for trap messages *)
}

let trap fmt = Format.kasprintf (fun m -> raise (Interp.Trap m)) fmt

let as_int = function Vint n -> n | v -> trap "expected int, found %s" (string_of_value v)

let as_bool = function Vbool b -> b | v -> trap "expected boolean, found %s" (string_of_value v)

let const_value = Ir_exec.const_value

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let compile (env : Interp.env) (p : Ir_exec.prepared) : code =
  let g = p.Ir_exec.p_graph in
  let meth = Classfile.qualified_name g.Graph.g_method in
  let stats = env.Interp.stats in
  let heap = env.Interp.heap in
  let globals = env.Interp.globals in
  let profile = env.Interp.profile in
  let on_invoke = env.Interp.on_invoke in
  let on_print = env.Interp.on_print in
  (* the closure table control transfers jump through; filled below *)
  let bodies : (Value.value array -> Value.value option) array =
    Array.make (Graph.n_blocks g) (fun _ -> trap "closure tier: jump into an uncompiled block")
  in
  (* counter bumps shared by every instruction closure; [cy] is the full
     pre-resolved charge (base + operation-specific), applied before the
     operation body so a trapping operation is still charged *)
  let bump cy =
    Stats.incr stats Stats.compiled_ops;
    Stats.add stats Stats.cycles cy
  in
  let base = Cost.compiled_op in
  (* bytecode-site attribution, pre-resolved like every other operand so
     the profiler checks below cost one bool load when profiling is off *)
  let sites = p.Ir_exec.p_sites and block_bcis = p.Ir_exec.p_bcis in
  let build_args arg_ids regs =
    Array.fold_right (fun id acc -> regs.(id) :: acc) arg_ids []
  in
  let compile_instr (n : Node.t) : Value.value array -> unit =
    let dst = n.Node.id in
    match n.Node.op with
    | Node.Const c ->
        let value = const_value c in
        fun regs ->
          bump base;
          regs.(dst) <- value
    | Node.Param _ -> fun _ -> bump base (* bound at entry *)
    | Node.Phi _ -> assert false
    | Node.Arith (k, a, b) ->
        let f =
          match k with
          | Node.Add -> fun x y -> x + y
          | Node.Sub -> fun x y -> x - y
          | Node.Mul -> fun x y -> x * y
          | Node.Div -> fun x y -> if y = 0 then trap "division by zero" else x / y
          | Node.Rem -> fun x y -> if y = 0 then trap "division by zero" else x mod y
        in
        fun regs ->
          bump base;
          regs.(dst) <- Vint (f (as_int regs.(a)) (as_int regs.(b)))
    | Node.Neg a ->
        fun regs ->
          bump base;
          regs.(dst) <- Vint (-as_int regs.(a))
    | Node.Not a ->
        fun regs ->
          bump base;
          regs.(dst) <- Vbool (not (as_bool regs.(a)))
    | Node.Cmp (c, a, b) ->
        let f =
          match c with
          | Classfile.Clt -> fun x y -> x < y
          | Classfile.Cle -> fun x y -> x <= y
          | Classfile.Cgt -> fun x y -> x > y
          | Classfile.Cge -> fun x y -> x >= y
          | Classfile.Ceq -> fun x y -> x = y
          | Classfile.Cne -> fun x y -> x <> y
        in
        fun regs ->
          bump base;
          regs.(dst) <- Vbool (f (as_int regs.(a)) (as_int regs.(b)))
    | Node.RefCmp (c, a, b) -> (
        match c with
        | Classfile.AEq ->
            fun regs ->
              bump base;
              regs.(dst) <- Vbool (equal_value regs.(a) regs.(b))
        | Classfile.ANe ->
            fun regs ->
              bump base;
              regs.(dst) <- Vbool (not (equal_value regs.(a) regs.(b))))
    | Node.New cls ->
        let mid, bci = sites.(dst) in
        let cls_name = cls.Classfile.cls_name in
        let bytes = Value.object_bytes cls in
        fun regs ->
          bump base;
          if Pea_obs.Profile_heap.enabled () then
            Pea_obs.Profile_heap.record ~mid ~bci ~cls:cls_name
              ~kind:Pea_obs.Profile_heap.K_alloc ~bytes;
          regs.(dst) <- Vobj (Heap.alloc_object heap cls)
    | Node.Alloc (cls, field_values) ->
        let mid, bci = sites.(dst) in
        let cls_name = cls.Classfile.cls_name in
        let bytes = Value.object_bytes cls in
        fun regs ->
          bump base;
          if Pea_obs.Profile_heap.enabled () then
            Pea_obs.Profile_heap.record ~mid ~bci ~cls:cls_name
              ~kind:Pea_obs.Profile_heap.K_alloc ~bytes;
          let o = Heap.alloc_object heap cls in
          Array.iteri (fun i fv -> o.o_fields.(i) <- regs.(fv)) field_values;
          regs.(dst) <- Vobj o
    | Node.Alloc_array (elem, elem_values) ->
        let len = Array.length elem_values in
        let mid, bci = sites.(dst) in
        let arr_name = Pea_mjava.Ast.string_of_ty elem ^ "[]" in
        let bytes = Value.array_bytes elem len in
        fun regs -> (
          bump base;
          match Heap.alloc_array heap elem len with
          | arr ->
              if Pea_obs.Profile_heap.enabled () then
                Pea_obs.Profile_heap.record ~mid ~bci ~cls:arr_name
                  ~kind:Pea_obs.Profile_heap.K_alloc ~bytes;
              Array.iteri (fun i fv -> arr.a_elems.(i) <- regs.(fv)) elem_values;
              regs.(dst) <- Varr arr
          | exception Heap.Negative_array_size k -> trap "negative array size %d" k)
    | Node.Stack_alloc (k, cls, field_values) ->
        let mid, bci = sites.(dst) in
        let cls_name = cls.Classfile.cls_name in
        let bytes = Value.object_bytes cls in
        let kind, alloc =
          match k with
          | Node.Sk_scratch -> (Pea_obs.Profile_heap.K_scratch, Heap.alloc_object_scratch)
          | Node.Sk_frame -> (Pea_obs.Profile_heap.K_stack, Heap.alloc_object_stack)
        in
        fun regs ->
          bump base;
          if Pea_obs.Profile_heap.enabled () then
            Pea_obs.Profile_heap.record ~mid ~bci ~cls:cls_name ~kind ~bytes;
          let o = alloc heap cls in
          Array.iteri (fun i fv -> o.o_fields.(i) <- regs.(fv)) field_values;
          regs.(dst) <- Vobj o
    | Node.Stack_alloc_array (k, elem, elem_values) ->
        let len = Array.length elem_values in
        let mid, bci = sites.(dst) in
        let arr_name = Pea_mjava.Ast.string_of_ty elem ^ "[]" in
        let bytes = Value.array_bytes elem len in
        let kind, alloc =
          match k with
          | Node.Sk_scratch -> (Pea_obs.Profile_heap.K_scratch, Heap.alloc_array_scratch)
          | Node.Sk_frame -> (Pea_obs.Profile_heap.K_stack, Heap.alloc_array_stack)
        in
        fun regs ->
          bump base;
          if Pea_obs.Profile_heap.enabled () then
            Pea_obs.Profile_heap.record ~mid ~bci ~cls:arr_name ~kind ~bytes;
          let arr = alloc heap elem len in
          Array.iteri (fun i fv -> arr.a_elems.(i) <- regs.(fv)) elem_values;
          regs.(dst) <- Varr arr
    | Node.New_array (elem, len) ->
        let mid, bci = sites.(dst) in
        let arr_name = Pea_mjava.Ast.string_of_ty elem ^ "[]" in
        fun regs -> (
          bump base;
          match Heap.alloc_array heap elem (as_int regs.(len)) with
          | arr ->
              if Pea_obs.Profile_heap.enabled () then
                Pea_obs.Profile_heap.record ~mid ~bci ~cls:arr_name
                  ~kind:Pea_obs.Profile_heap.K_alloc
                  ~bytes:(Value.array_bytes elem (Array.length arr.a_elems));
              regs.(dst) <- Varr arr
          | exception Heap.Negative_array_size k -> trap "negative array size %d" k)
    | Node.Load_field (o, f) ->
        let off = f.Classfile.fld_offset in
        let name = f.Classfile.fld_name in
        let cy = base + Cost.field_access in
        fun regs -> (
          bump cy;
          match regs.(o) with
          | Vobj obj -> regs.(dst) <- obj.o_fields.(off)
          | Vnull -> trap "null dereference reading %s" name
          | _ -> trap "field load on a non-object")
    | Node.Store_field (o, f, x) ->
        let off = f.Classfile.fld_offset in
        let name = f.Classfile.fld_name in
        let cy = base + Cost.field_access in
        fun regs -> (
          bump cy;
          match regs.(o) with
          | Vobj obj -> obj.o_fields.(off) <- regs.(x)
          | Vnull -> trap "null dereference writing %s" name
          | _ -> trap "field store on a non-object")
    | Node.Load_static sf ->
        let idx = sf.Classfile.sf_index in
        let cy = base + Cost.static_access in
        fun regs ->
          bump cy;
          regs.(dst) <- globals.(idx)
    | Node.Store_static (sf, x) ->
        let idx = sf.Classfile.sf_index in
        let cy = base + Cost.static_access in
        fun regs ->
          bump cy;
          globals.(idx) <- regs.(x)
    | Node.Array_load (a, i) ->
        let cy = base + Cost.array_access in
        fun regs -> (
          bump cy;
          match regs.(a) with
          | Varr arr ->
              let idx = as_int regs.(i) in
              if idx < 0 || idx >= Array.length arr.a_elems then
                trap "array index %d out of bounds" idx;
              regs.(dst) <- arr.a_elems.(idx)
          | Vnull -> trap "null dereference at array load"
          | _ -> trap "array load on a non-array")
    | Node.Array_store (a, i, x) ->
        let cy = base + Cost.array_access in
        fun regs -> (
          bump cy;
          match regs.(a) with
          | Varr arr ->
              let idx = as_int regs.(i) in
              if idx < 0 || idx >= Array.length arr.a_elems then
                trap "array index %d out of bounds" idx;
              arr.a_elems.(idx) <- regs.(x)
          | Vnull -> trap "null dereference at array store"
          | _ -> trap "array store on a non-array")
    | Node.Array_length a ->
        fun regs -> (
          bump base;
          match regs.(a) with
          | Varr arr -> regs.(dst) <- Vint (Array.length arr.a_elems)
          | Vnull -> trap "null dereference at arraylength"
          | _ -> trap "arraylength on a non-array")
    | Node.Monitor_enter a ->
        fun regs -> (
          bump base;
          match regs.(a) with
          | Vnull -> trap "monitorenter on null"
          | x -> (
              match Heap.monitor_enter heap x with
              | () -> ()
              | exception Heap.Unbalanced_monitor msg -> trap "%s" msg))
    | Node.Monitor_exit a ->
        fun regs -> (
          bump base;
          match regs.(a) with
          | Vnull -> trap "monitorexit on null"
          | x -> (
              match Heap.monitor_exit heap x with
              | () -> ()
              | exception Heap.Unbalanced_monitor msg -> trap "%s" msg))
    | Node.Invoke (kind, callee, arg_ids) -> (
        let cy = base + Cost.invoke in
        match kind with
        | Node.Special ->
            fun regs ->
              bump cy;
              let args = build_args arg_ids regs in
              (match args with
              | Vnull :: _ -> trap "null receiver in constructor call"
              | _ -> ());
              ignore (on_invoke callee args)
        | Node.Static ->
            fun regs -> (
              bump cy;
              match on_invoke callee (build_args arg_ids regs) with
              | Some r -> regs.(dst) <- r
              | None -> ())
        | Node.Virtual ->
            (* monomorphic inline cache: (class id, pre-resolved target),
               seeded from the receiver classes the interpreter observed at
               this call site (the invoke's frame state records the state
               *after* the call, so the site itself is at [fs_bci - 1]) *)
            let seed =
              match n.Node.fs with
              | None -> None
              | Some fs -> (
                  match
                    Profile.hot_receiver profile fs.Frame_state.fs_method
                      ~bci:(fs.Frame_state.fs_bci - 1)
                  with
                  | None -> None
                  | Some cls -> (
                      match Classfile.resolve_method cls callee.Classfile.mth_name with
                      | Some target -> Some (cls, target)
                      | None -> None))
            in
            (match seed with
            | Some (cls, _) when Trace.enabled () ->
                Trace.record
                  (Event.Ic_transition
                     {
                       meth;
                       callee = callee.Classfile.mth_name;
                       cls = cls.Classfile.cls_name;
                       kind = Event.Ic_seed;
                     })
            | _ -> ());
            let ic =
              ref (Option.map (fun (cls, tgt) -> (cls.Classfile.cls_id, tgt)) seed)
            in
            fun regs ->
              bump cy;
              let args = build_args arg_ids regs in
              let recv = match args with r :: _ -> r | [] -> trap "missing receiver" in
              let target =
                match (recv, !ic) with
                | Vobj o, Some (cid, tgt) when o.o_cls.Classfile.cls_id = cid ->
                    Stats.incr stats Stats.ic_hits;
                    tgt
                | _ ->
                    Stats.incr stats Stats.ic_misses;
                    let tgt = Interp.dispatch_target recv callee in
                    (match recv with
                    | Vobj o ->
                        ic := Some (o.o_cls.Classfile.cls_id, tgt);
                        if Trace.enabled () then
                          Trace.record
                            (Event.Ic_transition
                               {
                                 meth;
                                 callee = callee.Classfile.mth_name;
                                 cls = o.o_cls.Classfile.cls_name;
                                 kind = Event.Ic_rebias;
                               })
                    | _ -> ());
                    tgt
              in
              (match on_invoke target args with
              | Some r -> regs.(dst) <- r
              | None -> ()))
    | Node.Instance_of (a, cls) ->
        fun regs ->
          bump base;
          regs.(dst) <- Vbool (Interp.value_instanceof regs.(a) cls)
    | Node.Has_class (a, cls) ->
        (* exact-class guard: no subclass walk, false for null and arrays *)
        let cid = cls.Classfile.cls_id in
        fun regs ->
          bump base;
          regs.(dst) <-
            Vbool
              (match regs.(a) with
              | Vobj o -> o.o_cls.Classfile.cls_id = cid
              | _ -> false)
    | Node.Check_cast (a, cls) ->
        let cls_name = cls.Classfile.cls_name in
        fun regs -> (
          bump base;
          match regs.(a) with
          | Vnull -> regs.(dst) <- Vnull
          | x ->
              if Interp.value_instanceof x cls then regs.(dst) <- x
              else trap "cannot cast %s to %s" (string_of_value x) cls_name)
    | Node.Null_check a ->
        fun regs ->
          bump base;
          (match regs.(a) with Vnull -> trap "null dereference" | _ -> ())
    | Node.Print a ->
        fun regs ->
          bump base;
          on_print regs.(a)
  in
  (* the (pred -> succ) control-transfer closure: the phi parallel move for
     that edge, read from the prepared routing tables, then the jump *)
  let compile_edge ~pred ~succ : Value.value array -> Value.value option =
    match p.Ir_exec.p_phis.(succ) with
    | None -> fun regs -> bodies.(succ) regs
    | Some pb ->
        let idx = pb.Ir_exec.pb_route.(pred) in
        if idx < 0 then fun _ -> trap "phi resolution: B%d is not a predecessor of B%d" pred succ
        else
          let dsts = pb.Ir_exec.pb_dsts and srcs = pb.Ir_exec.pb_srcs.(idx) in
          (* per-translation scratch: the move makes no calls *)
          let tmp = Array.make (Array.length dsts) Vnull in
          fun regs ->
            for i = 0 to Array.length srcs - 1 do
              tmp.(i) <- regs.(srcs.(i))
            done;
            for i = 0 to Array.length dsts - 1 do
              regs.(dsts.(i)) <- tmp.(i)
            done;
            bodies.(succ) regs
  in
  let compile_term (b : Graph.block) : Value.value array -> Value.value option =
    match b.Graph.term with
    | Graph.Return None -> fun _ -> None
    | Graph.Return (Some x) -> fun regs -> Some regs.(x)
    | Graph.Deopt d -> fun regs -> raise (Ir_exec.Deoptimize (d, fun id -> regs.(id)))
    | Graph.Trap msg -> fun _ -> trap "%s" msg
    | Graph.Unreachable -> fun _ -> trap "reached an Unreachable terminator"
    | Graph.Goto t -> compile_edge ~pred:b.Graph.b_id ~succ:t
    | Graph.If { cond; tru; fls; _ } ->
        let et = compile_edge ~pred:b.Graph.b_id ~succ:tru in
        let ef = compile_edge ~pred:b.Graph.b_id ~succ:fls in
        fun regs ->
          Stats.add stats Stats.cycles Cost.compiled_op;
          if as_bool regs.(cond) then et regs else ef regs
  in
  let reachable = Graph.reachable g in
  Graph.iter_blocks
    (fun b ->
      if reachable.(b.Graph.b_id) then begin
        let term = compile_term b in
        let fused =
          Pea_support.Dyn_array.fold_left
            (fun acc n ->
              let f = compile_instr n in
              match acc with
              | None -> Some f
              | Some chain ->
                  Some
                    (fun regs ->
                      chain regs;
                      f regs))
            None b.Graph.instrs
        in
        (* profiler safepoint on block entry, after the edge's phi move
           (which charges no cycles) *)
        let sample_bci = block_bcis.(b.Graph.b_id) in
        let inner =
          match fused with
          | None -> term
          | Some body ->
              fun regs ->
                body regs;
                term regs
        in
        bodies.(b.Graph.b_id) <-
          (fun regs ->
            if Pea_obs.Profile_cpu.enabled () then Pea_obs.Profile_cpu.poll sample_bci;
            inner regs)
      end)
    g;
  {
    nregs = max (Graph.n_nodes g) 1;
    param_ids = Array.of_list (List.map (fun (p : Node.t) -> p.Node.id) g.Graph.params);
    entry = bodies.(Graph.entry_id);
    pool = [];
    method_name = meth;
  }

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let pool_depth code = List.length code.pool

let run ?deopt (code : code) (args : Value.value list) : Value.value option =
  let regs =
    match code.pool with
    | [] -> Array.make code.nregs Vnull
    | a :: rest ->
        code.pool <- rest;
        a
  in
  let param_ids = code.param_ids in
  let n_params = Array.length param_ids in
  let rec bind i args =
    if i < n_params then
      match args with
      | v :: vs ->
          regs.(param_ids.(i)) <- v;
          bind (i + 1) vs
      | [] -> trap "missing argument %d for %s" i code.method_name
  in
  bind 0 args;
  match code.entry regs with
  | r ->
      code.pool <- regs :: code.pool;
      r
  | exception (Ir_exec.Deoptimize (d, lookup) as e) -> (
      match deopt with
      | Some handler ->
          (* [regs] stays live through the lookup closure until the handler
             returns (or raises through re-entrant interpretation); only
             then is it safe to put it back in the pool *)
          Fun.protect
            ~finally:(fun () -> code.pool <- regs :: code.pool)
            (fun () -> handler d lookup)
      | None ->
          (* no in-frame handler: the exception carries the [regs]-backed
             lookup out of this frame, so the file must leak with it *)
          raise e)
  | exception e ->
      code.pool <- regs :: code.pool;
      raise e
