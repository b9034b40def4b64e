(* The closure execution tier: a one-time translation of an optimized IR
   graph into a tree of OCaml closures. It is the only way compiled code
   runs; the interpreter is the semantic reference it is checked against
   (the differential properties, the deopt oracle and the fuzz farm).

   Everything that does not depend on the values flowing through one
   invocation is resolved once, at translation time, and the fast path of
   an operation makes no call it does not need:

     - Every instruction becomes a pre-bound closure with its operands,
       field offsets, class pointers and cost charges resolved at compile
       time; no per-op [Node.op] match at run time. Each closure ends by
       tail-calling the closure of the next instruction, so a block is one
       threaded chain ending in its terminator; control transfers are tail
       calls through a per-graph closure table, so loops run in constant
       stack space.
     - [Arith], [Cmp] and [Not] get one closure per operator, whose fast
       path matches the [Vint]/[Vbool] operands directly; any other operand
       falls back to the [as_int]/[as_bool] trap. A comparison returns one
       of two shared booleans ([vtrue], [vfalse]) instead of allocating,
       and an [If] matches its condition directly.
     - The [compiled_ops] and [cycles] counters are resolved to their
       storage cells ({!Stats.cell}) once per translation and bumped in
       place. The dev profile compiles every module that has an [.mli]
       with [-opaque], so a [Stats] call here would never be inlined: it
       would be two unknown calls per operation.
     - Phi routing comes from the graph's {!Ir_exec.prepared} tables: each
       [(pred, block)] edge becomes a parallel assignment over index
       arrays, with no predecessor search and no list allocation. Edges
       with one or two phis move their values directly; longer moves go
       through a scratch buffer that belongs to this translation, never to
       the shared tables. Reusing it across invocations is safe because
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
module Profile_cpu = Pea_obs.Profile_cpu
module Profile_heap = Pea_obs.Profile_heap

(* compiled code from one instruction (or terminator) of a block to the
   end of the invocation *)
type chain = Value.value array -> Value.value option

type code = {
  nregs : int;
  param_ids : int array; (* Param node ids, in parameter order *)
  entry : chain;
  mutable pool : Value.value array list; (* free register files *)
  method_name : string; (* for trap messages *)
}

let trap fmt = Format.kasprintf (fun m -> raise (Interp.Trap m)) fmt

let as_int = function Vint n -> n | v -> trap "expected int, found %s" (string_of_value v)

let as_bool = function Vbool b -> b | v -> trap "expected boolean, found %s" (string_of_value v)

let const_value = Ir_exec.const_value

(* the two booleans compiled code produces *)
let vtrue = Vbool true

let vfalse = Vbool false

(* The trap of an int operation whose operands are not both ints. The
   message names the right operand if it is not an int, else the left:
   the generic path converted the right operand first. *)
let int_operands va vb =
  trap "expected int, found %s" (string_of_value (match vb with Vint _ -> va | _ -> vb))

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
  let bodies : chain array =
    Array.make (Graph.n_blocks g) (fun _ -> trap "closure tier: jump into an uncompiled block")
  in
  (* the counter bump every instruction closure starts with: [cy] is the
     full pre-resolved charge (base + operation-specific), applied before
     the operation body so a trapping operation is still charged *)
  let ops_cell, ops = Stats.cell stats Stats.compiled_ops in
  let cycles_cell, cycles = Stats.cell stats Stats.cycles in
  let[@inline] bump cy =
    ops_cell.(ops) <- ops_cell.(ops) + 1;
    cycles_cell.(cycles) <- cycles_cell.(cycles) + cy
  in
  let base = Cost.compiled_op in
  (* bytecode-site attribution, pre-resolved like every other operand so
     the profiler checks below cost one bool load when profiling is off *)
  let sites = p.Ir_exec.p_sites and block_bcis = p.Ir_exec.p_bcis in
  let build_args arg_ids regs =
    let rec go i acc = if i < 0 then acc else go (i - 1) (regs.(arg_ids.(i)) :: acc) in
    go (Array.length arg_ids - 1) []
  in
  (* monomorphic inline caches, one per virtual call site: (class id,
     pre-resolved target), seeded from the receiver classes the
     interpreter observed at the site (the invoke's frame state records
     the state *after* the call, so the site itself is at [fs_bci - 1]) *)
  let ics = Array.make (Graph.n_nodes g) None in
  let seed_ic (n : Node.t) (callee : Classfile.rt_method) =
    let seed =
      match n.Node.fs with
      | None -> None
      | Some fs -> (
          match
            Profile.hot_receiver profile fs.Frame_state.fs_method ~bci:(fs.Frame_state.fs_bci - 1)
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
    ics.(n.Node.id) <- Some (ref (Option.map (fun (cls, tgt) -> (cls.Classfile.cls_id, tgt)) seed))
  in
  let compile_instr (n : Node.t) (next : chain) : chain =
    let dst = n.Node.id in
    match n.Node.op with
    | Node.Const c ->
        let value = const_value c in
        fun regs ->
          bump base;
          regs.(dst) <- value;
          next regs
    | Node.Param _ ->
        (* bound at entry *)
        fun regs ->
          bump base;
          next regs
    | Node.Phi _ -> assert false
    | Node.Arith (k, a, b) -> (
        match k with
        | Node.Add ->
            fun regs ->
              bump base;
              (match (regs.(a), regs.(b)) with
              | Vint x, Vint y -> regs.(dst) <- Vint (x + y)
              | va, vb -> int_operands va vb);
              next regs
        | Node.Sub ->
            fun regs ->
              bump base;
              (match (regs.(a), regs.(b)) with
              | Vint x, Vint y -> regs.(dst) <- Vint (x - y)
              | va, vb -> int_operands va vb);
              next regs
        | Node.Mul ->
            fun regs ->
              bump base;
              (match (regs.(a), regs.(b)) with
              | Vint x, Vint y -> regs.(dst) <- Vint (x * y)
              | va, vb -> int_operands va vb);
              next regs
        | Node.Div ->
            fun regs ->
              bump base;
              (match (regs.(a), regs.(b)) with
              | Vint _, Vint 0 -> trap "division by zero"
              | Vint x, Vint y -> regs.(dst) <- Vint (x / y)
              | va, vb -> int_operands va vb);
              next regs
        | Node.Rem ->
            fun regs ->
              bump base;
              (match (regs.(a), regs.(b)) with
              | Vint _, Vint 0 -> trap "division by zero"
              | Vint x, Vint y -> regs.(dst) <- Vint (x mod y)
              | va, vb -> int_operands va vb);
              next regs)
    | Node.Neg a ->
        fun regs ->
          bump base;
          (regs.(dst) <- (match regs.(a) with Vint x -> Vint (-x) | v -> Vint (-as_int v)));
          next regs
    | Node.Not a ->
        fun regs ->
          bump base;
          (regs.(dst) <-
             (match regs.(a) with
             | Vbool true -> vfalse
             | Vbool false -> vtrue
             | v -> Vbool (not (as_bool v))));
          next regs
    | Node.Cmp (c, a, b) -> (
        match c with
        | Classfile.Clt ->
            fun regs ->
              bump base;
              (regs.(dst) <-
                 (match (regs.(a), regs.(b)) with
                 | Vint x, Vint y -> if x < y then vtrue else vfalse
                 | va, vb -> int_operands va vb));
              next regs
        | Classfile.Cle ->
            fun regs ->
              bump base;
              (regs.(dst) <-
                 (match (regs.(a), regs.(b)) with
                 | Vint x, Vint y -> if x <= y then vtrue else vfalse
                 | va, vb -> int_operands va vb));
              next regs
        | Classfile.Cgt ->
            fun regs ->
              bump base;
              (regs.(dst) <-
                 (match (regs.(a), regs.(b)) with
                 | Vint x, Vint y -> if x > y then vtrue else vfalse
                 | va, vb -> int_operands va vb));
              next regs
        | Classfile.Cge ->
            fun regs ->
              bump base;
              (regs.(dst) <-
                 (match (regs.(a), regs.(b)) with
                 | Vint x, Vint y -> if x >= y then vtrue else vfalse
                 | va, vb -> int_operands va vb));
              next regs
        (* [==] and [!=] also compare two booleans, by value *)
        | Classfile.Ceq ->
            fun regs ->
              bump base;
              (regs.(dst) <-
                 (match (regs.(a), regs.(b)) with
                 | Vint x, Vint y -> if x = y then vtrue else vfalse
                 | Vbool x, Vbool y -> if x = y then vtrue else vfalse
                 | va, vb -> int_operands va vb));
              next regs
        | Classfile.Cne ->
            fun regs ->
              bump base;
              (regs.(dst) <-
                 (match (regs.(a), regs.(b)) with
                 | Vint x, Vint y -> if x <> y then vtrue else vfalse
                 | Vbool x, Vbool y -> if x <> y then vtrue else vfalse
                 | va, vb -> int_operands va vb));
              next regs)
    | Node.RefCmp (c, a, b) -> (
        match c with
        | Classfile.AEq ->
            fun regs ->
              bump base;
              (regs.(dst) <- (if equal_value regs.(a) regs.(b) then vtrue else vfalse));
              next regs
        | Classfile.ANe ->
            fun regs ->
              bump base;
              (regs.(dst) <- (if equal_value regs.(a) regs.(b) then vfalse else vtrue));
              next regs)
    | Node.New cls ->
        let mid, bci = sites.(dst) in
        let cls_name = cls.Classfile.cls_name in
        let bytes = Value.object_bytes cls in
        fun regs ->
          bump base;
          if Profile_heap.enabled () then
            Profile_heap.record ~mid ~bci ~cls:cls_name ~kind:Profile_heap.K_alloc ~bytes;
          regs.(dst) <- Vobj (Heap.alloc_object heap cls);
          next regs
    | Node.Alloc (cls, field_values) ->
        let mid, bci = sites.(dst) in
        let cls_name = cls.Classfile.cls_name in
        let bytes = Value.object_bytes cls in
        fun regs ->
          bump base;
          if Profile_heap.enabled () then
            Profile_heap.record ~mid ~bci ~cls:cls_name ~kind:Profile_heap.K_alloc ~bytes;
          let o = Heap.alloc_object heap cls in
          for i = 0 to Array.length field_values - 1 do
            o.o_fields.(i) <- regs.(field_values.(i))
          done;
          regs.(dst) <- Vobj o;
          next regs
    | Node.Alloc_array (elem, elem_values) ->
        let len = Array.length elem_values in
        let mid, bci = sites.(dst) in
        let arr_name = Pea_mjava.Ast.string_of_ty elem ^ "[]" in
        let bytes = Value.array_bytes elem len in
        fun regs ->
          bump base;
          (match Heap.alloc_array heap elem len with
          | arr ->
              if Profile_heap.enabled () then
                Profile_heap.record ~mid ~bci ~cls:arr_name ~kind:Profile_heap.K_alloc ~bytes;
              for i = 0 to len - 1 do
                arr.a_elems.(i) <- regs.(elem_values.(i))
              done;
              regs.(dst) <- Varr arr
          | exception Heap.Negative_array_size k -> trap "negative array size %d" k);
          next regs
    | Node.Stack_alloc (k, cls, field_values) ->
        let mid, bci = sites.(dst) in
        let cls_name = cls.Classfile.cls_name in
        let bytes = Value.object_bytes cls in
        let kind, alloc =
          match k with
          | Node.Sk_scratch -> (Profile_heap.K_scratch, Heap.alloc_object_scratch)
          | Node.Sk_frame -> (Profile_heap.K_stack, Heap.alloc_object_stack)
        in
        fun regs ->
          bump base;
          if Profile_heap.enabled () then
            Profile_heap.record ~mid ~bci ~cls:cls_name ~kind ~bytes;
          let o = alloc heap cls in
          for i = 0 to Array.length field_values - 1 do
            o.o_fields.(i) <- regs.(field_values.(i))
          done;
          regs.(dst) <- Vobj o;
          next regs
    | Node.Stack_alloc_array (k, elem, elem_values) ->
        let len = Array.length elem_values in
        let mid, bci = sites.(dst) in
        let arr_name = Pea_mjava.Ast.string_of_ty elem ^ "[]" in
        let bytes = Value.array_bytes elem len in
        let kind, alloc =
          match k with
          | Node.Sk_scratch -> (Profile_heap.K_scratch, Heap.alloc_array_scratch)
          | Node.Sk_frame -> (Profile_heap.K_stack, Heap.alloc_array_stack)
        in
        fun regs ->
          bump base;
          if Profile_heap.enabled () then
            Profile_heap.record ~mid ~bci ~cls:arr_name ~kind ~bytes;
          let arr = alloc heap elem len in
          for i = 0 to len - 1 do
            arr.a_elems.(i) <- regs.(elem_values.(i))
          done;
          regs.(dst) <- Varr arr;
          next regs
    | Node.New_array (elem, len) ->
        let mid, bci = sites.(dst) in
        let arr_name = Pea_mjava.Ast.string_of_ty elem ^ "[]" in
        fun regs ->
          bump base;
          (match Heap.alloc_array heap elem (as_int regs.(len)) with
          | arr ->
              if Profile_heap.enabled () then
                Profile_heap.record ~mid ~bci ~cls:arr_name ~kind:Profile_heap.K_alloc
                  ~bytes:(Value.array_bytes elem (Array.length arr.a_elems));
              regs.(dst) <- Varr arr
          | exception Heap.Negative_array_size k -> trap "negative array size %d" k);
          next regs
    | Node.Load_field (o, f) ->
        let off = f.Classfile.fld_offset in
        let name = f.Classfile.fld_name in
        let cy = base + Cost.field_access in
        fun regs ->
          bump cy;
          (match regs.(o) with
          | Vobj obj -> regs.(dst) <- obj.o_fields.(off)
          | Vnull -> trap "null dereference reading %s" name
          | _ -> trap "field load on a non-object");
          next regs
    | Node.Store_field (o, f, x) ->
        let off = f.Classfile.fld_offset in
        let name = f.Classfile.fld_name in
        let cy = base + Cost.field_access in
        fun regs ->
          bump cy;
          (match regs.(o) with
          | Vobj obj -> obj.o_fields.(off) <- regs.(x)
          | Vnull -> trap "null dereference writing %s" name
          | _ -> trap "field store on a non-object");
          next regs
    | Node.Load_static sf ->
        let idx = sf.Classfile.sf_index in
        let cy = base + Cost.static_access in
        fun regs ->
          bump cy;
          regs.(dst) <- globals.(idx);
          next regs
    | Node.Store_static (sf, x) ->
        let idx = sf.Classfile.sf_index in
        let cy = base + Cost.static_access in
        fun regs ->
          bump cy;
          globals.(idx) <- regs.(x);
          next regs
    | Node.Array_load (a, i) ->
        let cy = base + Cost.array_access in
        fun regs ->
          bump cy;
          (match regs.(a) with
          | Varr arr ->
              let idx = as_int regs.(i) in
              if idx < 0 || idx >= Array.length arr.a_elems then
                trap "array index %d out of bounds" idx;
              regs.(dst) <- arr.a_elems.(idx)
          | Vnull -> trap "null dereference at array load"
          | _ -> trap "array load on a non-array");
          next regs
    | Node.Array_store (a, i, x) ->
        let cy = base + Cost.array_access in
        fun regs ->
          bump cy;
          (match regs.(a) with
          | Varr arr ->
              let idx = as_int regs.(i) in
              if idx < 0 || idx >= Array.length arr.a_elems then
                trap "array index %d out of bounds" idx;
              arr.a_elems.(idx) <- regs.(x)
          | Vnull -> trap "null dereference at array store"
          | _ -> trap "array store on a non-array");
          next regs
    | Node.Array_length a ->
        fun regs ->
          bump base;
          (match regs.(a) with
          | Varr arr -> regs.(dst) <- Vint (Array.length arr.a_elems)
          | Vnull -> trap "null dereference at arraylength"
          | _ -> trap "arraylength on a non-array");
          next regs
    | Node.Monitor_enter a ->
        fun regs ->
          bump base;
          (match regs.(a) with
          | Vnull -> trap "monitorenter on null"
          | x -> (
              match Heap.monitor_enter heap x with
              | () -> ()
              | exception Heap.Unbalanced_monitor msg -> trap "%s" msg));
          next regs
    | Node.Monitor_exit a ->
        fun regs ->
          bump base;
          (match regs.(a) with
          | Vnull -> trap "monitorexit on null"
          | x -> (
              match Heap.monitor_exit heap x with
              | () -> ()
              | exception Heap.Unbalanced_monitor msg -> trap "%s" msg));
          next regs
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
              ignore (on_invoke callee args);
              next regs
        | Node.Static ->
            fun regs ->
              bump cy;
              (match on_invoke callee (build_args arg_ids regs) with
              | Some r -> regs.(dst) <- r
              | None -> ());
              next regs
        | Node.Virtual ->
            let ic = Option.get ics.(dst) in
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
              | None -> ());
              next regs)
    | Node.Instance_of (a, cls) ->
        fun regs ->
          bump base;
          (regs.(dst) <- (if Interp.value_instanceof regs.(a) cls then vtrue else vfalse));
          next regs
    | Node.Has_class (a, cls) ->
        (* exact-class guard: no subclass walk, false for null and arrays *)
        let cid = cls.Classfile.cls_id in
        fun regs ->
          bump base;
          (regs.(dst) <-
             (match regs.(a) with
             | Vobj o when o.o_cls.Classfile.cls_id = cid -> vtrue
             | _ -> vfalse));
          next regs
    | Node.Check_cast (a, cls) ->
        let cls_name = cls.Classfile.cls_name in
        fun regs ->
          bump base;
          (match regs.(a) with
          | Vnull -> regs.(dst) <- Vnull
          | x ->
              if Interp.value_instanceof x cls then regs.(dst) <- x
              else trap "cannot cast %s to %s" (string_of_value x) cls_name);
          next regs
    | Node.Null_check a ->
        fun regs ->
          bump base;
          (match regs.(a) with Vnull -> trap "null dereference" | _ -> ());
          next regs
    | Node.Print a ->
        fun regs ->
          bump base;
          on_print regs.(a);
          next regs
  in
  (* the (pred -> succ) control-transfer closure: the phi parallel move for
     that edge, read from the prepared routing tables, then the jump *)
  let compile_edge ~pred ~succ : chain =
    match p.Ir_exec.p_phis.(succ) with
    | None -> fun regs -> bodies.(succ) regs
    | Some pb -> (
        let idx = pb.Ir_exec.pb_route.(pred) in
        if idx < 0 then fun _ -> trap "phi resolution: B%d is not a predecessor of B%d" pred succ
        else
          let dsts = pb.Ir_exec.pb_dsts and srcs = pb.Ir_exec.pb_srcs.(idx) in
          match (dsts, srcs) with
          | [| d |], [| s |] ->
              fun regs ->
                regs.(d) <- regs.(s);
                bodies.(succ) regs
          | [| d0; d1 |], [| s0; s1 |] ->
              (* both sources are read before either phi is written: the
                 pair may be a swap *)
              fun regs ->
                let v0 = regs.(s0) and v1 = regs.(s1) in
                regs.(d0) <- v0;
                regs.(d1) <- v1;
                bodies.(succ) regs
          | _ ->
              (* per-translation scratch: the move makes no calls *)
              let tmp = Array.make (Array.length dsts) Vnull in
              fun regs ->
                for i = 0 to Array.length srcs - 1 do
                  tmp.(i) <- regs.(srcs.(i))
                done;
                for i = 0 to Array.length dsts - 1 do
                  regs.(dsts.(i)) <- tmp.(i)
                done;
                bodies.(succ) regs)
  in
  let compile_term (b : Graph.block) : chain =
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
        fun regs -> (
          cycles_cell.(cycles) <- cycles_cell.(cycles) + base;
          match regs.(cond) with
          | Vbool true -> et regs
          | Vbool false -> ef regs
          | v -> if as_bool v then et regs else ef regs)
  in
  let reachable = Graph.reachable g in
  Graph.iter_blocks
    (fun b ->
      if reachable.(b.Graph.b_id) then begin
        let instrs = Pea_support.Dyn_array.to_list b.Graph.instrs in
        (* the chain is linked from its terminator backwards; the inline
           caches are seeded first, in instruction order, which is the
           order the trace sees their seed events in *)
        List.iter
          (fun (n : Node.t) ->
            match n.Node.op with
            | Node.Invoke (Node.Virtual, callee, _) -> seed_ic n callee
            | _ -> ())
          instrs;
        let chain = List.fold_right compile_instr instrs (compile_term b) in
        (* profiler safepoint on block entry, after the edge's phi move
           (which charges no cycles) *)
        let sample_bci = block_bcis.(b.Graph.b_id) in
        bodies.(b.Graph.b_id) <-
          (fun regs ->
            if !Profile_cpu.is_on then Profile_cpu.poll sample_bci;
            chain regs)
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

(* parameter [i] onwards from [args]; a top-level function, so binding
   the arguments allocates no closure *)
let rec bind_params code regs i args =
  if i < Array.length code.param_ids then
    match args with
    | v :: vs ->
        regs.(code.param_ids.(i)) <- v;
        bind_params code regs (i + 1) vs
    | [] -> trap "missing argument %d for %s" i code.method_name

let run ?deopt (code : code) (args : Value.value list) : Value.value option =
  let regs =
    match code.pool with
    | [] -> Array.make code.nregs Vnull
    | a :: rest ->
        code.pool <- rest;
        a
  in
  bind_params code regs 0 args;
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
