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
       threaded chain ending in its terminator.
     - Control transfers are tail calls straight to the target block's
       chain. Blocks are linked in post-order, so every target but a back
       edge's is built before the transfer into it and is called
       directly; back edges (and cycles) jump through a per-graph closure
       table, so loops run in constant stack space. A compare-and-branch,
       an [If] or a [Goto] makes its transfer itself; an edge with phi
       moves is one closure that moves, then transfers. No closure runs
       only to jump or only to test the profiler.
     - The tracer and the CPU profiler are captured from the
       environment once, at translation: every check tests that captured
       value, never a global. An allocation passes its bytecode site to
       the heap, which records it in the heap profiler. The CPU
       profiler's block safepoints are polled by the transfer into the
       block, after the edge's moves, and only when the translation
       captured a profiler (one load and compare when it did not); the
       method entry's by {!run}. A block with no
       closure of its own (no instruction, no pending charge, a [Goto]
       to a block without phis) is passed through: a transfer into it
       polls its safepoint and its successor's, in order, and calls the
       successor's chain.
     - Typed registers. A register file is two arrays indexed by node id:
       [vr], the [Value.value] registers, and beside it [ir], unboxed int
       registers. {!plan} decides, once per graph, which file each node
       lives in: [Arith] and [Neg] results, and phis whose inputs are all
       ints (an optimistic fixpoint, see [plan]), live in [ir]; constants
       are filled into the file when it is made (an int constant in both
       files) and never run. An int operand is read in one of three
       modes resolved at translation: its [ir] register, an immediate
       (a constant), or its [vr] register unboxed, which traps with the
       interpreter's message on a non-int. An int value is boxed only
       where a value consumer reads it: a store, a call argument, a
       return, an allocation's field, [print], a phi edge into a value
       phi, or a [Deopt], which boxes every int register its frame state
       names before the lookup can read it.
     - [Arith], [Cmp] and [Neg] get one closure per operator and operand
       mode; a comparison that is not fused returns one of two shared
       booleans ([vtrue], [vfalse]) instead of allocating. An int [Cmp]
       whose only use is its block's [If] becomes one compare-and-branch
       closure.
     - The [compiled_ops] and [cycles] counters are resolved to their
       storage cells ({!Stats.cell}) once per translation and bumped in
       place. The dev profile compiles every module that has an [.mli]
       with [-opaque], so a [Stats] call here would never be inlined: it
       would be two unknown calls per operation.
     - Phi routing comes from the graph's {!Ir_exec.prepared} tables: each
       [(pred, block)] edge becomes a parallel assignment over index
       arrays, with no predecessor search and no list allocation. Edges
       with one move, or two moves within one file, move their values
       directly; any other edge goes through scratch buffers that belong
       to this translation, never to the shared tables. Reusing them
       across invocations is safe because the move performs no calls (no
       reentrancy) and a VM never runs on two domains at once.
     - Virtual [Invoke] sites get a monomorphic inline cache seeded from
       the interpreter's receiver profile: the fast path is one class-id
       check against a pre-resolved target; a miss falls back to
       {!Interp.dispatch_target} and rebiases the cache.
     - Register files are pooled per compiled method across invocations
       instead of [Array.make] per call (see the lifetime rules below).

   Cost accounting: every IR instruction is charged [Cost.compiled_op]
   plus its operation-specific cost and one [compiled_ops]; an [If]
   charges one [Cost.compiled_op]; edge moves, boxing and jumps charge
   nothing. A constant has no closure, and an int operation that cannot
   trap ([cannot_trap]) has one that charges nothing: the charge of
   either rides on the next closure of its block that charges, or on the
   block's terminator, and a fused compare-and-branch charges its [Cmp]
   and its [If] at once. Every closure that charges does so before its
   operation body, and a transfer before it polls, so at every point that
   can observe the counters (an operation that can trap, call, allocate
   or deopt, a safepoint, a terminator) the totals are exactly those of
   charging each instruction in turn, and the safepoints are polled in
   the order running each instruction in turn would reach them. Inline
   caches, typed registers, direct transfers and register pooling are
   wall-clock optimizations only and add no model cycles.
   test/test_closure.ml pins the totals, test/test_profile.ml the
   safepoint stream.

   Register-file lifetime rules: a register file is acquired from the pool
   on entry and released on normal return and on an MJ exception unwinding
   through this frame. A [Deopt] terminator is the delicate case: the
   [Deoptimize] exception carries a [vr]-backed lookup closure that
   {!Deopt.handle} consults after re-entrant interpreter execution, so the
   file must survive until the handler finishes: the file goes with the
   exception and never returns to the pool. Returning it would buy
   nothing, since the VM's deopt handling drops the code that owns the
   pool. Released files keep their stale values; that is sound
   because SSA guarantees every read is dominated by a write in the same
   invocation, frame states only reference dominating definitions
   (enforced by the IR checker), and no closure writes a constant's
   registers. *)

open Pea_bytecode
open Pea_ir
open Pea_rt
open Value
module Event = Pea_obs.Event
module Trace = Pea_obs.Trace
module Profile_cpu = Pea_obs.Profile_cpu

(* a register file: the value registers and the unboxed int registers,
   both indexed by node id *)
type frame = {
  vr : Value.value array;
  ir : int array;
}

(* compiled code from one instruction (or terminator) of a block to the
   end of the invocation *)
type chain = frame -> Value.value option

(* What a control transfer into a block runs once its edge's moves are
   done: the safepoints of the blocks it enters, [e_bci] the block's own
   and [e_rest] those of the blocks it passes through after it (blocks
   with no closure of their own), then the chain of the block it lands
   in: called directly when that chain is already built, else (a back
   edge, or a cycle) through the per-graph table. *)
type dest =
  | Direct of chain
  | Via of int

type entry = {
  e_bci : int;
  e_rest : int array;
  e_dest : dest;
}

type code = {
  nregs : int;
  param_ids : int array; (* Param node ids, in parameter order *)
  const_ids : int array; (* every constant of the register file ... *)
  const_values : Value.value array; (* ... and its value, boxed *)
  int_const_ids : int array; (* the int constants among them ... *)
  int_const_values : int array; (* ... and their values *)
  entry_bci : int; (* the safepoints the method entry polls ... *)
  entry_rest : int array;
  entry : chain; (* ... before it runs this *)
  cpu : Profile_cpu.t option; (* the profiler the entry polls *)
  mutable pool : frame list; (* free register files *)
  method_name : string; (* for trap messages *)
}

let const_value = Ir_exec.const_value

(* the two booleans compiled code produces *)
let vtrue = Vbool true

let vfalse = Vbool false

(* The trap of a comparison of two value registers that are not both ints
   (nor both booleans, for [==] and [!=]). The message names the right
   operand if it is not an int, else the left: the generic path converted
   the right operand first. *)
let int_operands va vb =
  Interp.trap "expected int, found %s" (string_of_value (match vb with Vint _ -> va | _ -> vb))

(* ------------------------------------------------------------------ *)
(* The plan: which file each node lives in                             *)
(* ------------------------------------------------------------------ *)

type reg_kind =
  | R_value
  | R_int
  | R_const
  | R_none

type plan = {
  regs : reg_kind array;
  int_cmps : bool array;
  fused : Node.node_id option array;
}

let int_const (g : Graph.t) id =
  match (Graph.node g id).Node.op with Node.Const (Node.Cint _) -> true | _ -> false

(* A [Cmp] compares ints unless it is [==] or [!=] on operands neither of
   which is known to hold an int: those may be two booleans. *)
let is_int_cmp c ~int_typed a b =
  match c with
  | Classfile.Ceq | Classfile.Cne -> int_typed a || int_typed b
  | Classfile.Clt | Classfile.Cle | Classfile.Cgt | Classfile.Cge -> true

(* The operands an operation reads from the value file; every other
   operand is read as an int. *)
let value_operands (op : Node.op) ~int_cmp =
  match op with
  | Node.Const _ | Node.Param _ | Node.Phi _ | Node.Arith _ | Node.Neg _ | Node.New _
  | Node.New_array _ | Node.Load_static _ ->
      []
  | Node.Cmp (_, a, b) -> if int_cmp then [] else [ a; b ]
  | Node.Array_load (a, _) -> [ a ]
  | Node.Array_store (a, _, x) -> [ a; x ]
  | op ->
      let acc = ref [] in
      Node.iter_operands (fun x -> if not (List.mem x !acc) then acc := x :: !acc) op;
      List.rev !acc

let phi_inputs (p : Node.t) = match p.Node.op with Node.Phi ph -> ph.Node.inputs | _ -> [||]

(* whether every input from the [i]th on is statically an int, and
   whether one of them is computed in the int file *)
let rec all_typed typed ins i = i >= Array.length ins || (typed.(ins.(i)) && all_typed typed ins (i + 1))

let rec some_int regs ins i = i < Array.length ins && (regs.(ins.(i)) = R_int || some_int regs ins (i + 1))

(* The register decisions for [g]:

   - [Arith] and [Neg] results live in the int file.
   - Constants in reachable blocks are filled into the file when it is
     made: an int constant into both files, any other into the value
     file.
   - A phi lives in the int file when every input is statically an int
     and at least one input is computed in the int file. "Statically an
     int" is the greatest fixpoint over phis (optimistic: every phi starts
     as an int and is demoted when one of its inputs is not), from the
     nodes whose value is an int by construction: int constants, [Arith],
     [Neg], [Array_length], an [int] parameter of a normal entry (an OSR
     entry's parameters are untyped locals), an [int] field or static
     load, a call returning [int]. "Computed in the int file" is the
     least fixpoint from [Arith] and [Neg] results, so a phi of boxed
     values alone (parameters, loads, call results, constants) stays a
     value phi and never unboxes only to box again.
   - Every other value lives in the value file; a node without a value
     has no register.
   - An int [Cmp] that is the last non-constant instruction of its block
     and whose one use is the block's [If] is fused with it into one
     compare-and-branch and has no register. *)
let plan_of ~reachable (g : Graph.t) : plan =
  let n = max (Graph.n_nodes g) 1 in
  let regs = Array.make n R_none and typed = Array.make n false in
  let m = g.Graph.g_method in
  List.iter
    (fun (p : Node.t) ->
      regs.(p.Node.id) <- R_value;
      typed.(p.Node.id) <-
        (match p.Node.op with
        | Node.Param i ->
            let k = if m.Classfile.mth_static then i else i - 1 in
            Option.is_none g.Graph.g_osr_entry
            && k >= 0
            &&
            (match List.nth_opt m.Classfile.mth_params k with
            | Some Pea_mjava.Ast.Tint -> true
            | _ -> false)
        | _ -> false))
    g.Graph.params;
  let phis = ref [] and cmps = ref [] and candidates = ref [] and deopts = ref [] in
  (* use counts, for the fusion below *)
  let uses = Array.make n 0 in
  let use i = uses.(i) <- uses.(i) + 1 in
  for bid = 0 to Graph.n_blocks g - 1 do
    if reachable.(bid) then begin
      let b = Graph.block g bid in
      List.iter
        (fun (p : Node.t) ->
          phis := p :: !phis;
          regs.(p.Node.id) <- R_value;
          (* optimistic: every phi is an int until one of its inputs is not *)
          typed.(p.Node.id) <- true;
          Array.iter use (phi_inputs p))
        b.Graph.phis;
      let last = ref (-1) in
      Pea_support.Dyn_array.iter
        (fun (x : Node.t) ->
          let id = x.Node.id in
          Node.iter_operands use x.Node.op;
          if Node.produces_value x.Node.op then regs.(id) <- R_value;
          (match x.Node.op with Node.Const _ | Node.Param _ -> () | _ -> last := id);
          match x.Node.op with
          | Node.Const c ->
              regs.(id) <- R_const;
              typed.(id) <- (match c with Node.Cint _ -> true | _ -> false)
          | Node.Arith _ | Node.Neg _ ->
              regs.(id) <- R_int;
              typed.(id) <- true
          | Node.Array_length _
          | Node.Load_field (_, { Classfile.fld_ty = Pea_mjava.Ast.Tint; _ })
          | Node.Load_static { Classfile.sf_ty = Pea_mjava.Ast.Tint; _ }
          | Node.Invoke (_, { Classfile.mth_ret = Some Pea_mjava.Ast.Tint; _ }, _) ->
              typed.(id) <- true
          | Node.Cmp _ -> cmps := x :: !cmps
          | _ -> ())
        b.Graph.instrs;
      match b.Graph.term with
      | Graph.If { cond; _ } ->
          use cond;
          (* a candidate: a [Cmp] as its block's last non-constant
             instruction and [If] condition *)
          if !last = cond then candidates := (bid, cond) :: !candidates
      | Graph.Return (Some x) -> use x
      | Graph.Deopt d -> deopts := d :: !deopts
      | Graph.Return None | Graph.Goto _ | Graph.Trap _ | Graph.Unreachable -> ()
    end
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (p : Node.t) ->
        if typed.(p.Node.id) && not (all_typed typed (phi_inputs p) 0) then begin
          typed.(p.Node.id) <- false;
          changed := true
        end)
      !phis
  done;
  changed := true;
  while !changed do
    changed := false;
    List.iter
      (fun (p : Node.t) ->
        if typed.(p.Node.id) && regs.(p.Node.id) <> R_int && some_int regs (phi_inputs p) 0 then begin
          regs.(p.Node.id) <- R_int;
          changed := true
        end)
      !phis
  done;
  let int_typed id = typed.(id) in
  let int_cmps = Array.make n false in
  List.iter
    (fun (x : Node.t) ->
      match x.Node.op with
      | Node.Cmp (c, a, b) -> int_cmps.(x.Node.id) <- is_int_cmp c ~int_typed a b
      | _ -> ())
    !cmps;
  let fused = Array.make (max (Graph.n_blocks g) 1) None in
  let candidates = List.filter (fun (_, cond) -> int_cmps.(cond)) !candidates in
  if candidates <> [] then begin
    (* a candidate fuses when its branch is its one use at run time:
       operands, phi inputs, terminators and the frame states a [Deopt]
       reads *)
    List.iter (fun (d : Graph.deopt) -> Frame_state.iter_nodes use d.Graph.d_state) !deopts;
    List.iter
      (fun (bid, cond) ->
        if uses.(cond) = 1 then begin
          fused.(bid) <- Some cond;
          regs.(cond) <- R_none
        end)
      candidates
  end;
  { regs; int_cmps; fused }

let plan g = plan_of ~reachable:(Graph.reachable g) g

(* The move a phi edge makes from [src] into the phi [dst]. *)
type move =
  | Mv_int (* int register to int register *)
  | Mv_value (* value register to value register *)
  | Mv_box (* int register to value register *)
  | Mv_unbox (* value register to int register *)

let move_kind (g : Graph.t) (pl : plan) ~dst ~src =
  match (pl.regs.(dst), pl.regs.(src)) with
  | R_int, R_int -> Mv_int
  | R_int, R_const when int_const g src -> Mv_int
  | R_int, _ -> Mv_unbox
  | _, R_int -> Mv_box
  | _ -> Mv_value

(* The parallel move of an edge with more moves than the closures
   specialize: every source is read into the scratch buffers [ti] and
   [tv] before any phi is written. *)
let parallel_move kinds dsts srcs ti tv f =
  let ir = f.ir and vr = f.vr in
  for i = 0 to Array.length dsts - 1 do
    let s = srcs.(i) in
    match kinds.(i) with
    | Mv_int -> ti.(i) <- ir.(s)
    | Mv_value -> tv.(i) <- vr.(s)
    | Mv_box -> tv.(i) <- Vint ir.(s)
    | Mv_unbox -> ti.(i) <- (match vr.(s) with Vint n -> n | v -> Interp.as_int v)
  done;
  for i = 0 to Array.length dsts - 1 do
    match kinds.(i) with
    | Mv_int | Mv_unbox -> ir.(dsts.(i)) <- ti.(i)
    | Mv_value | Mv_box -> vr.(dsts.(i)) <- tv.(i)
  done

(* The int registers a value consumer reads: boxed just before it. *)
let boxed_operands (pl : plan) (n : Node.t) =
  if Node.exists_operand (fun x -> pl.regs.(x) = R_int) n.Node.op then
    List.filter
      (fun x -> pl.regs.(x) = R_int)
      (value_operands n.Node.op ~int_cmp:pl.int_cmps.(n.Node.id))
  else []

(* The int registers a deopt's frame state names: boxed before the
   lookup can read them. *)
let deopt_boxes (pl : plan) (d : Graph.deopt) =
  let ids = ref [] in
  Frame_state.iter_nodes
    (fun x -> if pl.regs.(x) = R_int && not (List.mem x !ids) then ids := x :: !ids)
    d.Graph.d_state;
  List.rev !ids

(* ------------------------------------------------------------------ *)
(* Printing the plan                                                   *)
(* ------------------------------------------------------------------ *)

(* The conversions of the (pred -> succ) edge's phi moves, as text. *)
let edge_conversions (g : Graph.t) (pl : plan) ~pred ~succ =
  let b = Graph.block g succ in
  match List.find_index (fun p -> p = pred) b.Graph.preds with
  | None -> []
  | Some i ->
      List.filter_map
        (fun (p : Node.t) ->
          match p.Node.op with
          | Node.Phi ph -> (
              let dst = p.Node.id and src = ph.Node.inputs.(i) in
              match move_kind g pl ~dst ~src with
              | Mv_unbox -> Some (Printf.sprintf "unbox v%d into v%d" src dst)
              | Mv_box -> Some (Printf.sprintf "box v%d into v%d" src dst)
              | Mv_int | Mv_value -> None)
          | _ -> None)
        b.Graph.phis

let plan_to_string (g : Graph.t) (pl : plan) =
  let buf = Buffer.create 1024 in
  let line text note =
    if note = "" then Buffer.add_string buf (Printf.sprintf "  %s\n" text)
    else Buffer.add_string buf (Printf.sprintf "  %-40s ; %s\n" text note)
  in
  let count k = Array.fold_left (fun acc r -> if r = k then acc + 1 else acc) 0 pl.regs in
  let n_fused = Array.fold_left (fun acc f -> if Option.is_none f then acc else acc + 1) 0 pl.fused in
  Buffer.add_string buf
    (Printf.sprintf
       "closure plan of %s: %d int, %d value, %d constant registers; %d compare-and-branch\n"
       (Classfile.qualified_name g.Graph.g_method)
       (count R_int) (count R_value) (count R_const) n_fused);
  let kind_note id =
    match pl.regs.(id) with
    | R_value -> "value"
    | R_int -> "int"
    | R_const ->
        if int_const g id then "constant, int and value files" else "constant, value file"
    | R_none -> ""
  in
  let boxes ids = String.concat ", " (List.map (Printf.sprintf "v%d") ids) in
  let node_line (x : Node.t) note =
    line (Printf.sprintf "v%d = %s" x.Node.id (Node.string_of_op x.Node.op)) note
  in
  List.iter (fun (p : Node.t) -> node_line p (kind_note p.Node.id)) g.Graph.params;
  let reachable = Graph.reachable g in
  let edges ~pred succs =
    List.concat_map (fun succ -> edge_conversions g pl ~pred ~succ) succs
  in
  Graph.iter_blocks
    (fun b ->
      let bid = b.Graph.b_id in
      if reachable.(bid) then begin
        Buffer.add_string buf
          (Printf.sprintf "B%d%s\n" bid
             (match b.Graph.kind with
             | Graph.Plain -> ""
             | Graph.Merge -> " (merge)"
             | Graph.Loop_header -> " (loop header)"));
        List.iter (fun (p : Node.t) -> node_line p (kind_note p.Node.id)) b.Graph.phis;
        Pea_support.Dyn_array.iter
          (fun (x : Node.t) ->
            let id = x.Node.id in
            let note =
              if pl.fused.(bid) = Some id then "fused into the branch"
              else
                let boxed = boxes (boxed_operands pl x) in
                String.concat "; "
                  (List.filter (( <> ) "")
                     [ kind_note id; (if boxed = "" then "" else "box " ^ boxed) ])
            in
            node_line x note)
          b.Graph.instrs;
        let term = Printer.string_of_terminator b.Graph.term in
        let conv = edges ~pred:bid (Graph.successors b.Graph.term) in
        let notes =
          (match b.Graph.term with
          | Graph.If _ when pl.fused.(bid) <> None -> [ "compare-and-branch" ]
          | Graph.Return (Some x) when pl.regs.(x) = R_int -> [ Printf.sprintf "box v%d" x ]
          | Graph.Deopt d -> (
              match deopt_boxes pl d with
              | [] -> []
              | ids -> [ "box " ^ boxes ids ^ " for the lookup" ])
          | _ -> [])
          @ conv
        in
        let term =
          (* a deopt's frame state is long: the plan names the block's
             boxing, the IR dump has the state *)
          match b.Graph.term with Graph.Deopt _ -> "deopt" | _ -> term
        in
        line term (String.concat "; " notes)
      end)
    g;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* How an int operand is read, resolved at translation: its int register,
   an immediate (the operand is the constant's value), or its value
   register, unboxed. *)
type mode =
  | Reg
  | Imm
  | Box

let[@inline] geti f mode x =
  match mode with
  | Reg -> f.ir.(x)
  | Imm -> x
  | Box -> ( match f.vr.(x) with Vint n -> n | v -> Interp.as_int v)

(* An [Arith]'s operands in the modes its closure reads them: an
   immediate left operand of a commutative operator moves right, where
   the immediate closures read it. *)
let arith_operands op a b =
  match (op, a, b) with
  | (Node.Add | Node.Mul), (Imm, _), (Reg, _) -> (b, a)
  | _ -> (a, b)

(* An int operation that cannot trap: [Add], [Sub] or [Mul] of an int
   register with a register or an immediate, [Div] or [Rem] of one by a
   non-zero immediate, [Neg] of one, its operands read in these modes
   ([Neg]'s given twice). Its closure charges nothing: like a constant's,
   its charge rides on the next closure of its block that charges, or on
   the terminator, so no counter anything can read lags. *)
let cannot_trap (op : Node.op) (ma, _) (mb, b) =
  match (op, ma, mb) with
  | Node.Arith ((Node.Add | Node.Sub | Node.Mul), _, _), Reg, (Reg | Imm) -> true
  | Node.Arith ((Node.Div | Node.Rem), _, _), Reg, Imm -> b <> 0
  | Node.Neg _, Reg, _ -> true
  | _ -> false

(* An instruction to link into its block's chain, with the charge its
   closure takes on; an [Arith] or [Neg] carries its operands in their
   modes, resolved once. *)
type step =
  | Op of Node.t * int * int
  | Int_op of Node.t * int * int * (mode * int) * (mode * int)

(* The safepoints a transfer polls when profiling is on, after the
   edge's moves (see [entry]). *)
let poll_rest p rest =
  for i = 0 to Array.length rest - 1 do
    Profile_cpu.poll p rest.(i)
  done

let[@inline] enter p bci rest =
  Profile_cpu.poll p bci;
  if Array.length rest > 0 then poll_rest p rest

(* [cpu] is the profiler the translation captured: with none, a
   transfer's safepoints cost one load and compare *)
let[@inline] poll cpu bci rest = match cpu with Some p -> enter p bci rest | None -> ()

(* A branch arm is a transfer the branch closure makes itself, polling
   [bci] and [rest] then calling [next]; or, for an edge with moves,
   [next] is the edge's closure, which polls after its moves, and [bci]
   is [no_poll]. *)
let no_poll = min_int

let[@inline] take cpu bci rest (next : chain) f =
  (match cpu with Some p when bci <> no_poll -> enter p bci rest | _ -> ());
  next f

(* The blocks reachable from the entry, as flags and, in the first
   [count] slots of [order], in post-order: a block comes after every
   successor but those it is reached back from. *)
let postorder (g : Graph.t) =
  let n = Graph.n_blocks g in
  let seen = Array.make n false and order = Array.make n 0 and count = ref 0 in
  let rec visit bid =
    if not seen.(bid) then begin
      seen.(bid) <- true;
      Graph.iter_successors visit (Graph.block g bid).Graph.term;
      order.(!count) <- bid;
      incr count
    end
  in
  visit Graph.entry_id;
  (seen, order, !count)

let compile (env : Interp.env) (p : Ir_exec.prepared) : code =
  let g = p.Ir_exec.p_graph in
  let meth = Classfile.qualified_name g.Graph.g_method in
  let stats = env.Interp.stats in
  let heap = env.Interp.heap in
  let globals = env.Interp.globals in
  let profile = env.Interp.profile in
  let on_invoke = env.Interp.on_invoke in
  let on_print = env.Interp.on_print in
  (* the instruments, captured once: every check below tests one of
     these values, never a global; the heap records its own allocations *)
  let { Pea_obs.Instruments.trace; cpu; _ } = env.Interp.instruments in
  let reachable, order, n_order = postorder g in
  let pl = plan_of ~reachable g in
  let regs = pl.regs in
  (* the closure table back edges jump through; filled below *)
  let unbuilt : chain = fun _ -> Interp.trap "closure tier: jump into an uncompiled block" in
  let bodies = Array.make (Graph.n_blocks g) unbuilt in
  (* the counter bump a charging closure starts with: [k] operations and
     [cy] cycles, its own and those pending before it (constants, int
     operations that cannot trap), applied before the operation body so a
     trapping operation is still charged *)
  let ops_cell, ops = Stats.cell stats Stats.compiled_ops in
  let cycles_cell, cycles = Stats.cell stats Stats.cycles in
  let[@inline] bump k cy =
    ops_cell.(ops) <- ops_cell.(ops) + k;
    cycles_cell.(cycles) <- cycles_cell.(cycles) + cy
  in
  let base = Cost.compiled_op in
  (* the read mode of an int operand, and what to pass for it *)
  let int_operand x =
    match regs.(x) with
    | R_int -> (Reg, x)
    | R_const -> (
        match (Graph.node g x).Node.op with
        | Node.Const (Node.Cint v) -> (Imm, v)
        | _ -> (Box, x))
    | R_value | R_none -> (Box, x)
  in
  (* bytecode sites, pre-resolved like every other operand: each
     allocation's, where the heap records it, and each block's safepoint *)
  let sites = p.Ir_exec.p_sites and block_bcis = p.Ir_exec.p_bcis in
  let build_args arg_ids vr =
    let rec go i acc = if i < 0 then acc else go (i - 1) (vr.(arg_ids.(i)) :: acc) in
    go (Array.length arg_ids - 1) []
  in
  (* monomorphic inline caches, one per virtual call site: (class id,
     pre-resolved target), seeded from the receiver classes the
     interpreter observed at the site (the invoke's frame state records
     the state *after* the call, so the site itself is at [fs_bci - 1]);
     each site is listed with its block as its closure is built and seeded
     once every chain is, in block and instruction order, which is the
     order the trace sees their seed events in *)
  let ic_sites = ref [] and building = ref 0 in
  let seed_ic (_, (n : Node.t), (callee : Classfile.rt_method), ic) =
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
    (match (seed, trace) with
    | Some (cls, _), Some t ->
        Trace.emit t
          (Event.Ic_transition
             {
               meth;
               callee = callee.Classfile.mth_name;
               cls = cls.Classfile.cls_name;
               kind = Event.Ic_seed;
             })
    | _ -> ());
    ic := Option.map (fun (cls, tgt) -> (cls.Classfile.cls_id, tgt)) seed
  in
  (* an [Arith], its operands read in their modes; those that cannot
     trap ([cannot_trap]) charge nothing, the others [k] and [cy] *)
  let compile_arith k cy op dst (ma, a) (mb, b) (next : chain) : chain =
    match op with
    | Node.Add -> (
        match (ma, mb) with
        | Reg, Reg ->
            fun f ->
              let r = f.ir in
              r.(dst) <- r.(a) + r.(b);
              next f
        | Reg, Imm ->
            fun f ->
              let r = f.ir in
              r.(dst) <- r.(a) + b;
              next f
        | _ ->
            fun f ->
              bump k cy;
              let y = geti f mb b in
              let x = geti f ma a in
              f.ir.(dst) <- x + y;
              next f)
    | Node.Sub -> (
        match (ma, mb) with
        | Reg, Reg ->
            fun f ->
              let r = f.ir in
              r.(dst) <- r.(a) - r.(b);
              next f
        | Reg, Imm ->
            fun f ->
              let r = f.ir in
              r.(dst) <- r.(a) - b;
              next f
        | _ ->
            fun f ->
              bump k cy;
              let y = geti f mb b in
              let x = geti f ma a in
              f.ir.(dst) <- x - y;
              next f)
    | Node.Mul -> (
        match (ma, mb) with
        | Reg, Reg ->
            fun f ->
              let r = f.ir in
              r.(dst) <- r.(a) * r.(b);
              next f
        | Reg, Imm ->
            fun f ->
              let r = f.ir in
              r.(dst) <- r.(a) * b;
              next f
        | _ ->
            fun f ->
              bump k cy;
              let y = geti f mb b in
              let x = geti f ma a in
              f.ir.(dst) <- x * y;
              next f)
    | Node.Div -> (
        match (ma, mb) with
        | Reg, Imm when b <> 0 ->
            fun f ->
              let r = f.ir in
              r.(dst) <- r.(a) / b;
              next f
        | _ ->
            fun f ->
              bump k cy;
              let y = geti f mb b in
              let x = geti f ma a in
              if y = 0 then Interp.trap "division by zero";
              f.ir.(dst) <- x / y;
              next f)
    | Node.Rem -> (
        match (ma, mb) with
        | Reg, Imm when b <> 0 ->
            fun f ->
              let r = f.ir in
              r.(dst) <- r.(a) mod b;
              next f
        | _ ->
            fun f ->
              bump k cy;
              let y = geti f mb b in
              let x = geti f ma a in
              if y = 0 then Interp.trap "division by zero";
              f.ir.(dst) <- x mod y;
              next f)
  in
  (* an [Arith] or a [Neg], its operands resolved ([Int_op]) *)
  let compile_int_op (n : Node.t) k cy a b (next : chain) : chain =
    let dst = n.Node.id in
    match (n.Node.op, a) with
    | Node.Arith (op, _, _), _ -> compile_arith k cy op dst a b next
    | Node.Neg _, (Reg, a) ->
        fun f ->
          let r = f.ir in
          r.(dst) <- -r.(a);
          next f
    | Node.Neg _, (ma, a) ->
        fun f ->
          bump k cy;
          f.ir.(dst) <- -geti f ma a;
          next f
    | _ -> assert false
  in
  (* an int comparison whose boolean lands in a value register *)
  let compile_int_cmp k cy c dst (ma, a) (mb, b) (next : chain) : chain =
    let test : int -> int -> bool =
      match c with
      | Classfile.Clt -> ( < )
      | Classfile.Cle -> ( <= )
      | Classfile.Cgt -> ( > )
      | Classfile.Cge -> ( >= )
      | Classfile.Ceq -> ( = )
      | Classfile.Cne -> ( <> )
    in
    fun f ->
      bump k cy;
      let y = geti f mb b in
      let x = geti f ma a in
      f.vr.(dst) <- (if test x y then vtrue else vfalse);
      next f
  in
  (* a compare-and-branch: [k] and [cy] cover the [Cmp], the [If] and the
     charges pending before them; its arms are [take]'s *)
  let compile_fused k cy c (ma, a) (mb, b) bt rt (et : chain) bf rf (ef : chain) : chain =
    match c with
    | Classfile.Clt -> (
        match (ma, mb) with
        | Reg, Reg ->
            fun f ->
              bump k cy;
              let r = f.ir in
              if r.(a) < r.(b) then take cpu bt rt et f else take cpu bf rf ef f
        | Reg, Imm ->
            fun f ->
              bump k cy;
              if f.ir.(a) < b then take cpu bt rt et f else take cpu bf rf ef f
        | _ ->
            fun f ->
              bump k cy;
              let y = geti f mb b in
              if geti f ma a < y then take cpu bt rt et f else take cpu bf rf ef f)
    | Classfile.Cle -> (
        match (ma, mb) with
        | Reg, Reg ->
            fun f ->
              bump k cy;
              let r = f.ir in
              if r.(a) <= r.(b) then take cpu bt rt et f else take cpu bf rf ef f
        | Reg, Imm ->
            fun f ->
              bump k cy;
              if f.ir.(a) <= b then take cpu bt rt et f else take cpu bf rf ef f
        | _ ->
            fun f ->
              bump k cy;
              let y = geti f mb b in
              if geti f ma a <= y then take cpu bt rt et f else take cpu bf rf ef f)
    | Classfile.Cgt -> (
        match (ma, mb) with
        | Reg, Reg ->
            fun f ->
              bump k cy;
              let r = f.ir in
              if r.(a) > r.(b) then take cpu bt rt et f else take cpu bf rf ef f
        | Reg, Imm ->
            fun f ->
              bump k cy;
              if f.ir.(a) > b then take cpu bt rt et f else take cpu bf rf ef f
        | _ ->
            fun f ->
              bump k cy;
              let y = geti f mb b in
              if geti f ma a > y then take cpu bt rt et f else take cpu bf rf ef f)
    | Classfile.Cge -> (
        match (ma, mb) with
        | Reg, Reg ->
            fun f ->
              bump k cy;
              let r = f.ir in
              if r.(a) >= r.(b) then take cpu bt rt et f else take cpu bf rf ef f
        | Reg, Imm ->
            fun f ->
              bump k cy;
              if f.ir.(a) >= b then take cpu bt rt et f else take cpu bf rf ef f
        | _ ->
            fun f ->
              bump k cy;
              let y = geti f mb b in
              if geti f ma a >= y then take cpu bt rt et f else take cpu bf rf ef f)
    | Classfile.Ceq -> (
        match (ma, mb) with
        | Reg, Reg ->
            fun f ->
              bump k cy;
              let r = f.ir in
              if r.(a) = r.(b) then take cpu bt rt et f else take cpu bf rf ef f
        | Reg, Imm ->
            fun f ->
              bump k cy;
              if f.ir.(a) = b then take cpu bt rt et f else take cpu bf rf ef f
        | _ ->
            fun f ->
              bump k cy;
              let y = geti f mb b in
              if geti f ma a = y then take cpu bt rt et f else take cpu bf rf ef f)
    | Classfile.Cne -> (
        match (ma, mb) with
        | Reg, Reg ->
            fun f ->
              bump k cy;
              let r = f.ir in
              if r.(a) <> r.(b) then take cpu bt rt et f else take cpu bf rf ef f
        | Reg, Imm ->
            fun f ->
              bump k cy;
              if f.ir.(a) <> b then take cpu bt rt et f else take cpu bf rf ef f
        | _ ->
            fun f ->
              bump k cy;
              let y = geti f mb b in
              if geti f ma a <> y then take cpu bt rt et f else take cpu bf rf ef f)
  in
  (* [k] operations and [cy] cycles: the charge of this instruction plus
     that of the constants before it in its block *)
  let compile_instr (n : Node.t) k cy (next : chain) : chain =
    let dst = n.Node.id in
    match n.Node.op with
    | Node.Const _ | Node.Param _ | Node.Phi _ | Node.Arith _ | Node.Neg _ -> assert false
    | Node.Not a ->
        fun f ->
          bump k cy;
          (f.vr.(dst) <-
             (match f.vr.(a) with
             | Vbool true -> vfalse
             | Vbool false -> vtrue
             | v -> Vbool (not (Interp.as_bool v))));
          next f
    | Node.Cmp (c, a, b) when pl.int_cmps.(dst) ->
        compile_int_cmp k cy c dst (int_operand a) (int_operand b) next
    | Node.Cmp (c, a, b) -> (
        (* [==] and [!=] on values that may be booleans: compared by value *)
        match c with
        | Classfile.Ceq ->
            fun f ->
              bump k cy;
              let r = f.vr in
              (r.(dst) <-
                 (match (r.(a), r.(b)) with
                 | Vint x, Vint y -> if x = y then vtrue else vfalse
                 | Vbool x, Vbool y -> if x = y then vtrue else vfalse
                 | va, vb -> int_operands va vb));
              next f
        | _ ->
            fun f ->
              bump k cy;
              let r = f.vr in
              (r.(dst) <-
                 (match (r.(a), r.(b)) with
                 | Vint x, Vint y -> if x <> y then vtrue else vfalse
                 | Vbool x, Vbool y -> if x <> y then vtrue else vfalse
                 | va, vb -> int_operands va vb));
              next f)
    | Node.RefCmp (c, a, b) -> (
        match c with
        | Classfile.AEq ->
            fun f ->
              bump k cy;
              let r = f.vr in
              (r.(dst) <- (if equal_value r.(a) r.(b) then vtrue else vfalse));
              next f
        | Classfile.ANe ->
            fun f ->
              bump k cy;
              let r = f.vr in
              (r.(dst) <- (if equal_value r.(a) r.(b) then vfalse else vtrue));
              next f)
    | Node.New cls ->
        let mid, bci = sites.(dst) in
        fun f ->
          bump k cy;
          f.vr.(dst) <- Vobj (Heap.alloc_object heap ~mid ~bci cls);
          next f
    | Node.Alloc (cls, field_values) ->
        let mid, bci = sites.(dst) in
        fun f ->
          bump k cy;
          let o = Heap.alloc_object heap ~mid ~bci cls in
          let r = f.vr in
          for i = 0 to Array.length field_values - 1 do
            o.o_fields.(i) <- r.(field_values.(i))
          done;
          r.(dst) <- Vobj o;
          next f
    | Node.Alloc_array (elem, elem_values) ->
        let len = Array.length elem_values in
        let mid, bci = sites.(dst) in
        fun f ->
          bump k cy;
          let arr = Heap.alloc_array heap ~mid ~bci elem len in
          let r = f.vr in
          for i = 0 to len - 1 do
            arr.a_elems.(i) <- r.(elem_values.(i))
          done;
          r.(dst) <- Varr arr;
          next f
    | Node.Stack_alloc (sk, cls, field_values) ->
        let mid, bci = sites.(dst) in
        let alloc =
          match sk with
          | Node.Sk_scratch -> Heap.alloc_object_scratch
          | Node.Sk_frame -> Heap.alloc_object_stack
        in
        fun f ->
          bump k cy;
          let o = alloc heap ~mid ~bci cls in
          let r = f.vr in
          for i = 0 to Array.length field_values - 1 do
            o.o_fields.(i) <- r.(field_values.(i))
          done;
          r.(dst) <- Vobj o;
          next f
    | Node.Stack_alloc_array (sk, elem, elem_values) ->
        let len = Array.length elem_values in
        let mid, bci = sites.(dst) in
        let alloc =
          match sk with
          | Node.Sk_scratch -> Heap.alloc_array_scratch
          | Node.Sk_frame -> Heap.alloc_array_stack
        in
        fun f ->
          bump k cy;
          let arr = alloc heap ~mid ~bci elem len in
          let r = f.vr in
          for i = 0 to len - 1 do
            arr.a_elems.(i) <- r.(elem_values.(i))
          done;
          r.(dst) <- Varr arr;
          next f
    | Node.New_array (elem, len) ->
        let mid, bci = sites.(dst) in
        let ml, len = int_operand len in
        fun f ->
          bump k cy;
          (match Heap.alloc_array heap ~mid ~bci elem (geti f ml len) with
          | arr -> f.vr.(dst) <- Varr arr
          | exception Heap.Negative_array_size n -> Interp.trap "negative array size %d" n);
          next f
    | Node.Load_field (o, fld) ->
        let off = fld.Classfile.fld_offset in
        let name = fld.Classfile.fld_name in
        fun f ->
          bump k cy;
          let r = f.vr in
          (match r.(o) with
          | Vobj obj -> r.(dst) <- obj.o_fields.(off)
          | Vnull -> Interp.trap "null dereference reading %s" name
          | _ -> Interp.trap "field load on a non-object");
          next f
    | Node.Store_field (o, fld, x) ->
        let off = fld.Classfile.fld_offset in
        let name = fld.Classfile.fld_name in
        fun f ->
          bump k cy;
          let r = f.vr in
          (match r.(o) with
          | Vobj obj -> obj.o_fields.(off) <- r.(x)
          | Vnull -> Interp.trap "null dereference writing %s" name
          | _ -> Interp.trap "field store on a non-object");
          next f
    | Node.Load_static sf ->
        let idx = sf.Classfile.sf_index in
        fun f ->
          bump k cy;
          f.vr.(dst) <- globals.(idx);
          next f
    | Node.Store_static (sf, x) ->
        let idx = sf.Classfile.sf_index in
        fun f ->
          bump k cy;
          globals.(idx) <- f.vr.(x);
          next f
    | Node.Array_load (a, i) ->
        let mi, i = int_operand i in
        fun f ->
          bump k cy;
          let r = f.vr in
          (match r.(a) with
          | Varr arr ->
              let idx = geti f mi i in
              if idx < 0 || idx >= Array.length arr.a_elems then
                Interp.trap "array index %d out of bounds" idx;
              r.(dst) <- arr.a_elems.(idx)
          | Vnull -> Interp.trap "null dereference at array load"
          | _ -> Interp.trap "array load on a non-array");
          next f
    | Node.Array_store (a, i, x) ->
        let mi, i = int_operand i in
        fun f ->
          bump k cy;
          let r = f.vr in
          (match r.(a) with
          | Varr arr ->
              let idx = geti f mi i in
              if idx < 0 || idx >= Array.length arr.a_elems then
                Interp.trap "array index %d out of bounds" idx;
              arr.a_elems.(idx) <- r.(x)
          | Vnull -> Interp.trap "null dereference at array store"
          | _ -> Interp.trap "array store on a non-array");
          next f
    | Node.Array_length a ->
        fun f ->
          bump k cy;
          let r = f.vr in
          (match r.(a) with
          | Varr arr -> r.(dst) <- Vint (Array.length arr.a_elems)
          | Vnull -> Interp.trap "null dereference at arraylength"
          | _ -> Interp.trap "arraylength on a non-array");
          next f
    | Node.Monitor_enter a ->
        fun f ->
          bump k cy;
          (match f.vr.(a) with
          | Vnull -> Interp.trap "monitorenter on null"
          | x -> (
              match Heap.monitor_enter heap x with
              | () -> ()
              | exception Heap.Unbalanced_monitor msg -> Interp.trap "%s" msg));
          next f
    | Node.Monitor_exit a ->
        fun f ->
          bump k cy;
          (match f.vr.(a) with
          | Vnull -> Interp.trap "monitorexit on null"
          | x -> (
              match Heap.monitor_exit heap x with
              | () -> ()
              | exception Heap.Unbalanced_monitor msg -> Interp.trap "%s" msg));
          next f
    | Node.Invoke (kind, callee, arg_ids) -> (
        match kind with
        | Node.Special ->
            fun f ->
              bump k cy;
              let args = build_args arg_ids f.vr in
              (match args with
              | Vnull :: _ -> Interp.trap "null receiver in constructor call"
              | _ -> ());
              ignore (on_invoke callee args);
              next f
        | Node.Static ->
            fun f ->
              bump k cy;
              (match on_invoke callee (build_args arg_ids f.vr) with
              | Some r -> f.vr.(dst) <- r
              | None -> ());
              next f
        | Node.Virtual ->
            let ic = ref None in
            ic_sites := (!building, n, callee, ic) :: !ic_sites;
            fun f ->
              bump k cy;
              let args = build_args arg_ids f.vr in
              let recv = match args with r :: _ -> r | [] -> Interp.trap "missing receiver" in
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
                        (match trace with
                        | Some t ->
                            Trace.emit t
                              (Event.Ic_transition
                                 {
                                   meth;
                                   callee = callee.Classfile.mth_name;
                                   cls = o.o_cls.Classfile.cls_name;
                                   kind = Event.Ic_rebias;
                                 })
                        | None -> ())
                    | _ -> ());
                    tgt
              in
              (match on_invoke target args with
              | Some r -> f.vr.(dst) <- r
              | None -> ());
              next f)
    | Node.Instance_of (a, cls) ->
        fun f ->
          bump k cy;
          let r = f.vr in
          (r.(dst) <- (if Interp.value_instanceof r.(a) cls then vtrue else vfalse));
          next f
    | Node.Has_class (a, cls) ->
        (* exact-class guard: no subclass walk, false for null and arrays *)
        let cid = cls.Classfile.cls_id in
        fun f ->
          bump k cy;
          let r = f.vr in
          (r.(dst) <-
             (match r.(a) with
             | Vobj o when o.o_cls.Classfile.cls_id = cid -> vtrue
             | _ -> vfalse));
          next f
    | Node.Check_cast (a, cls) ->
        let cls_name = cls.Classfile.cls_name in
        fun f ->
          bump k cy;
          let r = f.vr in
          (match r.(a) with
          | Vnull -> r.(dst) <- Vnull
          | x ->
              if Interp.value_instanceof x cls then r.(dst) <- x
              else Interp.trap "cannot cast %s to %s" (string_of_value x) cls_name);
          next f
    | Node.Null_check a ->
        fun f ->
          bump k cy;
          (match f.vr.(a) with Vnull -> Interp.trap "null dereference" | _ -> ());
          next f
    | Node.Print a ->
        fun f ->
          bump k cy;
          on_print f.vr.(a);
          next f
  in
  (* what an operation is charged besides [Cost.compiled_op] *)
  let op_cost (op : Node.op) =
    match op with
    | Node.Load_field _ | Node.Store_field _ -> Cost.field_access
    | Node.Load_static _ | Node.Store_static _ -> Cost.static_access
    | Node.Array_load _ | Node.Array_store _ -> Cost.array_access
    | Node.Invoke _ -> Cost.invoke
    | _ -> 0
  in
  (* box the int register [x] into its own value register, for a value
     consumer that reads it next ([boxed_operands]); charges nothing *)
  let is_int x = regs.(x) = R_int in
  let box x (next : chain) : chain =
   fun f ->
    f.vr.(x) <- Vint f.ir.(x);
    next f
  in
  (* what a transfer into [succ] runs: a block passed through is listed
     in [passes] once built *)
  let passes = ref [] in
  let entering succ =
    if bodies.(succ) == unbuilt then { e_bci = block_bcis.(succ); e_rest = [||]; e_dest = Via succ }
    else
      match List.assq_opt succ !passes with
      | Some e -> e
      | None -> { e_bci = block_bcis.(succ); e_rest = [||]; e_dest = Direct bodies.(succ) }
  in
  (* a transfer with no moves: the charge [k] and [cy] pending at the
     end of its block, the safepoints of the blocks it enters, the jump *)
  let jump k cy (e : entry) : chain =
    let bci = e.e_bci and rest = e.e_rest in
    match e.e_dest with
    | Direct next ->
        if k = 0 then fun f ->
          poll cpu bci rest;
          next f
        else fun f ->
          bump k cy;
          poll cpu bci rest;
          next f
    | Via t ->
        if k = 0 then fun f ->
          poll cpu bci rest;
          bodies.(t) f
        else fun f ->
          bump k cy;
          poll cpu bci rest;
          bodies.(t) f
  in
  (* the (pred -> succ) transfer of an edge with phi moves: the charge,
     the parallel move read from the prepared routing tables, converting
     between the files where the two sides differ, then the safepoints
     and the jump *)
  let move_edge k cy ~pred ~succ (pb : Ir_exec.phi_block) : chain =
    let idx = pb.Ir_exec.pb_route.(pred) in
    if idx < 0 then fun _ -> Interp.trap "phi resolution: B%d is not a predecessor of B%d" pred succ
    else
      let dsts = pb.Ir_exec.pb_dsts and srcs = pb.Ir_exec.pb_srcs.(idx) in
      let kinds = Array.mapi (fun i dst -> move_kind g pl ~dst ~src:srcs.(i)) dsts in
      let e = entering succ in
      let bci = e.e_bci and rest = e.e_rest in
      (* any other edge: per-translation scratch, as the move makes no
         calls *)
      let scratch () = (Array.make (Array.length dsts) 0, Array.make (Array.length dsts) Vnull) in
      match e.e_dest with
      | Direct next -> (
          match (kinds, dsts, srcs) with
          | [| Mv_int |], [| d |], [| s |] ->
              fun f ->
                bump k cy;
                let r = f.ir in
                r.(d) <- r.(s);
                poll cpu bci rest;
                next f
          | [| Mv_value |], [| d |], [| s |] ->
              fun f ->
                bump k cy;
                let r = f.vr in
                r.(d) <- r.(s);
                poll cpu bci rest;
                next f
          | [| Mv_box |], [| d |], [| s |] ->
              fun f ->
                bump k cy;
                f.vr.(d) <- Vint f.ir.(s);
                poll cpu bci rest;
                next f
          | [| Mv_unbox |], [| d |], [| s |] ->
              fun f ->
                bump k cy;
                f.ir.(d) <- (match f.vr.(s) with Vint n -> n | v -> Interp.as_int v);
                poll cpu bci rest;
                next f
          | [| Mv_int; Mv_int |], [| d0; d1 |], [| s0; s1 |] ->
              (* both sources are read before either phi is written: the
                 pair may be a swap *)
              fun f ->
                bump k cy;
                let r = f.ir in
                let v0 = r.(s0) and v1 = r.(s1) in
                r.(d0) <- v0;
                r.(d1) <- v1;
                poll cpu bci rest;
                next f
          | [| Mv_value; Mv_value |], [| d0; d1 |], [| s0; s1 |] ->
              fun f ->
                bump k cy;
                let r = f.vr in
                let v0 = r.(s0) and v1 = r.(s1) in
                r.(d0) <- v0;
                r.(d1) <- v1;
                poll cpu bci rest;
                next f
          | _ ->
              let ti, tv = scratch () in
              fun f ->
                bump k cy;
                parallel_move kinds dsts srcs ti tv f;
                poll cpu bci rest;
                next f)
      | Via t -> (
          match (kinds, dsts, srcs) with
          | [| Mv_int |], [| d |], [| s |] ->
              fun f ->
                bump k cy;
                let r = f.ir in
                r.(d) <- r.(s);
                poll cpu bci rest;
                bodies.(t) f
          | [| Mv_value |], [| d |], [| s |] ->
              fun f ->
                bump k cy;
                let r = f.vr in
                r.(d) <- r.(s);
                poll cpu bci rest;
                bodies.(t) f
          | [| Mv_int; Mv_int |], [| d0; d1 |], [| s0; s1 |] ->
              fun f ->
                bump k cy;
                let r = f.ir in
                let v0 = r.(s0) and v1 = r.(s1) in
                r.(d0) <- v0;
                r.(d1) <- v1;
                poll cpu bci rest;
                bodies.(t) f
          | [| Mv_value; Mv_value |], [| d0; d1 |], [| s0; s1 |] ->
              fun f ->
                bump k cy;
                let r = f.vr in
                let v0 = r.(s0) and v1 = r.(s1) in
                r.(d0) <- v0;
                r.(d1) <- v1;
                poll cpu bci rest;
                bodies.(t) f
          | _ ->
              let ti, tv = scratch () in
              fun f ->
                bump k cy;
                parallel_move kinds dsts srcs ti tv f;
                poll cpu bci rest;
                bodies.(t) f)
  in
  let transfer k cy ~pred ~succ : chain =
    match p.Ir_exec.p_phis.(succ) with
    | None -> jump k cy (entering succ)
    | Some pb -> move_edge k cy ~pred ~succ pb
  in
  (* a branch arm into [succ] (see [take]): the branch polls and calls
     the target's chain itself unless the edge has moves; a phi-less arm
     back into a block not yet built goes through a closure that only
     jumps, the one left, which no Table-1 row runs *)
  let arm ~pred ~succ =
    match p.Ir_exec.p_phis.(succ) with
    | Some pb -> (no_poll, [||], move_edge 0 0 ~pred ~succ pb)
    | None -> (
        let e = entering succ in
        match e.e_dest with
        | Direct next -> (e.e_bci, e.e_rest, next)
        | Via t -> (e.e_bci, e.e_rest, fun f -> bodies.(t) f))
  in
  (* [k] and [cy]: the charge pending at the end of the block, which
     rides on its terminator *)
  let compile_term (b : Graph.block) k cy : chain =
    let charged (c : chain) : chain =
      if k = 0 then c
      else fun f ->
        bump k cy;
        c f
    in
    let bid = b.Graph.b_id in
    match b.Graph.term with
    | Graph.Return None -> charged (fun _ -> None)
    | Graph.Return (Some x) ->
        if regs.(x) = R_int then charged (fun f -> Some (Vint f.ir.(x)))
        else charged (fun f -> Some f.vr.(x))
    | Graph.Deopt d ->
        (* the lookup reads the value file: box every int register the
           frame state names first *)
        let ints = Array.of_list (deopt_boxes pl d) in
        charged (fun f ->
            for i = 0 to Array.length ints - 1 do
              let x = ints.(i) in
              f.vr.(x) <- Vint f.ir.(x)
            done;
            let vr = f.vr in
            raise (Ir_exec.Deoptimize (d, fun id -> vr.(id))))
    | Graph.Trap msg -> charged (fun _ -> Interp.trap "%s" msg)
    | Graph.Unreachable -> charged (fun _ -> Interp.trap "reached an Unreachable terminator")
    | Graph.Goto t -> transfer k cy ~pred:bid ~succ:t
    | Graph.If { cond; tru; fls; _ } -> (
        let bt, rt, et = arm ~pred:bid ~succ:tru in
        let bf, rf, ef = arm ~pred:bid ~succ:fls in
        match pl.fused.(bid) with
        | Some c -> (
            match (Graph.node g c).Node.op with
            | Node.Cmp (cmp, x, y) ->
                compile_fused k (cy + base) cmp (int_operand x) (int_operand y) bt rt et bf rf ef
            | _ -> assert false)
        | None ->
            let cy = cy + base in
            if k = 0 then fun f ->
              cycles_cell.(cycles) <- cycles_cell.(cycles) + cy;
              match f.vr.(cond) with
              | Vbool true -> take cpu bt rt et f
              | Vbool false -> take cpu bf rf ef f
              | v -> if Interp.as_bool v then take cpu bt rt et f else take cpu bf rf ef f
            else fun f ->
              bump k cy;
              match f.vr.(cond) with
              | Vbool true -> take cpu bt rt et f
              | Vbool false -> take cpu bf rf ef f
              | v -> if Interp.as_bool v then take cpu bt rt et f else take cpu bf rf ef f)
  in
  (* the constants of the register file, filled when a file is made *)
  let consts = ref [] in
  (* the blocks in post-order: every successor but a back edge's target
     is built before its predecessor, so transfers call its chain *)
  let build bid =
    let b = Graph.block g bid in
    building := bid;
    (* the charges, forwards: a constant's, a fused comparison's and
       that of an int operation that cannot trap are pending until the
       next closure that charges, which takes them on *)
    let fused = Option.value pl.fused.(bid) ~default:(-1) in
    let k = ref 0 and cy = ref 0 in
    let steps = ref [] in
    let int_op (n : Node.t) a b =
      if cannot_trap n.Node.op a b then steps := Int_op (n, 0, 0, a, b) :: !steps
      else begin
        steps := Int_op (n, !k, !cy, a, b) :: !steps;
        k := 0;
        cy := 0
      end
    in
    Pea_support.Dyn_array.iter
      (fun (n : Node.t) ->
        k := !k + 1;
        cy := !cy + base + op_cost n.Node.op;
        match n.Node.op with
        | Node.Const c -> consts := (n.Node.id, c) :: !consts
        | Node.Param _ -> ()
        | _ when n.Node.id = fused -> ()
        | Node.Arith (op, a, b) ->
            let a, b = arith_operands op (int_operand a) (int_operand b) in
            int_op n a b
        | Node.Neg a ->
            let a = int_operand a in
            int_op n a a
        | _ ->
            steps := Op (n, !k, !cy) :: !steps;
            k := 0;
            cy := 0)
      b.Graph.instrs;
    match (b.Graph.term, !steps) with
    | Graph.Goto t, [] when !k = 0 && Option.is_none p.Ir_exec.p_phis.(t) ->
        (* no closure of its own: a transfer into it polls its safepoint
           and goes on into [t] *)
        let e = entering t in
        bodies.(bid) <- jump 0 0 e;
        passes :=
          ( bid,
            { e_bci = block_bcis.(bid); e_rest = Array.append [| e.e_bci |] e.e_rest; e_dest = e.e_dest }
          )
          :: !passes
    | _ ->
        (* the chain is linked from its terminator backwards; a value
           consumer's int operands are boxed just before it *)
        let chain =
          List.fold_left
            (fun next -> function
              | Op (n, k, cy) ->
                  let c = compile_instr n k cy next in
                  if Node.exists_operand is_int n.Node.op then
                    List.fold_right box (boxed_operands pl n) c
                  else c
              | Int_op (n, k, cy, a, b) -> compile_int_op n k cy a b next)
            (compile_term b !k !cy) !steps
        in
        bodies.(bid) <- chain
  in
  for i = 0 to n_order - 1 do
    build order.(i)
  done;
  (* a block's sites are listed in instruction order, as its chain is
     linked backwards *)
  List.iter seed_ic (List.stable_sort (fun (a, _, _, _) (b, _, _, _) -> Int.compare a b) !ic_sites);
  let consts = !consts in
  let int_consts =
    List.filter_map (function id, Node.Cint v -> Some (id, v) | _ -> None) consts
  in
  let e = entering Graph.entry_id in
  {
    nregs = max (Graph.n_nodes g) 1;
    param_ids = Array.of_list (List.map (fun (p : Node.t) -> p.Node.id) g.Graph.params);
    const_ids = Array.of_list (List.map fst consts);
    const_values = Array.of_list (List.map (fun (_, c) -> const_value c) consts);
    int_const_ids = Array.of_list (List.map fst int_consts);
    int_const_values = Array.of_list (List.map snd int_consts);
    entry_bci = e.e_bci;
    entry_rest = e.e_rest;
    entry = (match e.e_dest with Direct c -> c | Via t -> bodies.(t));
    cpu;
    pool = [];
    method_name = meth;
  }

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let pool_depth code = List.length code.pool

(* a fresh register file, its constants filled in *)
let make_frame code =
  let vr = Array.make code.nregs Vnull and ir = Array.make code.nregs 0 in
  for i = 0 to Array.length code.const_ids - 1 do
    vr.(code.const_ids.(i)) <- code.const_values.(i)
  done;
  for i = 0 to Array.length code.int_const_ids - 1 do
    ir.(code.int_const_ids.(i)) <- code.int_const_values.(i)
  done;
  { vr; ir }

(* parameter [i] onwards from [args]; a top-level function, so binding
   the arguments allocates no closure *)
let rec bind_params code vr i args =
  if i < Array.length code.param_ids then
    match args with
    | v :: vs ->
        vr.(code.param_ids.(i)) <- v;
        bind_params code vr (i + 1) vs
    | [] -> Interp.trap "missing argument %d for %s" i code.method_name

let run (code : code) (args : Value.value list) : Value.value option =
  let f =
    match code.pool with
    | [] -> make_frame code
    | a :: rest ->
        code.pool <- rest;
        a
  in
  bind_params code f.vr 0 args;
  (* the entry block's safepoint, as a transfer into it would poll it *)
  poll code.cpu code.entry_bci code.entry_rest;
  match code.entry f with
  | r ->
      code.pool <- f :: code.pool;
      r
  | exception (Ir_exec.Deoptimize _ as e) ->
      (* the exception carries the [vr]-backed lookup out of this frame:
         the file goes with it *)
      raise e
  | exception e ->
      code.pool <- f :: code.pool;
      raise e
