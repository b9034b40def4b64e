(* Mutation harness for the speculation-safety tooling: seed a defect
   into otherwise-correct deopt metadata and assert the verifier flags
   it. Every corruption class the static verifier claims to rule out
   (SPEC01..SPEC10) is seeded here and must be caught with exactly that
   rule id; corruptions that are statically well-formed but semantically
   wrong (a lying rematerialized value) must instead be caught by the
   deopt oracle at runtime. Each static case first asserts the pristine
   compiled graph verifies cleanly — the harness doubly serves as the
   false-positive gate.

   Graphs are mutated after offline compilation (static cases read
   [Vm.compiled_graph]; runtime cases compile with [Jit.compile] and hand
   the mutated graph to the VM through [Test_support.install_offline],
   before the closure tier translates it) or hand-built where a
   corruption needs a shape the compiler would never emit. *)

open Pea_bytecode
open Pea_rt
open Pea_vm
module Graph = Pea_ir.Graph
module Node = Pea_ir.Node
module Frame_state = Pea_ir.Frame_state
module Check = Pea_ir.Check
module Spec_check = Pea_analysis.Spec_check

let vint, vbool, as_int = Test_support.(vint, vbool, as_int)

let rules vs = List.sort_uniq compare (List.map (fun v -> v.Spec_check.v_rule) vs)

let check_clean g =
  Alcotest.(check (list string)) "pristine graph verifies cleanly" [] (rules (Spec_check.check g))

let expect_rule rule g =
  let found = rules (Spec_check.check g) in
  if not (List.mem rule found) then
    Alcotest.failf "expected %s, verifier reported [%s]" rule (String.concat "; " found)

(* A method whose compiled form carries a deopt with one scalar-replaced
   object (the paper's running example). *)
let remat_src =
  "class I { int val; }\n\
   class C {\n\
  \  static I global;\n\
  \  static int f(int x, boolean cold) {\n\
  \    I i = new I();\n\
  \    i.val = x;\n\
  \    if (cold) { C.global = i; }\n\
  \    return i.val + 1;\n\
  \  }\n\
   }"

let locked_src =
  "class Box { int v; }\n\
   class C {\n\
  \  static Box sink;\n\
  \  static int f(int x, boolean cold) {\n\
  \    Box b = new Box();\n\
  \    b.v = x;\n\
  \    synchronized (b) {\n\
  \      if (cold) { C.sink = b; }\n\
  \      b.v = b.v + 1;\n\
  \    }\n\
  \    return b.v;\n\
  \  }\n\
   }"

let setup ?(config = { Jit.default_config with Jit.compile_threshold = 25 }) src =
  let program = Link.compile_source ~require_main:false src in
  (program, Vm.create ~config program)

(* Warm [C.f] until compiled and hand its installed graph over. *)
let compiled_graph_of ?config src warm_args =
  let program, vm = setup ?config src in
  let f = Link.find_method program "C" "f" in
  Vm.warm_up vm f warm_args 40;
  match Vm.compiled_graph vm f with
  | Some g -> (program, vm, f, g)
  | None -> Alcotest.fail "method did not compile"

(* Rewrite the state of every Deopt terminator through [f]. *)
let mutate_deopt_states g f =
  let hit = ref 0 in
  Graph.iter_blocks
    (fun b ->
      match b.Graph.term with
      | Graph.Deopt d ->
          incr hit;
          b.Graph.term <- Graph.Deopt { d with Graph.d_state = f d.Graph.d_state }
      | _ -> ())
    g;
  Alcotest.(check bool) "a deopt state was mutated" true (!hit > 0)

(* ------------------------------------------------------------------ *)
(* Static mutations: one per verifier rule                             *)
(* ------------------------------------------------------------------ *)

(* Cases that corrupt scalar-replacement metadata (virtual-object
   descriptors) name the optimization level they need: without PEA,
   deopt states carry no descriptors and the seeded corruption would
   silently be a no-op. *)
let pea_config = { Jit.default_config with Jit.compile_threshold = 25; Jit.opt = Jit.O_pea }

(* SPEC01: strip the descriptors, leave the F_virtual references. *)
let test_drop_descriptor () =
  let _, _, _, g = compiled_graph_of ~config:(pea_config) remat_src [ vint 7; vbool false ] in
  check_clean g;
  mutate_deopt_states g (fun fs -> { fs with Frame_state.fs_virtuals = [] });
  expect_rule "SPEC01" g

(* SPEC02: point a state at a node id that exists nowhere. *)
let test_dangling_node () =
  let _, _, _, g = compiled_graph_of remat_src [ vint 7; vbool false ] in
  check_clean g;
  mutate_deopt_states g
    (Frame_state.map_values (function
      | Frame_state.F_node _ -> Frame_state.F_node 999983
      | v -> v));
  expect_rule "SPEC02" g

(* SPEC03: re-declare a virtual with a contradicting descriptor. *)
let test_conflicting_descriptor () =
  let _, _, _, g = compiled_graph_of ~config:(pea_config) remat_src [ vint 7; vbool false ] in
  check_clean g;
  mutate_deopt_states g (fun fs ->
      match fs.Frame_state.fs_virtuals with
      | (id, vd) :: _ ->
          let vd' = { vd with Frame_state.vd_lock = vd.Frame_state.vd_lock + 1 } in
          { fs with Frame_state.fs_virtuals = fs.Frame_state.fs_virtuals @ [ (id, vd') ] }
      | [] -> fs);
  expect_rule "SPEC03" g

(* SPEC04: erase the frame state of a call site. *)
let test_missing_invoke_state () =
  let src =
    "class C {\n\
    \  static int big(int x) { int a = x; a = a + 1; a = a * 2; a = a - 3; a = a * a;\n\
    \    a = a + x; a = a * 2; a = a - x; a = a + 7; a = a * 3; return a; }\n\
    \  static int f(int x, boolean cold) { if (cold) { return 0 - 1; } return C.big(x); }\n\
     }"
  in
  let config = { Jit.default_config with Jit.compile_threshold = 25; Jit.max_callee_size = 1 } in
  let _, _, _, g = compiled_graph_of ~config src [ vint 7; vbool false ] in
  check_clean g;
  let hit = ref 0 in
  Graph.iter_blocks
    (fun b ->
      List.iter
        (fun (n : Node.t) ->
          match n.Node.op with
          | Node.Invoke _ ->
              incr hit;
              n.Node.fs <- None
          | _ -> ())
        (Graph.instr_list b))
    g;
  Alcotest.(check bool) "an invoke was stripped" true (!hit > 0);
  expect_rule "SPEC04" g

(* SPEC05: drift a virtual's recorded lock depth off the lock stacks. *)
let test_lock_depth_drift () =
  let _, _, _, g = compiled_graph_of ~config:(pea_config) locked_src [ vint 7; vbool false ] in
  check_clean g;
  mutate_deopt_states g (fun fs ->
      {
        fs with
        Frame_state.fs_virtuals =
          List.map
            (fun (id, vd) -> (id, { vd with Frame_state.vd_lock = vd.Frame_state.vd_lock + 1 }))
            fs.Frame_state.fs_virtuals;
      });
  expect_rule "SPEC05" g

(* Hand-built graphs, for shapes the compiler never emits. *)
let hand_graph program =
  let m = Link.find_method program "C" "f" in
  let g = Graph.create m in
  let b = Graph.new_block g in
  b.Graph.term <- Graph.Return None;
  (m, g, b)

let mk_fs ?(bci = 0) ?(virtuals = []) ?outer m =
  {
    Frame_state.fs_method = m;
    fs_bci = bci;
    fs_locals = [||];
    fs_stack = [];
    fs_locks = [];
    fs_outer = outer;
    fs_virtuals = virtuals;
  }

(* SPEC06: a virtual that a dominating state already dropped
   (materialized) is declared virtual again downstream. *)
let test_escape_regression () =
  let program = Link.compile_source ~require_main:false remat_src in
  let m, g, b = hand_graph program in
  let cls = Link.find_class program "I" in
  let vd =
    { Frame_state.vd_shape = Frame_state.Obj_shape cls; vd_fields = [||]; vd_lock = 0 }
  in
  let declare = mk_fs ~virtuals:[ (1, vd) ] m in
  let dropped = mk_fs m in
  let n1 = Graph.append g b (Node.Const (Frame_state.Cint 0)) in
  let n2 = Graph.append g b (Node.Const (Frame_state.Cint 0)) in
  let n3 = Graph.append g b (Node.Const (Frame_state.Cint 0)) in
  n1.Node.fs <- Some declare;
  n2.Node.fs <- Some dropped;
  n3.Node.fs <- Some declare;
  expect_rule "SPEC06" g

(* SPEC07: an OSR graph that loses a local-slot transfer. *)
let test_transfer_map_hole () =
  let src =
    "class C {\n\
    \  static int f(int n) {\n\
    \    int acc = 0;\n\
    \    int i = 0;\n\
    \    while (i < n) { acc = acc + i; i = i + 1; }\n\
    \    return acc;\n\
    \  }\n\
     }"
  in
  let program = Link.compile_source ~require_main:false src in
  let f = Link.find_method program "C" "f" in
  let profile = Profile.create program in
  let config = Jit.default_config in
  (* find the loop header the interpreter would OSR at: the only
     back-edge target; build directly at bci of the while condition *)
  let compiled =
    Jit.compile config program profile f
      ~osr_at:
        (let code = f.Classfile.mth_code in
         let header = ref (-1) in
         Array.iteri
           (fun src instr ->
             match instr with
             | Classfile.Goto t | Classfile.If_true t | Classfile.If_false t ->
                 if t <= src && !header < 0 then header := t
             | _ -> ())
           code;
         !header)
  in
  let g = compiled.Jit.graph in
  check_clean g;
  (match g.Graph.params with
  | _ :: rest -> g.Graph.params <- rest
  | [] -> Alcotest.fail "OSR graph has no params");
  expect_rule "SPEC07" g;
  (* satellite: the structural IR checker must reject it too *)
  Alcotest.(check bool) "IR checker rejects the malformed transfer map" true
    (Check.check g <> [])

(* SPEC08: deopt provenance pointing at a non-branch bytecode. *)
let test_edge_off_branch () =
  let _, _, f, g = compiled_graph_of remat_src [ vint 7; vbool false ] in
  check_clean g;
  let hit = ref 0 in
  Graph.iter_blocks
    (fun b ->
      match b.Graph.term with
      | Graph.Deopt ({ d_edge = Some e; _ } as d) ->
          incr hit;
          b.Graph.term <- Graph.Deopt { d with Graph.d_edge = Some { e with Graph.de_src = 0 } }
      | _ -> ())
    g;
  Alcotest.(check bool) "a deopt edge was bent" true (!hit > 0);
  (* bci 0 of C.f is the allocation, not a branch *)
  Alcotest.(check bool) "bci 0 is not a branch" true
    (match f.Classfile.mth_code.(0) with
    | Classfile.If_true _ | Classfile.If_false _ -> false
    | _ -> true);
  expect_rule "SPEC08" g

(* SPEC09: resume bci outside the method's code. *)
let test_resume_out_of_range () =
  let _, _, _, g = compiled_graph_of remat_src [ vint 7; vbool false ] in
  check_clean g;
  mutate_deopt_states g (fun fs -> { fs with Frame_state.fs_bci = 9999 });
  expect_rule "SPEC09" g

(* SPEC10: an outer frame that does not resume just after an invoke. *)
let test_resume_not_after_invoke () =
  let program = Link.compile_source ~require_main:false remat_src in
  let m, g, b = hand_graph program in
  let outer = mk_fs ~bci:0 m in
  let inner = mk_fs ~bci:1 ~outer m in
  let n = Graph.append g b (Node.Const (Frame_state.Cint 0)) in
  n.Node.fs <- Some inner;
  expect_rule "SPEC10" g

(* ------------------------------------------------------------------ *)
(* Dynamic-only mutations: statically well-formed, caught by the       *)
(* oracle at the next deopt                                            *)
(* ------------------------------------------------------------------ *)

(* Oracle on; the graph is compiled offline and mutated before the VM
   installs and translates it. Each
   case first runs the same call on the unmutated graph: it must deopt
   once and return normally, so the divergence below comes from the
   mutation, not from the scenario. *)
let dynamic_config =
  { Jit.default_config with Jit.compile_threshold = 25; Jit.oracle = true }

let expect_divergence ?(src = remat_src) ?(config = dynamic_config) ~needle mutate =
  let run mutate =
    let program, vm = setup ~config src in
    let f = Link.find_method program "C" "f" in
    let g =
      Test_support.install_offline ~mutate ~config vm program f ~warm:([ vint 7; vbool false ], 40)
    in
    (vm, f, g)
  in
  let vm, f, _ = run ignore in
  Alcotest.(check int) "control: result" 124 (as_int (Vm.invoke vm f [ vint 123; vbool true ]));
  Alcotest.(check int) "control: the compiled call deopted" 1
    (Stats.get (Vm.stats vm) Stats.deopts);
  let vm, f, g = run mutate in
  (* the corruption must be invisible to the static verifier — that is
     what makes it the oracle's job *)
  Alcotest.(check (list string)) "statically clean" [] (rules (Spec_check.check g));
  match Vm.invoke vm f [ vint 123; vbool true ] with
  | exception Oracle.Divergence dv ->
      let msg = Oracle.string_of_divergence dv in
      if not (Test_support.contains msg needle) then
        Alcotest.failf "divergence %S does not mention %S" msg needle
  | r ->
      Alcotest.failf "oracle missed the corruption; run returned %d (deopts=%d)" (as_int r)
        (Stats.get (Vm.stats vm) Stats.deopts)

(* a rematerialized local that lies about its value *)
let test_remat_local_lie () =
  expect_divergence ~needle:"local 0" (fun g ->
      mutate_deopt_states g (fun fs ->
          let locals = Array.copy fs.Frame_state.fs_locals in
          Alcotest.(check bool) "has a local" true (Array.length locals > 0);
          locals.(0) <- Frame_state.F_const (Frame_state.Cint 999);
          { fs with Frame_state.fs_locals = locals }))

(* a descriptor whose field value lies: the rematerialized object escapes
   through the global with the wrong contents. Pinned to pea for the
   same reason as the SPEC01/03/05 cases: without scalar replacement
   there is no descriptor to corrupt. *)
let test_descriptor_field_lie () =
  expect_divergence
    ~config:{ (dynamic_config) with Jit.opt = Jit.O_pea }
    ~needle:"field"
    (fun g ->
      mutate_deopt_states g (fun fs ->
          {
            fs with
            Frame_state.fs_virtuals =
              List.map
                (fun (id, vd) ->
                  let fields = Array.copy vd.Frame_state.vd_fields in
                  Alcotest.(check bool) "has a field" true (Array.length fields > 0);
                  fields.(0) <- Frame_state.F_const (Frame_state.Cint 777);
                  (id, { vd with Frame_state.vd_fields = fields }))
                fs.Frame_state.fs_virtuals;
          }))

(* a phantom operand on the resume stack *)
let test_stack_smash () =
  expect_divergence ~needle:"operand stack" (fun g ->
      mutate_deopt_states g (fun fs ->
          {
            fs with
            Frame_state.fs_stack =
              Frame_state.F_const (Frame_state.Cint 5) :: fs.Frame_state.fs_stack;
          }))

let () =
  Alcotest.run "mutation"
    [
      ( "static",
        [
          Alcotest.test_case "SPEC01 dropped descriptor" `Quick test_drop_descriptor;
          Alcotest.test_case "SPEC02 dangling node" `Quick test_dangling_node;
          Alcotest.test_case "SPEC03 conflicting descriptor" `Quick test_conflicting_descriptor;
          Alcotest.test_case "SPEC04 missing invoke state" `Quick test_missing_invoke_state;
          Alcotest.test_case "SPEC05 lock depth drift" `Quick test_lock_depth_drift;
          Alcotest.test_case "SPEC06 escape regression" `Quick test_escape_regression;
          Alcotest.test_case "SPEC07 transfer-map hole" `Quick test_transfer_map_hole;
          Alcotest.test_case "SPEC08 edge off branch" `Quick test_edge_off_branch;
          Alcotest.test_case "SPEC09 resume out of range" `Quick test_resume_out_of_range;
          Alcotest.test_case "SPEC10 resume not after invoke" `Quick test_resume_not_after_invoke;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "lying rematerialized local" `Quick test_remat_local_lie;
          Alcotest.test_case "lying descriptor field" `Quick test_descriptor_field_lie;
          Alcotest.test_case "phantom stack operand" `Quick test_stack_smash;
        ] );
    ]
