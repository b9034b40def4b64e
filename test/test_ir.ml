(* Unit tests for the IR layer: graph builder (SSA construction, loops,
   critical edges, frame states), dominators, loop forest, checker and
   printer. *)

open Pea_bytecode
open Pea_ir

let build_main src =
  let program = Link.compile_source src in
  (program, Builder.build (Link.entry_exn program))

let build_method src cls name =
  let program = Link.compile_source ~require_main:false src in
  (program, Builder.build (Link.find_method program cls name))

let main_wrap body = Printf.sprintf "class Main { static int main() { %s } }" body

let count_ops g p =
  let n = ref 0 in
  let reachable = Graph.reachable g in
  Graph.iter_blocks
    (fun b ->
      if reachable.(b.Graph.b_id) then begin
        List.iter (fun (x : Node.t) -> if p x.Node.op then incr n) b.Graph.phis;
        Pea_support.Dyn_array.iter (fun (x : Node.t) -> if p x.Node.op then incr n) b.Graph.instrs
      end)
    g;
  !n

let is_phi = function Node.Phi _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)
(* ------------------------------------------------------------------ *)

let test_straight_line () =
  let _, g = build_main (main_wrap "int a = 1; int b = 2; return a + b;") in
  Check.check_exn g;
  Alcotest.(check int) "no phis" 0 (count_ops g is_phi)

let test_if_phi () =
  let _, g =
    build_main (main_wrap "int x = 0; if (1 < 2) x = 1; else x = 2; return x;")
  in
  Check.check_exn g;
  Alcotest.(check int) "one phi for x" 1 (count_ops g is_phi)

let test_loop_phis_simplified () =
  (* acc and i are loop-carried: exactly two loop phis survive *)
  let _, g =
    build_main (main_wrap "int i = 0; int acc = 0; while (i < 9) { acc = acc + i; i = i + 1; } return acc;")
  in
  Check.check_exn g;
  Alcotest.(check int) "two loop phis" 2 (count_ops g is_phi);
  (* invariant: a loop header block exists *)
  let has_header = ref false in
  Graph.iter_blocks (fun b -> if b.Graph.kind = Graph.Loop_header then has_header := true) g;
  Alcotest.(check bool) "has loop header" true !has_header

let test_loop_invariant_no_phi () =
  (* x never changes in the loop: the eager phi must be simplified away *)
  let _, g =
    build_main
      (main_wrap "int x = 7; int i = 0; while (i < 5) { i = i + x; } return x;")
  in
  Check.check_exn g;
  (* only i is loop-carried *)
  Alcotest.(check int) "one phi" 1 (count_ops g is_phi)

let test_critical_edges_split () =
  (* every predecessor of a block with >1 preds must have exactly one
     successor (critical edges split) *)
  let _, g =
    build_main
      (main_wrap
         "int r = 0; int i = 0;\n\
          while (i < 10) { if (i % 2 == 0) r = r + 1; i = i + 1; }\n\
          return r;")
  in
  Check.check_exn g;
  let reachable = Graph.reachable g in
  Graph.iter_blocks
    (fun b ->
      if reachable.(b.Graph.b_id) && List.length b.Graph.preds > 1 then
        List.iter
          (fun p ->
            let np = List.length (Graph.successors (Graph.block g p).Graph.term) in
            if np <> 1 then
              Alcotest.failf "B%d (pred of merge B%d) has %d successors" p b.Graph.b_id np)
          b.Graph.preds)
    g

let test_frame_states_on_side_effects () =
  let _, g =
    build_main
      "class Main { static int g; static int main() { g = 41; g = g + 1; return g; } }"
  in
  Check.check_exn g;
  let reachable = Graph.reachable g in
  Graph.iter_blocks
    (fun b ->
      if reachable.(b.Graph.b_id) then
        Pea_support.Dyn_array.iter
          (fun (n : Node.t) ->
            if Node.has_side_effect n.Node.op && n.Node.fs = None then
              Alcotest.failf "node v%d has no frame state" n.Node.id)
          b.Graph.instrs)
    g

let test_frame_state_bci_points_after () =
  (* the frame state of a store describes the state after it *)
  let program, g = build_main "class Main { static int g; static int main() { g = 1; return g; } }" in
  ignore program;
  let found = ref false in
  Graph.iter_blocks
    (fun b ->
      Pea_support.Dyn_array.iter
        (fun (n : Node.t) ->
          match n.Node.op, n.Node.fs with
          | Node.Store_static _, Some fs ->
              found := true;
              Alcotest.(check string)
                "method" "Main.main"
                (Classfile.qualified_name fs.Frame_state.fs_method);
              Alcotest.(check (list Alcotest.string)) "empty stack after store" []
                (List.map Frame_state.string_of_fs_value fs.Frame_state.fs_stack)
          | _ -> ())
        b.Graph.instrs)
    g;
  Alcotest.(check bool) "store found" true !found

let test_entry_loop_header () =
  (* a while loop as the first statement: bci 0 is a jump target; the
     builder must synthesize a clean entry *)
  let _, g =
    build_method
      "class C { static int f(int n) { while (n > 0) { n = n - 1; } return n; } }"
      "C" "f"
  in
  Check.check_exn g;
  Alcotest.(check (list Alcotest.int)) "entry has no preds" []
    (Graph.block g Graph.entry_id).Graph.preds

let test_undef_locals () =
  (* declared-but-unassigned locals read as undef without crashing the
     builder *)
  let _, g = build_main (main_wrap "int x; if (1 < 2) x = 1; return 0;") in
  Check.check_exn g

let test_locks_in_frame_states () =
  let _, g =
    build_method
      "class C { int v; static int f(C c) { synchronized (c) { c.v = 1; } return c.v; } }"
      "C" "f"
  in
  Check.check_exn g;
  (* the store inside the synchronized region must record the held lock *)
  let found = ref false in
  Graph.iter_blocks
    (fun b ->
      Pea_support.Dyn_array.iter
        (fun (n : Node.t) ->
          match n.Node.op, n.Node.fs with
          | Node.Store_field _, Some fs ->
              found := true;
              Alcotest.(check int) "one lock held" 1 (List.length fs.Frame_state.fs_locks)
          | _ -> ())
        b.Graph.instrs)
    g;
  Alcotest.(check bool) "store found" true !found

(* ------------------------------------------------------------------ *)
(* Dominators and loops                                                *)
(* ------------------------------------------------------------------ *)

let diamond_src =
  main_wrap "int x = 0; if (1 < 2) x = 1; else x = 2; return x;"

let test_dominators_diamond () =
  let _, g = build_main diamond_src in
  let doms = Dominators.compute g in
  (* entry dominates everything *)
  let reachable = Graph.reachable g in
  Graph.iter_blocks
    (fun b ->
      if reachable.(b.Graph.b_id) then
        Alcotest.(check bool)
          (Printf.sprintf "entry dominates B%d" b.Graph.b_id)
          true
          (Dominators.dominates doms Graph.entry_id b.Graph.b_id))
    g;
  (* no non-entry block dominates the entry *)
  Graph.iter_blocks
    (fun b ->
      if b.Graph.b_id <> Graph.entry_id then
        Alcotest.(check bool)
          (Printf.sprintf "B%d does not dominate entry" b.Graph.b_id)
          false
          (Dominators.dominates doms b.Graph.b_id Graph.entry_id))
    g

let test_loop_forest () =
  let _, g =
    build_main
      (main_wrap
         "int acc = 0; int i = 0;\n\
          while (i < 5) { int j = 0; while (j < 5) { acc = acc + 1; j = j + 1; } i = i + 1; }\n\
          return acc;")
  in
  let doms = Dominators.compute g in
  let loops = Loops.compute g doms in
  Alcotest.(check int) "two loops" 2 (Loops.n_loops loops);
  (* one loop must be nested in the other *)
  let parents =
    Hashtbl.fold (fun _ l acc -> l.Loops.parent :: acc) loops.Loops.loops []
  in
  let nested = List.filter Option.is_some parents in
  Alcotest.(check int) "one nested loop" 1 (List.length nested)

let test_no_loops () =
  let _, g = build_main diamond_src in
  let doms = Dominators.compute g in
  let loops = Loops.compute g doms in
  Alcotest.(check int) "no loops" 0 (Loops.n_loops loops)

(* ------------------------------------------------------------------ *)
(* Checker and printer                                                 *)
(* ------------------------------------------------------------------ *)

let test_checker_catches_dangling_use () =
  let _, g = build_main (main_wrap "return 1 + 2;") in
  (* corrupt: reference a nonexistent node from the terminator *)
  let entry = Graph.block g Graph.entry_id in
  let rec last_block b = match b.Graph.term with Graph.Goto t -> last_block (Graph.block g t) | _ -> b in
  let b = last_block entry in
  b.Graph.term <- Graph.Return (Some 99999);
  match Check.check g with
  | [] -> Alcotest.fail "checker accepted a dangling use"
  | _ -> ()

let test_checker_catches_phi_arity () =
  let _, g = build_main (main_wrap "int x = 0; if (1 < 2) x = 1; else x = 2; return x;") in
  let broken = ref false in
  Graph.iter_blocks
    (fun b ->
      List.iter
        (fun (phi : Node.t) ->
          match phi.Node.op with
          | Node.Phi p ->
              p.Node.inputs <- Array.sub p.Node.inputs 0 1;
              broken := true
          | _ -> ())
        b.Graph.phis)
    g;
  if !broken then
    match Check.check g with
    | [] -> Alcotest.fail "checker accepted wrong phi arity"
    | _ -> ()

let contains = Test_support.contains

let test_checker_invoke_frame_state_rule () =
  (* stripping the frame state from an invoke violates the default rules
     but is accepted with [require_frame_states:false] *)
  let _, g =
    build_main
      "class C { static int f() { return 1; } }\n\
       class Main { static int main() { return C.f(); } }"
  in
  Check.check_exn g;
  let stripped = ref 0 in
  Graph.iter_blocks
    (fun b ->
      Pea_support.Dyn_array.iter
        (fun (n : Node.t) ->
          match n.Node.op with
          | Node.Invoke _ ->
              n.Node.fs <- None;
              incr stripped
          | _ -> ())
        b.Graph.instrs)
    g;
  Alcotest.(check bool) "an invoke was stripped" true (!stripped > 0);
  (match Check.check g with
  | [] -> Alcotest.fail "checker accepted an invoke without frame state"
  | _ -> ());
  Alcotest.(check (list Alcotest.string))
    "accepted without the invoke rule" []
    (Check.check ~require_frame_states:false g)

let test_checker_catches_dominance_violation () =
  (* redirect both phi inputs to a value computed in only one branch: the
     use at the end of the other predecessor is no longer dominated *)
  let _, g =
    build_method
      "class C { static int f(int a) { int x = 0; if (a < 2) x = a + 1; else x = 2; return x; } }"
      "C" "f"
  in
  Check.check_exn g;
  let add_id = ref (-1) in
  Graph.iter_blocks
    (fun b ->
      Pea_support.Dyn_array.iter
        (fun (n : Node.t) ->
          match n.Node.op with
          | Node.Arith (Node.Add, _, _) -> add_id := n.Node.id
          | _ -> ())
        b.Graph.instrs)
    g;
  Alcotest.(check bool) "found the add" true (!add_id >= 0);
  let broken = ref false in
  Graph.iter_blocks
    (fun b ->
      List.iter
        (fun (phi : Node.t) ->
          match phi.Node.op with
          | Node.Phi p when Array.length p.Node.inputs = 2 ->
              p.Node.inputs <- [| !add_id; !add_id |];
              broken := true
          | _ -> ())
        b.Graph.phis)
    g;
  Alcotest.(check bool) "a phi was corrupted" true !broken;
  match Check.check g with
  | [] -> Alcotest.fail "checker accepted a non-dominated phi input"
  | errs ->
      Alcotest.(check bool) "mentions dominance" true
        (List.exists (fun e -> contains e "dominated") errs)

let test_checker_catches_missing_virtual_descriptor () =
  (* a frame state referencing a virtual object must carry a descriptor *)
  let _, g =
    build_main "class Main { static int g; static int main() { g = 1; return g; } }"
  in
  Check.check_exn g;
  let broken = ref false in
  Graph.iter_blocks
    (fun b ->
      Pea_support.Dyn_array.iter
        (fun (n : Node.t) ->
          match n.Node.fs with
          | Some fs when not !broken ->
              n.Node.fs <-
                Some
                  { fs with
                    Frame_state.fs_stack = Frame_state.F_virtual 42 :: fs.Frame_state.fs_stack
                  };
              broken := true
          | _ -> ())
        b.Graph.instrs)
    g;
  Alcotest.(check bool) "a frame state was corrupted" true !broken;
  match Check.check g with
  | [] -> Alcotest.fail "checker accepted an undescribed virtual object"
  | errs ->
      Alcotest.(check bool) "mentions descriptor" true
        (List.exists (fun e -> contains e "descriptor") errs)

let test_printer_shows_structure () =
  (* the printed IR names blocks, kinds, phis and frame states *)
  let _, g =
    build_main
      (main_wrap
         "class never used placeholder" |> fun _ ->
       "class Main { static int g; static int main() { int i = 0; int acc = 0; while (i < 3) { Main.g = acc; acc = acc + i; i = i + 1; } return acc; } }")
  in
  let s = Printer.to_string g in
  let has sub =
    let n = String.length sub in
    let rec loop i = i + n <= String.length s && (String.sub s i n = sub || loop (i + 1)) in
    loop 0
  in
  Alcotest.(check bool) "loop header shown" true (has "(loop header)");
  Alcotest.(check bool) "phi shown" true (has "phi(");
  Alcotest.(check bool) "frame state shown" true (has "@Main.main:");
  Alcotest.(check bool) "store shown" true (has "Main.g =")

let test_printer_output () =
  let _, g = build_main (main_wrap "int x = 1; return x + 2;") in
  let s = Printer.to_string g in
  Alcotest.(check bool) "mentions graph name" true (contains s "Main.main");
  let dot = Printer.to_dot g in
  Alcotest.(check bool) "dot output" true (contains dot "digraph")

let () =
  Alcotest.run "ir"
    [
      ( "builder",
        [
          Alcotest.test_case "straight line" `Quick test_straight_line;
          Alcotest.test_case "if creates phi" `Quick test_if_phi;
          Alcotest.test_case "loop phis" `Quick test_loop_phis_simplified;
          Alcotest.test_case "invariant phi simplified" `Quick test_loop_invariant_no_phi;
          Alcotest.test_case "critical edges split" `Quick test_critical_edges_split;
          Alcotest.test_case "frame states attached" `Quick test_frame_states_on_side_effects;
          Alcotest.test_case "frame state contents" `Quick test_frame_state_bci_points_after;
          Alcotest.test_case "entry loop header" `Quick test_entry_loop_header;
          Alcotest.test_case "undef locals" `Quick test_undef_locals;
          Alcotest.test_case "locks in frame states" `Quick test_locks_in_frame_states;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "dominators diamond" `Quick test_dominators_diamond;
          Alcotest.test_case "loop forest" `Quick test_loop_forest;
          Alcotest.test_case "no loops" `Quick test_no_loops;
        ] );
      ( "checker",
        [
          Alcotest.test_case "dangling use" `Quick test_checker_catches_dangling_use;
          Alcotest.test_case "phi arity" `Quick test_checker_catches_phi_arity;
          Alcotest.test_case "invoke frame-state rule" `Quick test_checker_invoke_frame_state_rule;
          Alcotest.test_case "dominance violation" `Quick test_checker_catches_dominance_violation;
          Alcotest.test_case "missing virtual descriptor" `Quick
            test_checker_catches_missing_virtual_descriptor;
          Alcotest.test_case "printer" `Quick test_printer_output;
          Alcotest.test_case "printer structure" `Quick test_printer_shows_structure;
        ] );
    ]
