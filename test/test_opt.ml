(* Unit tests for the generic optimization passes: canonicalization,
   global value numbering, inlining and speculative branch pruning. *)

open Pea_bytecode
open Pea_ir
module Run = Pea_rt.Run

let build_main src =
  let program = Link.compile_source src in
  (program, Builder.build (Link.entry_exn program))

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

let reachable_blocks g =
  let r = Graph.reachable g in
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 r

(* Execute a graph the way the VM runs compiled code: through the closure
   tier. *)
let run_graph env g args =
  Pea_vm.Closure_compile.run (Pea_vm.Closure_compile.compile env (Pea_vm.Ir_exec.prepare g)) args

(* Run a graph and compare its result with the interpreter, as a semantic
   backstop for every pass test. *)
let result_matches program g =
  let reference = Run.run_program program in
  let r = run_graph (Pea_rt.Interp.make_env program) g [] in
  match r, reference.Run.return_value with
  | Some (Pea_rt.Value.Vint a), Some (Pea_rt.Value.Vint b) -> a = b
  | _ -> false

(* Execute a transformed graph with explicit arguments. *)
let exec_graph_int program g args =
  match run_graph (Pea_rt.Interp.make_env program) g args with
  | Some (Pea_rt.Value.Vint n) -> n
  | _ -> Alcotest.fail "expected an int result"

(* ------------------------------------------------------------------ *)
(* Canonicalization                                                    *)
(* ------------------------------------------------------------------ *)

let test_constant_folding () =
  let program, g = build_main (main_wrap "return 2 + 3 * 4;") in
  ignore (Pea_opt.Canonicalize.run g);
  Check.check_exn g;
  (* everything folds to a single constant return *)
  Alcotest.(check int) "no arithmetic left" 0
    (count_ops g (function Node.Arith _ -> true | _ -> false));
  Alcotest.(check bool) "still correct" true (result_matches program g)

let test_branch_folding () =
  let program, g = build_main (main_wrap "if (1 < 2) return 10; return 20;") in
  let before = reachable_blocks g in
  ignore (Pea_opt.Canonicalize.run g);
  Check.check_exn g;
  Alcotest.(check bool) "blocks removed" true (reachable_blocks g < before);
  Alcotest.(check int) "no branches left" 0
    (count_ops g (function Node.Cmp _ -> true | _ -> false));
  Alcotest.(check bool) "still correct" true (result_matches program g)

let test_identity_simplification () =
  let program, g =
    build_main (main_wrap "int x = 5; int a = x + 0; int b = a * 1; int c = b / 1; return c;")
  in
  ignore (Pea_opt.Canonicalize.run g);
  Check.check_exn g;
  Alcotest.(check int) "all identities removed" 0
    (count_ops g (function Node.Arith _ -> true | _ -> false));
  Alcotest.(check bool) "still correct" true (result_matches program g)

let test_div_by_one_terminates () =
  (* regression: x / 1 on a non-pure Div must not loop the canonicalizer *)
  let program, g = build_main (main_wrap "int x = 7; return (x / 1) % 1;") in
  ignore (Pea_opt.Canonicalize.run g);
  Check.check_exn g;
  Alcotest.(check bool) "still correct" true (result_matches program g)

let test_mul_by_zero () =
  let program, g = build_main (main_wrap "int x = 123; return x * 0 + 4;") in
  ignore (Pea_opt.Canonicalize.run g);
  Check.check_exn g;
  Alcotest.(check int) "folded" 0 (count_ops g (function Node.Arith _ -> true | _ -> false));
  Alcotest.(check bool) "still correct" true (result_matches program g)

(* ------------------------------------------------------------------ *)
(* GVN                                                                 *)
(* ------------------------------------------------------------------ *)

let test_gvn_dedup () =
  let program, g =
    build_main
      "class Main { static int f(int a, int b) { return (a + b) * (a + b) + (b + a); } \
       static int main() { return Main.f(3, 4); } }"
  in
  (* work on f's graph *)
  ignore program;
  let program2 = Link.compile_source
      "class Main { static int f(int a, int b) { return (a + b) * (a + b) + (b + a); } \
       static int main() { return Main.f(3, 4); } }" in
  let f = Link.find_method program2 "Main" "f" in
  let gf = Builder.build f in
  ignore (Pea_opt.Gvn.run gf);
  Check.check_exn gf;
  (* a+b, b+a and the duplicate a+b collapse into one Add (commutative);
     the outer + of the whole expression remains, so two Adds in total *)
  Alcotest.(check int) "two additions" 2
    (count_ops gf (function Node.Arith (Node.Add, _, _) -> true | _ -> false));
  ignore g

let test_gvn_respects_dominance () =
  (* the same expression computed in two sibling branches must NOT be
     merged (neither dominates the other) *)
  let program = Link.compile_source
      "class Main { static int f(int a, boolean c) { int r = 0; if (c) { r = a * a; } else { r = a * a; } return r; } \
       static int main() { return Main.f(3, true); } }" in
  let f = Link.find_method program "Main" "f" in
  let gf = Builder.build f in
  ignore (Pea_opt.Gvn.run gf);
  Check.check_exn gf;
  Alcotest.(check int) "two multiplications remain" 2
    (count_ops gf (function Node.Arith (Node.Mul, _, _) -> true | _ -> false))

(* Every numbered operation kind on the same two values, printed so each
   stays live: GVN may merge only the commutative duplicates and the
   repeated constant, never two different operations. *)
let test_gvn_keys_distinguish_ops () =
  let program =
    Link.compile_source
      "class Main { static int f(int a, int b) { return a; } static int main() { return Main.f(1, 2); } }"
  in
  let m = Link.find_method program "Main" "f" in
  let g = Graph.create m in
  let b = Graph.new_block g in
  let a = (Graph.add_param g 0).Node.id and c = (Graph.add_param g 1).Node.id in
  let cls = m.Classfile.mth_class in
  let ops =
    [
      Node.Arith (Node.Add, a, c); Node.Arith (Node.Add, c, a); Node.Arith (Node.Mul, a, c);
      Node.Arith (Node.Mul, c, a); Node.Arith (Node.Sub, a, c); Node.Arith (Node.Sub, c, a);
      Node.Arith (Node.Div, a, c); Node.Arith (Node.Rem, a, c); Node.Cmp (Classfile.Clt, a, c);
      Node.Cmp (Classfile.Cle, a, c); Node.Cmp (Classfile.Clt, c, a);
      Node.RefCmp (Classfile.AEq, a, c); Node.RefCmp (Classfile.AEq, c, a);
      Node.RefCmp (Classfile.ANe, a, c); Node.Neg a; Node.Not a; Node.Array_length a;
      Node.Instance_of (a, cls); Node.Has_class (a, cls); Node.Const (Node.Cint 1);
      Node.Const (Node.Cbool true); Node.Const (Node.Cint 1); Node.Const Node.Cnull;
      Node.Const Node.Cundef; Node.Const (Node.Cint 0); Node.Const (Node.Cbool false);
    ]
  in
  let values = List.map (fun op -> (Graph.append g b op).Node.id) ops in
  List.iter (fun v -> ignore (Graph.append g b (Node.Print v))) values;
  b.Graph.term <- Graph.Return None;
  Alcotest.(check bool) "something merged" true (Pea_opt.Gvn.run g);
  let printed =
    List.filter_map
      (fun (n : Node.t) -> match n.Node.op with Node.Print v -> Some v | _ -> None)
      (Graph.instr_list b)
  in
  (* a+c = c+a, a*c = c*a, (a == c) = (c == a), and the two [1]s *)
  Alcotest.(check int) "distinct values" (List.length ops - 4)
    (List.length (List.sort_uniq compare printed))

(* ------------------------------------------------------------------ *)
(* Inlining                                                            *)
(* ------------------------------------------------------------------ *)

let test_inline_static () =
  let program, g =
    build_main
      "class Main { static int add(int a, int b) { return a + b; } static int main() { return Main.add(40, 2); } }"
  in
  ignore (Pea_opt.Inline.run (Pea_opt.Inline.default_config program) g);
  Check.check_exn g;
  Alcotest.(check int) "no invokes left" 0
    (count_ops g (function Node.Invoke _ -> true | _ -> false));
  ignore (Pea_opt.Canonicalize.run g);
  Alcotest.(check bool) "still correct" true (result_matches program g)

let test_inline_devirtualizes_exact () =
  let src =
    "class A { int f() { return 1; } }\n\
     class B extends A { int f() { return 2; } }\n\
     class Main { static int main() { A a = new B(); return a.f(); } }"
  in
  let program, g = build_main src in
  ignore (Pea_opt.Inline.run (Pea_opt.Inline.default_config program) g);
  Check.check_exn g;
  (* the receiver is exactly B, so B.f is inlined despite the override *)
  Alcotest.(check int) "no invokes left" 0
    (count_ops g (function Node.Invoke _ -> true | _ -> false));
  ignore (Pea_opt.Canonicalize.run g);
  Alcotest.(check bool) "still correct" true (result_matches program g)

let test_inline_cha_blocked_by_override () =
  let src =
    "class A { int f() { return 1; } }\n\
     class B extends A { int f() { return 2; } }\n\
     class Main {\n\
    \  static int go(A a) { return a.f(); }\n\
    \  static int main() { return Main.go(new B()); }\n\
     }"
  in
  let program = Link.compile_source src in
  let go = Link.find_method program "Main" "go" in
  let g = Builder.build go in
  ignore (Pea_opt.Inline.run (Pea_opt.Inline.default_config program) g);
  Check.check_exn g;
  (* receiver type unknown and f is overridden: the call must remain *)
  Alcotest.(check int) "invoke remains" 1
    (count_ops g (function Node.Invoke _ -> true | _ -> false))

let test_inline_cha_monomorphic () =
  let src =
    "class A { int f() { return 42; } }\n\
     class Main {\n\
    \  static int go(A a) { return a.f(); }\n\
    \  static int main() { return Main.go(new A()); }\n\
     }"
  in
  let program = Link.compile_source src in
  let go = Link.find_method program "Main" "go" in
  let g = Builder.build go in
  ignore (Pea_opt.Inline.run (Pea_opt.Inline.default_config program) g);
  Check.check_exn g;
  Alcotest.(check int) "devirtualized and inlined" 0
    (count_ops g (function Node.Invoke _ -> true | _ -> false));
  (* a null check guards the inlined body *)
  Alcotest.(check int) "null check inserted" 1
    (count_ops g (function Node.Null_check _ -> true | _ -> false))

let test_inline_frame_state_chain () =
  let src =
    "class Main {\n\
    \  static int g;\n\
    \  static int inner(int x) { Main.g = x; return x + 1; }\n\
    \  static int main() { return Main.inner(5); }\n\
     }"
  in
  let program, g = build_main src in
  ignore (Pea_opt.Inline.run (Pea_opt.Inline.default_config program) g);
  Check.check_exn g;
  (* the store inside the inlined body has a two-deep frame-state chain *)
  let found = ref false in
  Graph.iter_blocks
    (fun b ->
      Pea_support.Dyn_array.iter
        (fun (n : Node.t) ->
          match n.Node.op, n.Node.fs with
          | Node.Store_static _, Some fs ->
              found := true;
              Alcotest.(check int) "frame depth" 2 (Frame_state.depth fs);
              Alcotest.(check string) "inner frame method" "Main.inner"
                (Classfile.qualified_name fs.Frame_state.fs_method);
              (match fs.Frame_state.fs_outer with
              | Some outer ->
                  Alcotest.(check string) "outer frame method" "Main.main"
                    (Classfile.qualified_name outer.Frame_state.fs_method)
              | None -> Alcotest.fail "missing outer frame")
          | _ -> ())
        b.Graph.instrs)
    g;
  Alcotest.(check bool) "store found" true !found

let test_inline_recursion_bounded () =
  let src =
    "class Main {\n\
    \  static int fact(int n) { if (n <= 1) return 1; return n * Main.fact(n - 1); }\n\
    \  static int main() { return Main.fact(5); }\n\
     }"
  in
  let program = Link.compile_source src in
  let fact = Link.find_method program "Main" "fact" in
  let g = Builder.build fact in
  (* must terminate and stay well-formed *)
  ignore (Pea_opt.Inline.run (Pea_opt.Inline.default_config program) g);
  Check.check_exn g

(* ------------------------------------------------------------------ *)
(* Read elimination                                                    *)
(* ------------------------------------------------------------------ *)

let loads g =
  count_ops g (function Node.Load_field _ | Node.Load_static _ | Node.Array_load _ -> true | _ -> false)

let test_read_elim_load_load () =
  let src =
    "class P { int v; }\n\
     class Main { static int f(P p) { return p.v + p.v + p.v; } static int main() { P p = new P(); p.v = 3; return Main.f(p); } }"
  in
  let program = Link.compile_source src in
  let f = Link.find_method program "Main" "f" in
  let g = Builder.build f in
  Alcotest.(check int) "three loads before" 3 (loads g);
  Alcotest.(check bool) "changed" true (Pea_opt.Read_elim.run g);
  Check.check_exn g;
  Alcotest.(check int) "one load after" 1 (loads g)

let test_read_elim_store_forwarding () =
  let src =
    "class P { int v; }\n\
     class Main { static int f(P p, int x) { p.v = x; return p.v; } static int main() { P p = new P(); return Main.f(p, 9); } }"
  in
  let program = Link.compile_source src in
  let f = Link.find_method program "Main" "f" in
  let g = Builder.build f in
  ignore (Pea_opt.Read_elim.run g);
  Check.check_exn g;
  Alcotest.(check int) "load forwarded from store" 0 (loads g)

let test_read_elim_killed_by_call () =
  let src =
    "class P { int v; }\n\
     class Main {\n\
    \  static void mutate(P p) { p.v = 99; }\n\
    \  static int f(P p) { int a = p.v; Main.mutate(p); return a + p.v; }\n\
    \  static int main() { P p = new P(); p.v = 1; return Main.f(p); }\n\
     }"
  in
  let program = Link.compile_source src in
  let f = Link.find_method program "Main" "f" in
  let g = Builder.build f in
  ignore (Pea_opt.Read_elim.run g);
  Check.check_exn g;
  (* the call clobbers: both loads must stay *)
  Alcotest.(check int) "both loads remain" 2 (loads g)

let test_read_elim_same_offset_aliasing () =
  (* distinct receivers, same field: a store to q.v must kill knowledge of
     p.v (p and q may alias) *)
  let src =
    "class P { int v; }\n\
     class Main {\n\
    \  static int f(P p, P q) { int a = p.v; q.v = 5; return a + p.v; }\n\
    \  static int main() { P p = new P(); return Main.f(p, p); }\n\
     }"
  in
  let program = Link.compile_source src in
  let f = Link.find_method program "Main" "f" in
  let g = Builder.build f in
  ignore (Pea_opt.Read_elim.run g);
  Check.check_exn g;
  Alcotest.(check int) "both loads remain" 2 (loads g);
  (* semantics: p == q, so the second read sees 5 *)
  let reference = Run.run_program program in
  (match reference.Run.return_value with
  | Some (Pea_rt.Value.Vint n) -> Alcotest.(check int) "interpreter result" 5 n
  | _ -> Alcotest.fail "expected int")

let test_read_elim_redundant_store () =
  let src =
    "class Main {\n\
    \  static int g;\n\
    \  static int f(int x) { Main.g = x; Main.g = x; return Main.g; }\n\
    \  static int main() { return Main.f(3); }\n\
     }"
  in
  let program = Link.compile_source src in
  let f = Link.find_method program "Main" "f" in
  let g = Builder.build f in
  ignore (Pea_opt.Read_elim.run g);
  Check.check_exn g;
  Alcotest.(check int) "one store left" 1
    (count_ops g (function Node.Store_static _ -> true | _ -> false));
  Alcotest.(check int) "load forwarded" 0 (loads g)

(* ------------------------------------------------------------------ *)
(* Conditional elimination                                             *)
(* ------------------------------------------------------------------ *)

let branches g =
  let n = ref 0 in
  let reachable = Graph.reachable g in
  Graph.iter_blocks
    (fun b ->
      if reachable.(b.Graph.b_id) then
        match b.Graph.term with Graph.If _ -> incr n | _ -> ())
    g;
  !n

let test_cond_elim_nested () =
  (* the inner if (c) inside the true branch of if (c) folds away *)
  let program = Link.compile_source
      "class Main {\n\
       static int f(boolean c) {\n\
         int r = 0;\n\
         if (c) { if (c) { r = 1; } else { r = 2; } } else { r = 3; }\n\
         return r;\n\
       }\n\
       static int main() { return Main.f(true); } }" in
  let f = Link.find_method program "Main" "f" in
  let g = Builder.build f in
  ignore (Pea_opt.Gvn.run g) (* share the two c-condition nodes *);
  let before = branches g in
  Alcotest.(check bool) "changed" true (Pea_opt.Cond_elim.run g);
  Check.check_exn g;
  Alcotest.(check bool) "branch removed" true (branches g < before);
  (* semantics via direct execution of the transformed graph *)
  Alcotest.(check bool) "f(true) = 1" true (exec_graph_int program g [ Pea_rt.Value.Vbool true ] = 1);
  Alcotest.(check bool) "f(false) = 3" true (exec_graph_int program g [ Pea_rt.Value.Vbool false ] = 3)

let test_cond_elim_false_arm () =
  let program = Link.compile_source
      "class Main {\n\
       static int f(boolean c) {\n\
         if (c) { return 1; }\n\
         if (c) { return 2; }\n\
         return 3;\n\
       }\n\
       static int main() { return Main.f(false); } }" in
  let f = Link.find_method program "Main" "f" in
  let g = Builder.build f in
  ignore (Pea_opt.Gvn.run g);
  Alcotest.(check bool) "changed" true (Pea_opt.Cond_elim.run g);
  Check.check_exn g;
  Alcotest.(check int) "one branch left" 1 (branches g);
  Alcotest.(check bool) "f(true) = 1" true (exec_graph_int program g [ Pea_rt.Value.Vbool true ] = 1);
  Alcotest.(check bool) "f(false) = 3" true (exec_graph_int program g [ Pea_rt.Value.Vbool false ] = 3)

let test_cond_elim_independent () =
  (* different conditions: nothing to fold *)
  let program = Link.compile_source
      "class Main {\n\
       static int f(boolean a, boolean b) { int r = 0; if (a) { if (b) { r = 1; } } return r; }\n\
       static int main() { return Main.f(true, false); } }" in
  let f = Link.find_method program "Main" "f" in
  let g = Builder.build f in
  ignore (Pea_opt.Gvn.run g);
  Alcotest.(check bool) "unchanged" false (Pea_opt.Cond_elim.run g)

(* ------------------------------------------------------------------ *)
(* Branch pruning                                                      *)
(* ------------------------------------------------------------------ *)

let test_prune_cold_branch () =
  let src =
    "class Main {\n\
    \  static int g;\n\
    \  static int f(boolean cold) { if (cold) { Main.g = 1; return 2; } return 1; }\n\
    \  static int main() { int acc = 0; int i = 0; while (i < 100) { acc = acc + Main.f(false); i = i + 1; } return acc; }\n\
     }"
  in
  let program = Link.compile_source src in
  let f = Link.find_method program "Main" "f" in
  (* gather a profile by interpreting *)
  let r = Run.run_program program in
  ignore r;
  let env = Pea_rt.Interp.make_env program in
  for _ = 1 to 50 do
    ignore (Pea_rt.Interp.run env f [ Pea_rt.Value.Vbool false ])
  done;
  let g = Builder.build f in
  let changed = Pea_opt.Prune.run env.Pea_rt.Interp.profile g in
  Check.check_exn g;
  Alcotest.(check bool) "pruned" true changed;
  let deopts = ref 0 in
  Graph.iter_blocks
    (fun b -> match b.Graph.term with Graph.Deopt _ -> incr deopts | _ -> ())
    g;
  Alcotest.(check int) "one deopt block" 1 !deopts

let test_prune_needs_samples () =
  let src =
    "class Main {\n\
    \  static int f(boolean c) { if (c) return 2; return 1; }\n\
    \  static int main() { return Main.f(true); }\n\
     }"
  in
  let program = Link.compile_source src in
  let f = Link.find_method program "Main" "f" in
  let profile = Pea_rt.Profile.create program in
  (* no samples: nothing may be pruned *)
  let g = Builder.build f in
  Alcotest.(check bool) "not pruned" false (Pea_opt.Prune.run profile g)

let () =
  Alcotest.run "opt"
    [
      ( "canonicalize",
        [
          Alcotest.test_case "constant folding" `Quick test_constant_folding;
          Alcotest.test_case "branch folding" `Quick test_branch_folding;
          Alcotest.test_case "identities" `Quick test_identity_simplification;
          Alcotest.test_case "div by one terminates" `Quick test_div_by_one_terminates;
          Alcotest.test_case "mul by zero" `Quick test_mul_by_zero;
        ] );
      ( "gvn",
        [
          Alcotest.test_case "dedup" `Quick test_gvn_dedup;
          Alcotest.test_case "respects dominance" `Quick test_gvn_respects_dominance;
          Alcotest.test_case "keys distinguish operations" `Quick test_gvn_keys_distinguish_ops;
        ] );
      ( "inline",
        [
          Alcotest.test_case "static" `Quick test_inline_static;
          Alcotest.test_case "exact devirtualization" `Quick test_inline_devirtualizes_exact;
          Alcotest.test_case "CHA blocked by override" `Quick test_inline_cha_blocked_by_override;
          Alcotest.test_case "CHA monomorphic" `Quick test_inline_cha_monomorphic;
          Alcotest.test_case "frame-state chain" `Quick test_inline_frame_state_chain;
          Alcotest.test_case "recursion bounded" `Quick test_inline_recursion_bounded;
        ] );
      ( "read_elim",
        [
          Alcotest.test_case "load-load" `Quick test_read_elim_load_load;
          Alcotest.test_case "store forwarding" `Quick test_read_elim_store_forwarding;
          Alcotest.test_case "killed by call" `Quick test_read_elim_killed_by_call;
          Alcotest.test_case "same-offset aliasing" `Quick test_read_elim_same_offset_aliasing;
          Alcotest.test_case "redundant store" `Quick test_read_elim_redundant_store;
        ] );
      ( "cond_elim",
        [
          Alcotest.test_case "nested" `Quick test_cond_elim_nested;
          Alcotest.test_case "false arm" `Quick test_cond_elim_false_arm;
          Alcotest.test_case "independent" `Quick test_cond_elim_independent;
        ] );
      ( "prune",
        [
          Alcotest.test_case "cold branch" `Quick test_prune_cold_branch;
          Alcotest.test_case "needs samples" `Quick test_prune_needs_samples;
        ] );
    ]
