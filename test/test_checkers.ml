(* The checkers run after every JIT phase by default (the IR checker)
   or once per compile (the speculation-safety verifier), so they are
   held to two things here: what they report on a broken graph, word
   for word, and what a passing check costs in allocation. The lexer,
   which every program goes through, gets the same kind of bound, and
   the interval dominance test is checked against the idom-chain walk
   that defines it. *)

open Pea_bytecode
open Pea_ir
module Spec_check = Pea_analysis.Spec_check
open Pea_vm
open Program_gen

(* A hand-built graph with one defect of each kind the checkers report,
   one defect per frame state. *)
let corrupt_graph () =
  let program =
    Link.compile_source
      "class Main { static int f(int a, int b) { return a + b; }\n\
       static int main() { return Main.f(1, 2); } }"
  in
  let m = Link.find_method program "Main" "f" in
  let state ?(bci = 0) ?(virtuals = []) locals : Frame_state.t =
    {
      Frame_state.fs_method = m;
      fs_bci = bci;
      fs_locals = Array.of_list locals;
      fs_stack = [];
      fs_locks = [];
      fs_outer = None;
      fs_virtuals = virtuals;
    }
  in
  let desc lock : Frame_state.virtual_desc =
    {
      Frame_state.vd_shape = Frame_state.Obj_shape m.Classfile.mth_class;
      vd_fields = [||];
      vd_lock = lock;
    }
  in
  let g = Graph.create m in
  let b0 = Graph.new_block g in
  let b1 = Graph.new_block g in
  let b2 = Graph.new_block g in
  let b3 = Graph.new_block ~kind:Graph.Merge g in
  let a = (Graph.add_param g 0).Node.id and b = (Graph.add_param g 1).Node.id in
  let sum = Graph.append g b0 (Node.Arith (Node.Add, a, 404)) in
  let pr = Graph.append g b0 (Node.Print sum.Node.id) in
  (* an undefined value, a virtual without descriptor, a bci past the code *)
  pr.Node.fs <-
    Some
      (state ~bci:999 ~virtuals:[ (5, desc 0) ]
         [ Frame_state.F_node 505; Frame_state.F_virtual 7 ]);
  (* a state without virtual 5 retires it on every dominated path *)
  let pr2 = Graph.append g b0 (Node.Print b) in
  pr2.Node.fs <- Some (state []);
  (* an invoke without a state *)
  ignore (Graph.append g b0 (Node.Invoke (Node.Static, m, [| a; b |])));
  b0.Graph.term <-
    Graph.If
      {
        cond = sum.Node.id;
        tru = b1.Graph.b_id;
        fls = b2.Graph.b_id;
        br_bci = 0;
        br_method = m;
        br_negated = false;
      };
  let one = Graph.append g b1 (Node.Const (Node.Cint 1)) in
  (* a descriptor with a negative lock depth, then a conflicting one; the
     retired virtual 5 declared again, with a lock the state does not hold *)
  let st = Graph.append g b1 (Node.Print a) in
  st.Node.fs <-
    Some
      (state ~virtuals:[ (3, desc (-1)); (3, desc 0); (5, desc 1) ] [ Frame_state.F_virtual 3 ]);
  let stack = Graph.append g b1 (Node.Stack_alloc (Node.Sk_frame, m.Classfile.mth_class, [||])) in
  ignore (Graph.append g b1 (Node.Print stack.Node.id));
  b1.Graph.term <- Graph.Goto b3.Graph.b_id;
  (* a frame-bounded stack allocation that is printed; a deopt whose state
     uses a value from the sibling branch *)
  b2.Graph.term <-
    Graph.Deopt
      { d_state = state [ Frame_state.F_node one.Node.id ]; d_edge = None; d_guard = None };
  b2.Graph.preds <- [ b0.Graph.b_id ];
  b1.Graph.preds <- [ b0.Graph.b_id ];
  b3.Graph.preds <- [ b1.Graph.b_id; b2.Graph.b_id ];
  let phi = Graph.add_phi g b3 in
  (match phi.Node.op with
  | Node.Phi p -> p.Node.inputs <- [| one.Node.id; one.Node.id |]
  | _ -> ());
  b3.Graph.entry_fs <- Some (state [ Frame_state.F_virtual 9 ]);
  b3.Graph.term <- Graph.Return (Some 606);
  g

let test_ir_check_diagnostics () =
  Alcotest.(check (list string))
    "diagnostics"
    [
      "v404 used by v2 but not defined in any reachable block";
      "v505 used by frame state of v3 but not defined in any reachable block";
      "invoke v5 in B0 has no frame state";
      "v606 used by terminator of B3 but not defined in any reachable block";
      "v6 used by deopt state of B2 in B2 is not dominated by its definition";
      "v6 used by phi v10 (input 1) in B2 is not dominated by its definition";
      "frame state of v3 references virtual object #7 without a descriptor";
    ]
    (Check.check (corrupt_graph ()))

let test_spec_check_diagnostics () =
  Alcotest.(check (list string))
    "violations"
    [
      "[SPEC02] v3: state references v505, not defined in any reachable block";
      "[SPEC01] v3: state references virtual #7 without a descriptor";
      "[SPEC09] v3: frame of Main.f resumes at bci 999, outside its code (length 6)";
      "[SPEC04] v5: invoke has no frame state: a deopt inside the callee cannot rebuild the caller";
      "[SPEC03] v7: virtual #3 has conflicting descriptors";
      "[SPEC05] v7: virtual #3 has negative lock depth -1";
      "[SPEC05] v7: virtual #5 records lock depth 1 but the chain's lock stacks hold it 0 times";
      "[SPEC02] B2/deopt: state references v6, which does not dominate the state's program point";
      "[SPEC01] B3/entry: state references virtual #9 without a descriptor";
      "[SPEC06] v7: virtual #5 was materialized on a dominating path but is declared virtual again";
      "[SPEC12] v9: stack allocation v8 is printed (retained)";
    ]
    (List.map
       (fun (v : Spec_check.violation) ->
         Printf.sprintf "[%s] %s: %s" v.Spec_check.v_rule v.Spec_check.v_site v.Spec_check.v_detail)
       (Spec_check.check ~phase:"p" (corrupt_graph ())))

(* ------------------------------------------------------------------ *)
(* Allocation budgets                                                  *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words: what per-use garbage would show up in. Tables big
   enough to go straight to the major heap are per graph by nature. *)
let words_allocated f =
  let before = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. before)

(* Every graph the JIT compiles for one Table-1 workload, after the full
   pipeline, with the summaries it was compiled against. *)
let compiled_graphs row =
  let program = Link.compile_source (Pea_workloads.Codegen.source_for_row row) in
  let config = { Pea_vm.Jit.default_config with Pea_vm.Jit.compile_threshold = 2 } in
  let vm = Pea_vm.Vm.create ~config program in
  ignore (Pea_vm.Vm.run_main_iterations vm 3);
  let summaries = Pea_analysis.Summary.analyze program in
  let graphs =
    Array.to_list program.Link.methods |> List.filter_map (Pea_vm.Vm.compiled_graph vm)
  in
  List.map (fun g -> (summaries, g)) graphs

let size g = Graph.n_nodes g + Graph.n_blocks g

(* A passing check allocates its per-graph tables (definition sites,
   dominators, marks) and nothing per operand, state or value: about 10
   words per node and block for the IR checker and 14 for the
   speculation checker on these graphs. Rendering a description of every
   use, or building a table per frame state, costs over 100. *)
let test_checks_allocate_per_graph () =
  let graphs =
    List.concat_map compiled_graphs (List.filteri (fun i _ -> i < 6) Pea_workloads.Spec.all)
  in
  let total = List.fold_left (fun acc (_, g) -> acc + size g) 0 graphs in
  let ir_errors, ir =
    words_allocated (fun () -> List.concat_map (fun (_, g) -> Check.check g) graphs)
  in
  let spec_errors, spec =
    words_allocated (fun () ->
        List.concat_map (fun (summaries, g) -> Spec_check.check ~summaries g) graphs)
  in
  Alcotest.(check (list string)) "IR check clean" [] ir_errors;
  Alcotest.(check int) "speculation check clean" 0 (List.length spec_errors);
  let per_unit words = words /. float_of_int total in
  Alcotest.(check bool)
    (Printf.sprintf "IR check: %.1f words per node and block, at most 12" (per_unit ir))
    true
    (per_unit ir <= 12.);
  Alcotest.(check bool)
    (Printf.sprintf "speculation check: %.1f words per node and block, at most 18" (per_unit spec))
    true
    (per_unit spec <= 18.)

(* A token costs its record, its position, its list cells and the text of
   an identifier or literal; punctuation and keywords add nothing. About
   15 words a token here; per-character options and per-token formatting
   cost about 60. *)
let test_lexer_allocation () =
  let src =
    String.concat "\n"
      (List.map Pea_workloads.Codegen.source_for_row
         (List.filteri (fun i _ -> i < 4) Pea_workloads.Spec.all))
  in
  let tokens, words = words_allocated (fun () -> Pea_mjava.Lexer.tokenize src) in
  let per_token = words /. float_of_int (List.length tokens) in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per token, at most 20" per_token)
    true (per_token <= 20.)

(* ------------------------------------------------------------------ *)
(* Dominance                                                           *)
(* ------------------------------------------------------------------ *)

(* [Dominators.dominates] answers from dominator-tree intervals; on any
   CFG, malformed predecessor lists included, it must agree with walking
   the immediate-dominator chain. *)
let prop_dominates_is_idom_walk =
  let open QCheck2 in
  let m =
    Link.entry_exn (Link.compile_source "class Main { static int main() { return 0; } }")
  in
  let term = Gen.(triple (int_bound 2) small_nat small_nat) in
  let stray = Gen.(list_size (int_bound 4) (pair small_nat small_nat)) in
  let gen = Gen.(pair (list_size (int_range 1 14) term) stray) in
  Test.make ~name:"interval dominance = idom-chain walk" ~count:500 gen (fun (terms, extra_preds) ->
      let n = List.length terms in
      let g = Graph.create m in
      let blocks = List.map (fun _ -> Graph.new_block g) terms in
      List.iter2
        (fun (b : Graph.block) (kind, x, y) ->
          b.Graph.term <-
            (match kind with
            | 0 -> Graph.Return None
            | 1 -> Graph.Goto (x mod n)
            | _ ->
                Graph.If
                  {
                    cond = 0;
                    tru = x mod n;
                    fls = y mod n;
                    br_bci = 0;
                    br_method = m;
                    br_negated = false;
                  }))
        blocks terms;
      Graph.recompute_preds g;
      (* stray predecessor entries, as a broken pass might leave (dropping
         real ones can send the iterative algorithm itself round a cycle) *)
      List.iter
        (fun (b, p) ->
          let blk = Graph.block g (b mod n) in
          blk.Graph.preds <- (p mod n) :: blk.Graph.preds)
        extra_preds;
      let doms = Dominators.compute g in
      (* [None] when the chain does not end within [n] steps *)
      let walk a b =
        let rec go b fuel =
          if b = a then Some true
          else if fuel = 0 then None
          else match Dominators.idom doms b with Some d -> go d (fuel - 1) | None -> Some false
        in
        go b n
      in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              match walk a b with None -> true | Some w -> w = Dominators.dominates doms a b)
            (List.init n Fun.id))
        (List.init n Fun.id))

(* The loop headers of [m]: the targets of its backward jumps, where
   the VM enters OSR code. *)
let loop_headers (m : Pea_bytecode.Classfile.rt_method) =
  let headers = ref [] in
  Array.iteri
    (fun src instr ->
      match instr with
      | Pea_bytecode.Classfile.Goto t
      | Pea_bytecode.Classfile.If_true t
      | Pea_bytecode.Classfile.If_false t ->
          if t <= src && not (List.mem t !headers) then headers := t :: !headers
      | _ -> ())
    m.Pea_bytecode.Classfile.mth_code;
  List.rev !headers

(* PEA's graph of [main] passes the IR checker and the speculation-safety
   verifier after every phase: [Jit.compile] under a drawn configuration
   with both on, on the interpreter profile of one run of [main] (what
   `mjvm dump` compiles), and with OSR drawn on, also entered at every
   loop header the JIT accepts. A violation raises out of the compile. *)
let prop_ir_checker_after_pea =
  QCheck2.Test.make ~name:"PEA output passes the IR checker on random programs"
    ~count:(Test_env.qcheck_count 100) ~print:print_case
    (with_draw
       ~fix:(fun c ->
         {
           c with
           Jit.opt = Jit.O_pea;
           verify = true;
           check_level = Pea_analysis.Spec_check.Every_phase;
         })
       ~base:Jit.default_config gen_program)
    (fun (src, d) ->
      let config = d.Test_support.config in
      let program = Pea_bytecode.Link.compile_source src in
      let m = Pea_bytecode.Link.entry_exn program in
      let summaries =
        if config.Jit.summaries then Some (Pea_analysis.Summary.analyze program) else None
      in
      let profile = Pea_rt.Run.profile program in
      let trace, _, _ = Test_support.instruments d in
      let compile ?osr_at () =
        ignore (Jit.compile ?summaries ?osr_at ?trace config program profile m)
      in
      compile ();
      if config.Jit.osr && Jit.compilable ~osr:true m then
        List.iter
          (fun header ->
            (* an irreducible loop nest entered at [header]: the VM
               refuses it the same way and OSRs at the outer header *)
            try compile ~osr_at:header () with Pea_ir.Builder.Build_error _ -> ())
          (loop_headers m);
      true)

(* Correctness tooling under fuzz: the every-phase verifier and the deopt
   oracle are pinned on (the point is that they stay silent), every other
   axis is drawn. Any SPEC violation aborts compilation with [Failure];
   any replay divergence raises [Oracle.Divergence]; either fails the
   property. The forced deopt in [gen_program_deopt] makes the oracle
   actually replay, not just snapshot (the "generators" case checks that
   every deopt case deopts). *)
let prop_verified_execution =
  QCheck2.Test.make ~name:"every-phase verifier + deopt oracle stay silent, semantics preserved"
    ~count:(Test_env.qcheck_count 60)
    ~print:(print_case ~walks:[ "opt" ])
    (with_draw
       ~fix:(fun c ->
         { c with Jit.check_level = Pea_analysis.Spec_check.Every_phase; oracle = true })
       ~base:{ Jit.default_config with Jit.compile_threshold = 22 } gen_program_deopt)
    deopt_case_agrees

let () =
  Alcotest.run "checkers"
    [
      ( "diagnostics",
        [
          Alcotest.test_case "IR checker" `Quick test_ir_check_diagnostics;
          Alcotest.test_case "speculation checker" `Quick test_spec_check_diagnostics;
        ] );
      ( "cost",
        [
          Alcotest.test_case "checks allocate per graph" `Quick test_checks_allocate_per_graph;
          Alcotest.test_case "lexer allocates per token" `Quick test_lexer_allocation;
        ] );
      ("dominance", [ QCheck_alcotest.to_alcotest prop_dominates_is_idom_walk ]);
      ( "random programs",
        [
          QCheck_alcotest.to_alcotest prop_ir_checker_after_pea;
          QCheck_alcotest.to_alcotest prop_verified_execution;
        ] );
    ]
