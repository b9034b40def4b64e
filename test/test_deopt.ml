(* Deoptimization and rematerialization tests (§5.5, Figure 8 of the
   paper): cold branches are pruned after warmup; entering one from
   compiled code transfers to the interpreter; scalar-replaced objects
   referenced by the frame state are rematerialized (fields restored,
   locks re-acquired); inlined frames are reconstructed from the
   fs_outer chain. *)

open Pea_bytecode
open Pea_rt
open Pea_vm

let vint, vbool, as_int = Test_support.(vint, vbool, as_int)

let setup ?(config = { Jit.default_config with Jit.compile_threshold = 25 }) src =
  let program = Link.compile_source ~require_main:false src in
  (program, Vm.create ~config program)

(* Scalar-replaced object escapes only in the pruned branch: deopt must
   rematerialize it with the right field values. *)
let test_deopt_rematerializes () =
  let src =
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
  in
  let program, vm = setup src in
  let f = Link.find_method program "C" "f" in
  (* warm up on the hot path until compiled *)
  Vm.warm_up vm f [ vint 7; vbool false ] 40;
  Alcotest.(check bool) "compiled" true (Vm.compiled_graph vm f <> None);
  let before = Stats.snapshot (Vm.stats vm) in
  (* hot path in compiled code: no allocations at all *)
  let r = Vm.invoke vm f [ vint 9; vbool false ] in
  Alcotest.(check int) "hot result" 10 (as_int r);
  let mid = Stats.snapshot (Vm.stats vm) in
  Alcotest.(check int) "no allocation on the hot path" 0
    (mid.Stats.s_allocations - before.Stats.s_allocations);
  Alcotest.(check int) "no deopt yet" 0 (mid.Stats.s_deopts - before.Stats.s_deopts);
  (* now take the cold branch *)
  let r2 = Vm.invoke vm f [ vint 123; vbool true ] in
  Alcotest.(check int) "cold result" 124 (as_int r2);
  let after = Stats.snapshot (Vm.stats vm) in
  Alcotest.(check int) "one deopt" 1 (after.Stats.s_deopts - mid.Stats.s_deopts);
  Alcotest.(check bool) "rematerialized" true
    (after.Stats.s_rematerialized - mid.Stats.s_rematerialized >= 1)

(* Same scenario, but verify the global object's contents through MJ
   code. *)
let test_deopt_global_contents () =
  let src =
    "class I { int val; }\n\
     class C {\n\
    \  static I global;\n\
    \  static int f(int x, boolean cold) {\n\
    \    I i = new I();\n\
    \    i.val = x;\n\
    \    if (cold) { C.global = i; }\n\
    \    return i.val + 1;\n\
    \  }\n\
    \  static int readGlobal() { if (C.global == null) return 0 - 1; return C.global.val; }\n\
     }"
  in
  let program, vm = setup src in
  let f = Link.find_method program "C" "f" in
  let read = Link.find_method program "C" "readGlobal" in
  Vm.warm_up vm f [ vint 7; vbool false ] 40;
  Alcotest.(check int) "global still null" (-1) (as_int (Vm.invoke vm read []));
  ignore (Vm.invoke vm f [ vint 5551; vbool true ]);
  Alcotest.(check int) "global has the rematerialized object" 5551
    (as_int (Vm.invoke vm read []))

(* After a deopt the method is recompiled without speculation: the cold
   path no longer deoptimizes. *)
let test_deopt_invalidation () =
  let src =
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
  in
  let program, vm = setup src in
  let f = Link.find_method program "C" "f" in
  Vm.warm_up vm f [ vint 1; vbool false ] 40;
  ignore (Vm.invoke vm f [ vint 2; vbool true ]);
  let s1 = Stats.snapshot (Vm.stats vm) in
  Alcotest.(check int) "one deopt" 1 s1.Stats.s_deopts;
  (* the cold path is now compiled in: further cold calls do not deopt *)
  for i = 0 to 9 do
    Alcotest.(check int) "cold result" (100 + i + 1)
      (as_int (Vm.invoke vm f [ vint (100 + i); vbool true ]))
  done;
  let s2 = Stats.snapshot (Vm.stats vm) in
  Alcotest.(check int) "still one deopt" 1 s2.Stats.s_deopts

(* Deopt inside a synchronized region on a scalar-replaced object: the
   rematerialized object must be re-locked so the interpreter's
   monitorexit balances. *)
let test_deopt_relock () =
  let src =
    "class I { int val; }\n\
     class C {\n\
    \  static I global;\n\
    \  static int f(int x, boolean cold) {\n\
    \    I i = new I();\n\
    \    int r = 0;\n\
    \    synchronized (i) {\n\
    \      i.val = x;\n\
    \      if (cold) { C.global = i; }\n\
    \      r = i.val * 2;\n\
    \    }\n\
    \    return r;\n\
    \  }\n\
    \  static int lockHeld() { if (C.global == null) return 0 - 1; return 7; }\n\
     }"
  in
  let program, vm = setup src in
  let f = Link.find_method program "C" "f" in
  Vm.warm_up vm f [ vint 3; vbool false ] 40;
  let r = Vm.invoke vm f [ vint 21; vbool true ] in
  Alcotest.(check int) "result through deopt" 42 (as_int r);
  (* execution completed without unbalanced-monitor traps, and the global
     object is unlocked again *)
  ignore program

(* Deopt inside an inlined callee: the fs_outer chain reconstructs both
   interpreter frames; the callee's return value flows back into the
   caller's resumed frame. *)
let test_deopt_inlined_frames () =
  let src =
    "class I { int val; }\n\
     class C {\n\
    \  static I global;\n\
    \  static int helper(int x, boolean cold) {\n\
    \    I i = new I();\n\
    \    i.val = x;\n\
    \    if (cold) { C.global = i; }\n\
    \    return i.val + 100;\n\
    \  }\n\
    \  static int f(int x, boolean cold) {\n\
    \    int a = helper(x, cold);\n\
    \    return a + 1000;\n\
    \  }\n\
     }"
  in
  let program, vm = setup src in
  let f = Link.find_method program "C" "f" in
  Vm.warm_up vm f [ vint 1; vbool false ] 40;
  Alcotest.(check bool) "compiled" true (Vm.compiled_graph vm f <> None);
  let before = Stats.snapshot (Vm.stats vm) in
  let r = Vm.invoke vm f [ vint 7; vbool true ] in
  Alcotest.(check int) "result through multi-frame deopt" 1107 (as_int r);
  let after = Stats.snapshot (Vm.stats vm) in
  Alcotest.(check int) "one deopt" 1 (after.Stats.s_deopts - before.Stats.s_deopts)

(* A loop-carried scalar-replaced object at a deopt point. *)
let test_deopt_in_loop () =
  let src =
    "class Acc { int total; }\n\
     class C {\n\
    \  static Acc global;\n\
    \  static int f(int n, boolean cold) {\n\
    \    Acc a = new Acc();\n\
    \    int i = 0;\n\
    \    while (i < n) {\n\
    \      a.total = a.total + i;\n\
    \      if (cold && i == 3) { C.global = a; }\n\
    \      i = i + 1;\n\
    \    }\n\
    \    return a.total;\n\
    \  }\n\
     }"
  in
  let program, vm = setup src in
  let f = Link.find_method program "C" "f" in
  Vm.warm_up vm f [ vint 10; vbool false ] 40;
  let expected = 45 in
  let r = Vm.invoke vm f [ vint 10; vbool true ] in
  Alcotest.(check int) "result through loop deopt" expected (as_int r);
  ignore program

(* Frame-state shape after PEA (Figure 8): the deopt state references a
   virtual object descriptor rather than an allocation. *)
let test_frame_state_has_virtual () =
  let src =
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
  in
  let program, vm = setup src in
  let f = Link.find_method program "C" "f" in
  Vm.warm_up vm f [ vint 7; vbool false ] 40;
  match Vm.compiled_graph vm f with
  | None -> Alcotest.fail "not compiled"
  | Some g ->
      let found = ref false in
      Pea_ir.Graph.iter_blocks
        (fun b ->
          match b.Pea_ir.Graph.term with
          | Pea_ir.Graph.Deopt { d_state = fs; _ } ->
              if fs.Pea_ir.Frame_state.fs_virtuals <> [] then begin
                found := true;
                let _, vd = List.hd fs.Pea_ir.Frame_state.fs_virtuals in
                (match vd.Pea_ir.Frame_state.vd_shape with
                | Pea_ir.Frame_state.Obj_shape c ->
                    Alcotest.(check string) "virtual class" "I" c.Classfile.cls_name
                | Pea_ir.Frame_state.Arr_shape _ -> Alcotest.fail "expected an object shape")
              end
          | _ -> ())
        g;
      Alcotest.(check bool) "deopt state references a virtual object" true !found

(* Deopt differential: compiled code agrees with the interpreter on the
   last return value and the full print sequence at every opt level —
   through JIT compilation, speculative pruning and a forced deopt with a
   virtual object in the frame state (see [gen_program_deopt]). *)
let prop_deopt_differential =
  QCheck2.Test.make ~name:"compiled code = interpreter, with forced deopts"
    ~count:(Test_env.qcheck_count 60)
    ~print:(Program_gen.print_case ~walks:[ "opt" ])
    (Program_gen.with_draw
       ~base:{ Jit.default_config with Jit.compile_threshold = 22 }
       Program_gen.gen_program_deopt)
    Program_gen.deopt_case_agrees

let () =
  Alcotest.run "deopt"
    [
      ( "deopt",
        [
          Alcotest.test_case "rematerializes" `Quick test_deopt_rematerializes;
          Alcotest.test_case "global contents" `Quick test_deopt_global_contents;
          Alcotest.test_case "invalidation" `Quick test_deopt_invalidation;
          Alcotest.test_case "relock" `Quick test_deopt_relock;
          Alcotest.test_case "inlined frames" `Quick test_deopt_inlined_frames;
          Alcotest.test_case "in loop" `Quick test_deopt_in_loop;
          Alcotest.test_case "frame state has virtual" `Quick test_frame_state_has_virtual;
        ] );
      ("differential", [ QCheck_alcotest.to_alcotest prop_deopt_differential ]);
    ]
