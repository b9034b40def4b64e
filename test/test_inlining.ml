(* Speculative guarded inlining ([Jit.config.inlining]): profile-driven
   inlining of the dominant receiver at a virtual call site behind an
   exact-class guard whose miss edge deopts to the *pre-call* state.

   The suite drives the full lifecycle on a hierarchy CHA cannot
   devirtualize: speculation from the receiver profile, PEA across the
   inlined boundary (allocations in both the caller and the spliced
   callee stay virtual), a forced receiver miss whose deopt
   rematerializes virtual objects in BOTH frames of the chained state —
   cross-checked by the bisimulation oracle — and the per-site blacklist
   that turns a missed site back into a dispatched call on
   recompilation. *)

open Pea_bytecode
open Pea_rt
open Pea_vm

let vint, as_int = Test_support.(vint, as_int)

(* The assertions below are about the guarded-inlining pipeline itself:
   PEA, speculative inlining and the oracle are on. *)
let config =
  {
    Jit.default_config with
    Jit.compile_threshold = 25;
    Jit.opt = Jit.O_pea;
    Jit.inlining = true;
    Jit.oracle = true;
  }

let setup ?(config = config) src =
  let program = Link.compile_source ~require_main:false src in
  (program, Vm.create ~config program)

(* [Shape.area] is overridden twice, so CHA declines and only the
   receiver profile can bind the call. [inner] allocates across the
   guarded call, [outer] allocates across the (direct) inline of
   [inner]: at the guard's deopt both boxes are virtual, one per frame. *)
let src =
  "class Shape { int area() { return 1; } }\n\
   class Square extends Shape { int s; int area() { return s * s; } }\n\
   class Circle extends Shape { int r; int area() { return 3 * r; } }\n\
   class Box { int v; }\n\
   class C {\n\
  \  static Shape mkSquare(int s) { Square q = new Square(); q.s = s; return q; }\n\
  \  static Shape mkCircle(int r) { Circle c = new Circle(); c.r = r; return c; }\n\
  \  static int inner(Shape s, int x) {\n\
  \    Box b = new Box();\n\
  \    b.v = x + 1;\n\
  \    int a = s.area();\n\
  \    return a + b.v;\n\
  \  }\n\
  \  static int outer(Shape s, int x) {\n\
  \    Box o = new Box();\n\
  \    o.v = x;\n\
  \    int r = C.inner(s, x);\n\
  \    return r + o.v;\n\
  \  }\n\
   }"

(* outer(square(4), x) = (16 + x + 1) + x; outer(circle(5), x) = (15 + x + 1) + x *)
let square_result x = 17 + (2 * x)

let circle_result x = 16 + (2 * x)

let receivers program vm =
  let sq = Option.get (Vm.invoke vm (Link.find_method program "C" "mkSquare") [ vint 4 ]) in
  let ci = Option.get (Vm.invoke vm (Link.find_method program "C" "mkCircle") [ vint 5 ]) in
  (sq, ci)

let has_guard g =
  let found = ref false in
  Pea_ir.Graph.iter_blocks
    (fun b ->
      List.iter
        (fun (n : Pea_ir.Node.t) ->
          match n.Pea_ir.Node.op with Pea_ir.Node.Has_class _ -> found := true | _ -> ())
        (Pea_ir.Graph.instr_list b))
    g;
  !found

(* ------------------------------------------------------------------ *)
(* Speculation from the receiver profile                               *)
(* ------------------------------------------------------------------ *)

let test_speculative_inline () =
  let program, vm = setup src in
  let outer = Link.find_method program "C" "outer" in
  let sq, _ = receivers program vm in
  Vm.warm_up vm outer [ sq; vint 10 ] 50;
  let g =
    match Vm.compiled_graph vm outer with
    | Some g -> g
    | None -> Alcotest.fail "outer not compiled"
  in
  Alcotest.(check bool) "graph carries an exact-class guard" true (has_guard g);
  let s = Stats.snapshot (Vm.stats vm) in
  Alcotest.(check bool) "speculative inlines counted" true (s.Stats.s_speculative_inlines >= 1);
  Alcotest.(check int) "hot receiver result" (square_result 10)
    (as_int (Vm.invoke vm outer [ sq; vint 10 ]))

(* ------------------------------------------------------------------ *)
(* Guard miss: pre-call deopt, virtual objects in both frames          *)
(* ------------------------------------------------------------------ *)

let test_guard_miss_remat_both_frames () =
  let program, vm = setup src in
  let outer = Link.find_method program "C" "outer" in
  let sq, ci = receivers program vm in
  Vm.warm_up vm outer [ sq; vint 10 ] 50;
  Alcotest.(check bool) "compiled" true (Vm.compiled_graph vm outer <> None);
  let s0 = Stats.snapshot (Vm.stats vm) in
  (* the unexpected receiver: the guard misses, the deopt resumes the
     interpreter *before* the dispatch, and both boxes — one virtual in
     the spliced callee's frame, one in the caller's — rematerialize.
     The oracle replays the whole activation against a shadow
     interpreter; a divergence would escape as an exception here. *)
  Alcotest.(check int) "miss result under oracle" (circle_result 10)
    (as_int (Vm.invoke vm outer [ ci; vint 10 ]));
  let s1 = Stats.snapshot (Vm.stats vm) in
  Alcotest.(check int) "one deopt" 1 (s1.Stats.s_deopts - s0.Stats.s_deopts);
  Alcotest.(check int) "counted as a guard deopt" 1 (s1.Stats.s_guard_deopts - s0.Stats.s_guard_deopts);
  Alcotest.(check bool) "virtual objects rematerialized in both frames" true
    (s1.Stats.s_rematerialized - s0.Stats.s_rematerialized >= 2);
  (* the deopt resumed at the dispatch itself: the interpreter re-executed
     it with the actual receiver, so results stay right afterwards too *)
  Alcotest.(check int) "square still right after the miss" (square_result 3)
    (as_int (Vm.invoke vm outer [ sq; vint 3 ]))

(* ------------------------------------------------------------------ *)
(* Blacklist: a missed site stops being speculated on                  *)
(* ------------------------------------------------------------------ *)

let test_blacklist_stops_respeculation () =
  let program, vm = setup src in
  let outer = Link.find_method program "C" "outer" in
  let sq, ci = receivers program vm in
  Vm.warm_up vm outer [ sq; vint 10 ] 50;
  (* one miss: deopt, site blacklisted, code invalidated *)
  Alcotest.(check int) "miss result" (circle_result 10) (as_int (Vm.invoke vm outer [ ci; vint 10 ]));
  (* re-warm: the recompile consults the blacklist and falls back to a
     dispatched call (summaries still apply to it) instead of deopt-storming *)
  Vm.warm_up vm outer [ sq; vint 10 ] 50;
  let g =
    match Vm.compiled_graph vm outer with
    | Some g -> g
    | None -> Alcotest.fail "outer not recompiled"
  in
  Alcotest.(check bool) "no guard in the recompiled graph" false (has_guard g);
  let s0 = Stats.snapshot (Vm.stats vm) in
  Alcotest.(check bool) "blacklist skip counted" true (s0.Stats.s_inline_blacklist_skips >= 1);
  (* megamorphic traffic through the recompiled code: right answers, no
     further guard deopts *)
  Alcotest.(check int) "circle" (circle_result 7) (as_int (Vm.invoke vm outer [ ci; vint 7 ]));
  Alcotest.(check int) "square" (square_result 7) (as_int (Vm.invoke vm outer [ sq; vint 7 ]));
  let s1 = Stats.snapshot (Vm.stats vm) in
  Alcotest.(check int) "no further guard deopts" 0 (s1.Stats.s_guard_deopts - s0.Stats.s_guard_deopts)

(* ------------------------------------------------------------------ *)
(* The config bit really gates the guarded mode                        *)
(* ------------------------------------------------------------------ *)

let test_inlining_off () =
  let config = { config with Jit.inlining = false } in
  let program, vm = setup ~config src in
  let outer = Link.find_method program "C" "outer" in
  let sq, ci = receivers program vm in
  Vm.warm_up vm outer [ sq; vint 10 ] 50;
  (match Vm.compiled_graph vm outer with
  | Some g -> Alcotest.(check bool) "no guard with inlining off" false (has_guard g)
  | None -> Alcotest.fail "outer not compiled");
  let s = Stats.snapshot (Vm.stats vm) in
  Alcotest.(check int) "no speculative inlines" 0 s.Stats.s_speculative_inlines;
  Alcotest.(check int) "circle without guards" (circle_result 10)
    (as_int (Vm.invoke vm outer [ ci; vint 10 ]));
  Alcotest.(check int) "square without guards" (square_result 10)
    (as_int (Vm.invoke vm outer [ sq; vint 10 ]));
  let s1 = Stats.snapshot (Vm.stats vm) in
  Alcotest.(check int) "no guard deopts ever" 0 s1.Stats.s_guard_deopts

(* ------------------------------------------------------------------ *)
(* explain: inlined-allocation provenance                              *)
(* ------------------------------------------------------------------ *)

let test_explain_renders_origin () =
  let program = Link.compile_source ~require_main:false src in
  let outer = Link.find_method program "C" "outer" in
  let report =
    Explain.to_string (Explain.analyze Jit.default_config program (Run.profile program) outer)
  in
  (* [inner] direct-inlines into [outer]; its Box site must be reported
     with the (caller, callee, call-site bci) chain it crossed *)
  Alcotest.(check bool) "origin chain rendered" true (Test_support.contains report "inlined:");
  Alcotest.(check bool) "chain names the boundary" true
    (Test_support.contains report "C.outer -> C.inner")

let () =
  Alcotest.run "inlining"
    [
      ( "speculative",
        [
          Alcotest.test_case "profile-driven guarded inline" `Quick test_speculative_inline;
          Alcotest.test_case "guard miss remats both frames" `Quick
            test_guard_miss_remat_both_frames;
          Alcotest.test_case "blacklist stops respeculation" `Quick
            test_blacklist_stops_respeculation;
          Alcotest.test_case "inlining bit gates guards" `Quick test_inlining_off;
          Alcotest.test_case "explain renders inline origin" `Quick test_explain_renders_origin;
        ] );
    ]
