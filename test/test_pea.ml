(* White-box tests of partial escape analysis, following the paper:

   - §5.2 / Figure 4: effects of nodes on virtual objects (allocation,
     store, load, monitorenter/exit, store/load of virtual into virtual);
   - Figure 5: stores on escaped objects;
   - §5.3 / Figure 6: the MergeProcessor (alias intersection, merging of
     escaped objects, phi aliasing);
   - §4 / Listings 4-6: the running example — the allocation moves into
     the branch where the object escapes;
   - folding of reference equality and type checks on virtual objects. *)

open Pea_bytecode
open Pea_ir
open Pea_core

let graph_of src cls name ~inline =
  let program = Link.compile_source ~require_main:false src in
  let m = Link.find_method program cls name in
  let g = Builder.build m in
  if inline then ignore (Pea_opt.Inline.run (Pea_opt.Inline.default_config program) g);
  ignore (Pea_opt.Canonicalize.run g);
  ignore (Pea_opt.Gvn.run g);
  Check.check_exn g;
  (program, g)

let run_pea g =
  let g', st = Pea.run g in
  ignore (Pea_opt.Canonicalize.run g');
  Check.check_exn g';
  (g', st)

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

let allocs g =
  count_ops g (function Node.New _ | Node.Alloc _ -> true | _ -> false)

let monitors g =
  count_ops g (function Node.Monitor_enter _ | Node.Monitor_exit _ -> true | _ -> false)

let field_ops g =
  count_ops g (function Node.Load_field _ | Node.Store_field _ -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Figure 4: operations on virtual objects                             *)
(* ------------------------------------------------------------------ *)

(* (a)+(b): allocation, stores and loads on a purely local object are all
   removed *)
let test_fig4_scalar_replacement () =
  let _, g =
    graph_of
      "class P { int x; int y; }\n\
       class C { static int f(int a) { P p = new P(); p.x = a; p.y = a * 2; return p.x + p.y; } }"
      "C" "f" ~inline:false
  in
  Alcotest.(check int) "one allocation before" 1 (allocs g);
  let g', st = run_pea g in
  Alcotest.(check int) "no allocation after" 0 (allocs g');
  Alcotest.(check int) "no field ops after" 0 (field_ops g');
  Alcotest.(check int) "virtualized" 1 st.Pea.virtualized_allocs;
  Alcotest.(check int) "loads removed" 2 st.Pea.removed_loads;
  Alcotest.(check int) "stores removed" 2 st.Pea.removed_stores;
  Alcotest.(check int) "no materialization" 0 st.Pea.materializations

(* (c)+(d): monitorenter/monitorexit on a virtual object are elided *)
let test_fig4_lock_elision () =
  let _, g =
    graph_of
      "class P { int x; }\n\
       class C { static int f(int a) { P p = new P(); synchronized (p) { p.x = a; } return p.x; } }"
      "C" "f" ~inline:false
  in
  Alcotest.(check int) "monitors before" 2 (monitors g);
  let g', st = run_pea g in
  Alcotest.(check int) "monitors after" 0 (monitors g');
  Alcotest.(check int) "removed monitor ops" 2 st.Pea.removed_monitor_ops;
  Alcotest.(check int) "no allocation after" 0 (allocs g')

(* (e)+(f): a virtual object stored into another virtual object keeps its
   Id; loading it back yields the same virtual object *)
let test_fig4_virtual_into_virtual () =
  let _, g =
    graph_of
      "class Inner { int v; }\n\
       class Outer { Inner inner; }\n\
       class C {\n\
      \  static int f(int a) {\n\
      \    Inner i = new Inner(); i.v = a;\n\
      \    Outer o = new Outer(); o.inner = i;\n\
      \    Inner j = o.inner;\n\
      \    return j.v;\n\
      \  }\n\
       }"
      "C" "f" ~inline:false
  in
  let g', st = run_pea g in
  Alcotest.(check int) "both allocations removed" 0 (allocs g');
  Alcotest.(check int) "virtualized" 2 st.Pea.virtualized_allocs;
  Alcotest.(check int) "no materialization" 0 st.Pea.materializations

(* Figure 5: a store into an escaped object materializes the stored
   (virtual) value *)
let test_fig5_store_into_escaped () =
  let _, g =
    graph_of
      "class P { int v; P other; }\n\
       class C {\n\
      \  static P sink;\n\
      \  static void f(int a) {\n\
      \    P escaped = new P();\n\
      \    C.sink = escaped;\n\
      \    P local = new P();\n\
      \    local.v = a;\n\
      \    escaped.other = local;\n\
      \  }\n\
       }"
      "C" "f" ~inline:false
  in
  let g', st = run_pea g in
  (* both objects end up allocated: one at the static store, the other
     when stored into the escaped one *)
  Alcotest.(check int) "two allocations" 2 (allocs g');
  Alcotest.(check int) "two materializations" 2 st.Pea.materializations

(* ------------------------------------------------------------------ *)
(* Listings 4-6: the running example                                   *)
(* ------------------------------------------------------------------ *)

let cache_src = Programs.cache

let test_listing6_partial_escape () =
  let _, g = graph_of cache_src "Cache" "getValue" ~inline:true in
  (* after inlining, the method contains the Key allocation and the
     synchronized equals body *)
  Alcotest.(check int) "one allocation before" 1 (allocs g);
  Alcotest.(check bool) "monitors present before" true (monitors g > 0);
  let g', st = run_pea g in
  (* the allocation is still present (the object escapes into cacheKey),
     but only on the miss path: exactly one materialization, and the New
     node is gone *)
  Alcotest.(check int) "one allocation site after" 1 (allocs g');
  Alcotest.(check int) "virtualized" 1 st.Pea.virtualized_allocs;
  Alcotest.(check int) "one materialization" 1 st.Pea.materializations;
  (* all monitor operations are gone: the object is virtual in the
     synchronized region (Listing 6 has no synchronized at all) *)
  Alcotest.(check int) "no monitors after" 0 (monitors g');
  (* the materialization must NOT be in a block that dominates the return
     of the hit path: check that the entry block contains no allocation *)
  let entry_allocs = ref 0 in
  Pea_support.Dyn_array.iter
    (fun (n : Node.t) ->
      match n.Node.op with Node.New _ | Node.Alloc _ -> incr entry_allocs | _ -> ())
    (Graph.block g' Graph.entry_id).Graph.instrs;
  Alcotest.(check int) "no allocation on the common path" 0 !entry_allocs

(* The whole-method EA baseline cannot remove the allocation at all. *)
let test_listing4_baseline_ea_fails () =
  let _, g = graph_of cache_src "Cache" "getValue" ~inline:true in
  let g', st = Escape.run g in
  ignore (Pea_opt.Canonicalize.run g');
  Check.check_exn g';
  Alcotest.(check int) "allocation survives" 1 (allocs g');
  Alcotest.(check int) "nothing virtualized" 0 st.Pea.virtualized_allocs;
  (* and the monitors survive too *)
  Alcotest.(check bool) "monitors survive" true (monitors g' > 0)

(* In the fully local variant (Listing 1, no escape), whole-method EA and
   PEA both remove everything *)
let local_cache_src = Programs.local_cache

let test_listing1_full_ea () =
  let _, g = graph_of local_cache_src "Cache" "getValue" ~inline:true in
  let ea_g, _ = Escape.run g in
  ignore (Pea_opt.Canonicalize.run ea_g);
  Check.check_exn ea_g;
  Alcotest.(check int) "EA removes the allocation" 0 (allocs ea_g);
  Alcotest.(check int) "EA removes the monitors" 0 (monitors ea_g);
  let _, g2 = graph_of local_cache_src "Cache" "getValue" ~inline:true in
  let pea_g, _ = run_pea g2 in
  Alcotest.(check int) "PEA removes the allocation" 0 (allocs pea_g);
  Alcotest.(check int) "PEA removes the monitors" 0 (monitors pea_g)

(* ------------------------------------------------------------------ *)
(* Figure 6: the MergeProcessor                                        *)
(* ------------------------------------------------------------------ *)

(* (a) field-value merging: same object, different field values on the two
   paths -> one phi, allocation still removed *)
let test_fig6_field_phi () =
  let _, g =
    graph_of
      "class P { int v; }\n\
       class C {\n\
      \  static int f(boolean c) {\n\
      \    P p = new P();\n\
      \    if (c) { p.v = 1; } else { p.v = 2; }\n\
      \    return p.v;\n\
      \  }\n\
       }"
      "C" "f" ~inline:false
  in
  let g', st = run_pea g in
  Alcotest.(check int) "allocation removed" 0 (allocs g');
  Alcotest.(check int) "no materialization" 0 st.Pea.materializations;
  (* the merged field value is a phi *)
  Alcotest.(check bool) "has a phi" true (count_ops g' (function Node.Phi _ -> true | _ -> false) > 0)

(* (b) merging of escaped objects: the object escapes on both paths at
   different points; after the merge the materialized values meet in a
   phi *)
let test_fig6_escaped_merge () =
  let _, g =
    graph_of
      "class P { int v; }\n\
       class C {\n\
      \  static P a;\n\
      \  static P b;\n\
      \  static int f(boolean c) {\n\
      \    P p = new P();\n\
      \    if (c) { C.a = p; } else { C.b = p; }\n\
      \    return p.v;\n\
      \  }\n\
       }"
      "C" "f" ~inline:false
  in
  let g', st = run_pea g in
  (* materialized once per branch *)
  Alcotest.(check int) "two materializations" 2 st.Pea.materializations;
  Alcotest.(check int) "two allocation sites" 2 (allocs g')

(* mixed: virtual on one path, escaped on the other -> materialize at the
   virtual predecessor *)
let test_fig6_mixed_merge () =
  let _, g =
    graph_of
      "class P { int v; }\n\
       class C {\n\
      \  static P sink;\n\
      \  static int f(boolean c) {\n\
      \    P p = new P();\n\
      \    if (c) { C.sink = p; }\n\
      \    return p.v;\n\
      \  }\n\
       }"
      "C" "f" ~inline:false
  in
  let g', st = run_pea g in
  (* escape in the branch + materialization at the other merge
     predecessor *)
  Alcotest.(check int) "two materializations" 2 st.Pea.materializations;
  Alcotest.(check int) "allocation moved into branches" 2 (allocs g');
  ignore g'

(* (c) phi aliasing: both branches produce the same virtual object -> the
   phi becomes an alias and everything stays virtual *)
let test_fig6_phi_alias () =
  let _, g =
    graph_of
      "class P { int v; }\n\
       class C {\n\
      \  static int f(boolean c) {\n\
      \    P p = new P();\n\
      \    P q = null;\n\
      \    if (c) { q = p; p.v = 1; } else { q = p; p.v = 2; }\n\
      \    return q.v;\n\
      \  }\n\
       }"
      "C" "f" ~inline:false
  in
  let g', st = run_pea g in
  Alcotest.(check int) "allocation removed" 0 (allocs g');
  Alcotest.(check int) "no materialization" 0 st.Pea.materializations

(* different objects flowing into a phi force materialization (Fig 6,
   second bullet of the phi rules) *)
let test_fig6_phi_different_objects () =
  let _, g =
    graph_of
      "class P { int v; }\n\
       class C {\n\
      \  static int f(boolean c) {\n\
      \    P q = null;\n\
      \    if (c) { q = new P(); q.v = 1; } else { q = new P(); q.v = 2; }\n\
      \    return q.v;\n\
      \  }\n\
       }"
      "C" "f" ~inline:false
  in
  let g', st = run_pea g in
  (* both allocations materialize at their predecessors *)
  Alcotest.(check int) "two materializations" 2 st.Pea.materializations;
  Alcotest.(check int) "two allocations survive" 2 (allocs g');
  ignore st

(* Lock counts that differ across a merge's predecessors force the object
   out (§5.3). Structured source never reaches such a merge, so the test
   deletes the locking arm's monitor exit from the built graph. *)
let test_merge_unbalanced_locks () =
  let _, g =
    graph_of
      "class P { int v; }\n\
       class C {\n\
      \  static int f(boolean c) {\n\
      \    P p = new P();\n\
      \    if (c) { synchronized (p) { p.v = 1; } } else { p.v = 2; }\n\
      \    return p.v;\n\
      \  }\n\
       }"
      "C" "f" ~inline:false
  in
  Graph.iter_blocks
    (fun b ->
      Pea_support.Dyn_array.iter
        (fun (n : Node.t) ->
          match n.Node.op with Node.Monitor_exit _ -> n.Node.op <- Node.Const Node.Cundef | _ -> ())
        b.Graph.instrs)
    g;
  Alcotest.(check int) "the monitor enter is left alone" 1 (monitors g);
  let g', st = Pea.run g in
  Alcotest.(check bool) "the merge materializes the object" true
    (st.Pea.materializations >= 1 && allocs g' >= 1)

(* ------------------------------------------------------------------ *)
(* Folding of checks on virtual objects                                *)
(* ------------------------------------------------------------------ *)

let test_refcmp_folding () =
  let _, g =
    graph_of
      "class P { int v; }\n\
       class C {\n\
      \  static int f(P external) {\n\
      \    P a = new P();\n\
      \    P b = new P();\n\
      \    int acc = 0;\n\
      \    if (a == a) acc = acc + 1;\n\
      \    if (a != b) acc = acc + 2;\n\
      \    if (a != external) acc = acc + 4;\n\
      \    if (a != null) acc = acc + 8;\n\
      \    return acc;\n\
      \  }\n\
       }"
      "C" "f" ~inline:false
  in
  let g', st = run_pea g in
  ignore (Pea_opt.Canonicalize.run g');
  Alcotest.(check int) "allocations removed" 0 (allocs g');
  (* [a == a] is already folded by canonicalization before PEA runs, so
     PEA folds the remaining three *)
  Alcotest.(check bool) "checks folded" true (st.Pea.folded_checks >= 3);
  (* after folding and canonicalization the method is a constant return *)
  let refcmps = count_ops g' (function Node.RefCmp _ -> true | _ -> false) in
  Alcotest.(check int) "no reference comparisons left" 0 refcmps

let test_instanceof_checkcast_folding () =
  let _, g =
    graph_of
      "class A { int v; }\n\
       class B extends A { }\n\
       class C {\n\
      \  static int f() {\n\
      \    A a = new B();\n\
      \    int acc = 0;\n\
      \    if (a instanceof B) acc = acc + 1;\n\
      \    if (a instanceof A) acc = acc + 2;\n\
      \    B b = (B) a;\n\
      \    b.v = 4;\n\
      \    return acc + b.v;\n\
      \  }\n\
       }"
      "C" "f" ~inline:false
  in
  let g', st = run_pea g in
  ignore (Pea_opt.Canonicalize.run g');
  Alcotest.(check int) "allocation removed" 0 (allocs g');
  Alcotest.(check bool) "checks folded" true (st.Pea.folded_checks >= 3);
  Alcotest.(check int) "no instanceof left" 0
    (count_ops g' (function Node.Instance_of _ | Node.Check_cast _ -> true | _ -> false))

(* cyclic virtual structures materialize correctly with patch stores *)
let test_cyclic_materialization () =
  let _, g =
    graph_of
      "class Cell { Cell other; int v; }\n\
       class C {\n\
      \  static Cell sink;\n\
      \  static void f() {\n\
      \    Cell a = new Cell(); Cell b = new Cell();\n\
      \    a.other = b; b.other = a;\n\
      \    a.v = 1; b.v = 2;\n\
      \    C.sink = a;\n\
      \  }\n\
       }"
      "C" "f" ~inline:false
  in
  let g', st = run_pea g in
  Alcotest.(check int) "both materialized" 2 st.Pea.materializations;
  (* at least one patch store survives to close the cycle *)
  Alcotest.(check bool) "patch store present" true (field_ops g' >= 1)

(* materializing a locked virtual object re-locks it *)
let test_materialize_relock () =
  let _, g =
    graph_of
      "class P { int v; }\n\
       class C {\n\
      \  static P sink;\n\
      \  static void f() {\n\
      \    P p = new P();\n\
      \    synchronized (p) {\n\
      \      C.sink = p;\n\
      \      p.v = 1;\n\
      \    }\n\
      \  }\n\
       }"
      "C" "f" ~inline:false
  in
  let g', _ = run_pea g in
  (* monitorenter re-emitted at materialization + the original exit *)
  let enters = count_ops g' (function Node.Monitor_enter _ -> true | _ -> false) in
  let exits = count_ops g' (function Node.Monitor_exit _ -> true | _ -> false) in
  Alcotest.(check int) "one enter" 1 enters;
  Alcotest.(check int) "one exit" 1 exits

let () =
  Alcotest.run "pea"
    [
      ( "figure4",
        [
          Alcotest.test_case "scalar replacement (a,b)" `Quick test_fig4_scalar_replacement;
          Alcotest.test_case "lock elision (c,d)" `Quick test_fig4_lock_elision;
          Alcotest.test_case "virtual into virtual (e,f)" `Quick test_fig4_virtual_into_virtual;
          Alcotest.test_case "store into escaped (fig 5)" `Quick test_fig5_store_into_escaped;
        ] );
      ( "listings",
        [
          Alcotest.test_case "listing 6: partial escape" `Quick test_listing6_partial_escape;
          Alcotest.test_case "listing 4: baseline EA fails" `Quick test_listing4_baseline_ea_fails;
          Alcotest.test_case "listing 1: full EA works" `Quick test_listing1_full_ea;
        ] );
      ( "figure6",
        [
          Alcotest.test_case "field phi" `Quick test_fig6_field_phi;
          Alcotest.test_case "escaped merge" `Quick test_fig6_escaped_merge;
          Alcotest.test_case "mixed merge" `Quick test_fig6_mixed_merge;
          Alcotest.test_case "phi alias" `Quick test_fig6_phi_alias;
          Alcotest.test_case "phi different objects" `Quick test_fig6_phi_different_objects;
          Alcotest.test_case "unbalanced lock counts" `Quick test_merge_unbalanced_locks;
        ] );
      ( "folding",
        [
          Alcotest.test_case "refcmp" `Quick test_refcmp_folding;
          Alcotest.test_case "instanceof/cast" `Quick test_instanceof_checkcast_folding;
        ] );
      ( "materialization",
        [
          Alcotest.test_case "cyclic" `Quick test_cyclic_materialization;
          Alcotest.test_case "relock" `Quick test_materialize_relock;
        ] );
    ]
