(* Unit tests for frame states: value traversal, virtual-object
   descriptors, and the shapes produced by the builder and rewritten by
   partial escape analysis. *)

open Pea_bytecode
open Pea_ir

let dummy_method () =
  let program =
    Link.compile_source "class Main { static int main() { return 0; } }"
  in
  Link.entry_exn program

let cls_of () =
  let program =
    Link.compile_source ~require_main:false "class P { int a; P next; }"
  in
  Link.find_class program "P"

let sample_fs () : Frame_state.t =
  let m = dummy_method () in
  let p = cls_of () in
  let inner : Frame_state.t =
    {
      fs_method = m;
      fs_bci = 7;
      fs_locals = [| F_node 1; F_virtual 0; F_const (Frame_state.Cint 5) |];
      fs_stack = [ F_node 2 ];
      fs_locks = [ F_virtual 0 ];
      fs_outer = None;
      fs_virtuals =
        [ (0, { vd_shape = Obj_shape p; vd_fields = [| F_node 3; F_virtual 0 |]; vd_lock = 1 }) ];
    }
  in
  { inner with fs_outer = Some { inner with fs_bci = 3; fs_outer = None; fs_virtuals = [] } }

let test_depth () =
  Alcotest.(check int) "two frames" 2 (Frame_state.depth (sample_fs ()))

let collect iter fs =
  let acc = ref [] in
  iter (fun x -> acc := x :: !acc) fs;
  List.rev !acc

let node_ids = collect Frame_state.iter_nodes

let test_node_ids () =
  (* nodes 1, 2 and 3 appear (3 via the descriptor) in the inner frame,
     1 and 2 in the outer one, in iter_values order *)
  Alcotest.(check (list int)) "ids" [ 1; 2; 3; 1; 2 ] (node_ids (sample_fs ()));
  Alcotest.(check (list int)) "virtual references" [ 0; 0; 0; 0; 0 ]
    (collect Frame_state.iter_virtuals (sample_fs ()));
  Alcotest.(check (list int)) "descriptors" [ 0 ]
    (collect (fun f -> Frame_state.iter_descs (fun id _ -> f id)) (sample_fs ()));
  Alcotest.(check bool) "exists" true (Frame_state.exists_node (( = ) 3) (sample_fs ()));
  Alcotest.(check bool) "not exists" false (Frame_state.exists_node (( = ) 4) (sample_fs ()))

let test_map_values () =
  let fs = sample_fs () in
  let shifted =
    Frame_state.map_values
      (function Frame_state.F_node n -> Frame_state.F_node (n + 100) | v -> v)
      fs
  in
  let ids = List.sort_uniq compare (node_ids shifted) in
  Alcotest.(check (list int)) "shifted ids" [ 101; 102; 103 ] ids;
  (* virtual references and constants are untouched *)
  (match shifted.Frame_state.fs_locals.(1) with
  | Frame_state.F_virtual 0 -> ()
  | _ -> Alcotest.fail "virtual reference changed");
  match shifted.Frame_state.fs_locals.(2) with
  | Frame_state.F_const (Frame_state.Cint 5) -> ()
  | _ -> Alcotest.fail "constant changed"

let test_iter_covers_descriptors () =
  let count = ref 0 in
  Frame_state.iter_values (fun _ -> incr count) (sample_fs ());
  (* inner: 3 locals + 1 stack + 1 lock + 2 descriptor fields = 7;
     outer: 3 locals + 1 stack + 1 lock = 5 *)
  Alcotest.(check int) "all values visited" 12 !count

let test_pp_mentions_virtuals () =
  let s = Fmt.str "%a" Frame_state.pp (sample_fs ()) in
  let contains sub =
    let n = String.length sub in
    let rec loop i = i + n <= String.length s && (String.sub s i n = sub || loop (i + 1)) in
    loop 0
  in
  Alcotest.(check bool) "mentions virt0" true (contains "virt0");
  Alcotest.(check bool) "mentions lock depth" true (contains "/lock1")

(* Builder-produced frame states clear dead locals (liveness): a local
   that is never read after the side effect shows up as undef. *)
let test_dead_local_cleared () =
  let program =
    Link.compile_source
      "class Main {\n\
      \  static int g;\n\
      \  static int main() { int dead = 42; Main.g = 1; return Main.g; }\n\
       }"
  in
  let g = Builder.build (Link.entry_exn program) in
  let found = ref false in
  Graph.iter_blocks
    (fun b ->
      Pea_support.Dyn_array.iter
        (fun (n : Node.t) ->
          match n.Node.op, n.Node.fs with
          | Node.Store_static _, Some fs ->
              found := true;
              Array.iter
                (fun v ->
                  match v with
                  | Frame_state.F_const Frame_state.Cundef -> ()
                  | Frame_state.F_node _ ->
                      Alcotest.fail "dead local survived in the frame state"
                  | _ -> ())
                fs.Frame_state.fs_locals
          | _ -> ())
        b.Graph.instrs)
    g;
  Alcotest.(check bool) "store found" true !found

(* ...and live locals survive. *)
let test_live_local_kept () =
  let program =
    Link.compile_source
      "class Main {\n\
      \  static int g;\n\
      \  static int main() { int live = 42; Main.g = 1; return live; }\n\
       }"
  in
  let g = Builder.build (Link.entry_exn program) in
  let found = ref false in
  Graph.iter_blocks
    (fun b ->
      Pea_support.Dyn_array.iter
        (fun (n : Node.t) ->
          match n.Node.op, n.Node.fs with
          | Node.Store_static _, Some fs ->
              let has_live =
                Array.exists
                  (function Frame_state.F_node _ -> true | _ -> false)
                  fs.Frame_state.fs_locals
              in
              found := true;
              Alcotest.(check bool) "live local kept" true has_live
          | _ -> ())
        b.Graph.instrs)
    g;
  Alcotest.(check bool) "store found" true !found

let () =
  Alcotest.run "frame_state"
    [
      ( "frame_state",
        [
          Alcotest.test_case "depth" `Quick test_depth;
          Alcotest.test_case "node ids" `Quick test_node_ids;
          Alcotest.test_case "map values" `Quick test_map_values;
          Alcotest.test_case "iter covers descriptors" `Quick test_iter_covers_descriptors;
          Alcotest.test_case "pp" `Quick test_pp_mentions_virtuals;
          Alcotest.test_case "dead local cleared" `Quick test_dead_local_cleared;
          Alcotest.test_case "live local kept" `Quick test_live_local_kept;
        ] );
    ]
