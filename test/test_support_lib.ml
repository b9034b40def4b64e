(* Unit and property tests for the support library, and for the test
   suites' own machinery: the environment check ([Test_env.invalid]) and
   the drawn configuration ([Test_support.gen_config]) that every
   differential, monotonicity and parity property runs its cases under. *)

open Pea_support

let test_dyn_array_basic () =
  let t = Dyn_array.create () in
  Alcotest.(check int) "empty length" 0 (Dyn_array.length t);
  let i0 = Dyn_array.push t 10 in
  let i1 = Dyn_array.push t 20 in
  Alcotest.(check int) "first index" 0 i0;
  Alcotest.(check int) "second index" 1 i1;
  Alcotest.(check int) "get 0" 10 (Dyn_array.get t 0);
  Alcotest.(check int) "get 1" 20 (Dyn_array.get t 1);
  Dyn_array.set t 0 99;
  Alcotest.(check int) "after set" 99 (Dyn_array.get t 0);
  Alcotest.(check (list int)) "to_list" [ 99; 20 ] (Dyn_array.to_list t)

let test_dyn_array_growth () =
  let t = Dyn_array.create () in
  for i = 0 to 999 do
    ignore (Dyn_array.push t i)
  done;
  Alcotest.(check int) "length" 1000 (Dyn_array.length t);
  for i = 0 to 999 do
    Alcotest.(check int) (Printf.sprintf "elem %d" i) i (Dyn_array.get t i)
  done

let test_dyn_array_bounds () =
  let t = Dyn_array.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Dyn_array: index 3 out of bounds (len 3)") (fun () ->
      ignore (Dyn_array.get t 3));
  Alcotest.check_raises "negative index"
    (Invalid_argument "Dyn_array: index -1 out of bounds (len 3)") (fun () ->
      ignore (Dyn_array.get t (-1)))

let test_dyn_array_truncate () =
  let t = Dyn_array.of_list [ 1; 2; 3; 4 ] in
  Dyn_array.truncate t 2;
  Alcotest.(check (list int)) "after truncate" [ 1; 2 ] (Dyn_array.to_list t);
  let i = Dyn_array.push t 9 in
  Alcotest.(check int) "push reuses index" 2 i

let test_union_find_basic () =
  let u = Union_find.create 5 in
  Alcotest.(check int) "initially 5 sets" 5 (Union_find.n_sets u);
  Alcotest.(check bool) "0 and 1 initially separate" false (Union_find.same_set u 0 1);
  Union_find.union u 0 1;
  Alcotest.(check bool) "0 and 1 merged" true (Union_find.same_set u 0 1);
  Alcotest.(check int) "4 sets after one union" 4 (Union_find.n_sets u);
  Union_find.union u 1 2;
  Alcotest.(check bool) "0 and 2 transitively merged" true (Union_find.same_set u 0 2)

let test_union_find_escape_propagation () =
  let u = Union_find.create 4 in
  Union_find.mark_escaped u 0;
  Alcotest.(check bool) "0 escaped" true (Union_find.escaped u 0);
  Alcotest.(check bool) "1 not escaped" false (Union_find.escaped u 1);
  (* merging a non-escaped set into an escaped one taints it *)
  Union_find.union u 0 1;
  Alcotest.(check bool) "1 escaped after union with 0" true (Union_find.escaped u 1);
  (* and the other direction *)
  Union_find.union u 2 3;
  Union_find.mark_escaped u 3;
  Alcotest.(check bool) "2 escaped via set flag" true (Union_find.escaped u 2)

let test_union_find_idempotent_union () =
  let u = Union_find.create 3 in
  Union_find.union u 0 1;
  Union_find.union u 0 1;
  Union_find.union u 1 0;
  Alcotest.(check int) "sets" 2 (Union_find.n_sets u)

let prop_union_find_transitive =
  QCheck.Test.make ~name:"union-find: same_set is an equivalence" ~count:200
    QCheck.(pair (list (pair (int_bound 19) (int_bound 19))) (pair (int_bound 19) (int_bound 19)))
    (fun (unions, (a, b)) ->
      let u = Union_find.create 20 in
      List.iter (fun (x, y) -> Union_find.union u x y) unions;
      (* reflexive, symmetric *)
      Union_find.same_set u a a
      && Union_find.same_set u a b = Union_find.same_set u b a)

let prop_union_find_escape_monotone =
  QCheck.Test.make ~name:"union-find: escaped is monotone under unions" ~count:200
    QCheck.(pair (list (pair (int_bound 9) (int_bound 9))) (int_bound 9))
    (fun (unions, esc) ->
      let u = Union_find.create 10 in
      Union_find.mark_escaped u esc;
      List.iter (fun (x, y) -> Union_find.union u x y) unions;
      (* everything now in esc's set must report escaped *)
      List.for_all
        (fun x -> (not (Union_find.same_set u x esc)) || Union_find.escaped u x)
        [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ])

let test_fresh () =
  let f = Fresh.create () in
  Alcotest.(check int) "first" 0 (Fresh.next f);
  Alcotest.(check int) "second" 1 (Fresh.next f);
  Alcotest.(check int) "peek" 2 (Fresh.peek f);
  Fresh.reserve f 10;
  Alcotest.(check int) "after reserve" 10 (Fresh.next f);
  Fresh.reserve f 5;
  Alcotest.(check int) "reserve never goes backwards" 11 (Fresh.next f)

let test_dot () =
  let d = Dot.create "g" in
  Dot.node d ~id:"a" ~label:"hello \"world\"" ~shape:"box" ();
  Dot.edge d ~src:"a" ~dst:"b" ~label:"x" ();
  let s = Dot.contents d in
  Alcotest.(check bool) "has digraph" true (String.length s > 0 && String.sub s 0 7 = "digraph");
  Alcotest.(check bool) "escapes quotes" true
    (let sub = "\\\"world\\\"" in
     let rec contains i =
       i + String.length sub <= String.length s
       && (String.sub s i (String.length sub) = sub || contains (i + 1))
     in
     contains 0)

(* Listed names with listed values pass and other variables are ignored;
   an unknown name (a typo or a retired variable) and an unknown value
   are each reported by name, a bad value together with the accepted
   ones. *)
let test_env_check () =
  Alcotest.(check (list string)) "known bindings pass" []
    (Test_env.invalid
       [ ("MJVM_TEST_QCHECK_COUNT", "500"); ("PATH", "/usr/bin") ]);
  List.iter
    (fun (name, value) ->
      match Test_env.invalid [ ("MJVM_TEST_QCHECK_COUNT", "100"); (name, value) ] with
      | [ msg ] ->
          Alcotest.(check bool) (name ^ " named") true (String.starts_with ~prefix:name msg)
      | msgs -> Alcotest.failf "%s=%s: %d messages" name value (List.length msgs))
    [ ("MJVM_TEST_QCHECK_COUNT", "0"); ("MJVM_TEST_TIER", "closure"); ("MJVM_TEST_OPTS", "pea") ];
  Alcotest.(check (list string)) "a bad value names the accepted ones"
    [ "MJVM_TEST_QCHECK_COUNT: unknown value \"many\" (accepted: a positive integer)" ]
    (Test_env.invalid [ ("MJVM_TEST_QCHECK_COUNT", "many") ]);
  (* retired variables: the compile mode went with its mode, the
     configuration and instrumentation axes are drawn per case now, and
     the threaded serving suites always run. A stale script that still
     sets one, with any value, stops the suite instead of running the
     default configuration. *)
  List.iter
    (fun (name, value) ->
      Alcotest.(check (list string)) ("retired " ^ name)
        [ name ^ ": unknown test variable" ]
        (Test_env.invalid [ (name, value) ]))
    [
      ("MJVM_TEST_COMPILE_MODE", "sync");
      ("MJVM_TEST_COMPILE_MODE", "replay");
      ("MJVM_TEST_OPT", "pea");
      ("MJVM_TEST_SUMMARIES", "off");
      ("MJVM_TEST_OSR", "off");
      ("MJVM_TEST_CHECK_LEVEL", "every-phase");
      ("MJVM_TEST_ORACLE", "on");
      ("MJVM_TEST_STACKALLOC", "off");
      ("MJVM_TEST_INLINING", "off");
      ("MJVM_TEST_TRACE", "1");
      ("MJVM_TEST_PROFILE", "1");
      ("MJVM_TEST_SERVE", "real");
      ("MJVM_TEST_SERVE", "replay");
    ]

(* Over 400 seeded draws of [Test_support.gen_config], read as a failing
   case prints them, any two axes meet in every combination of their
   values, as the retired test matrix crossed the opt level with
   summaries, OSR and inlining. A draw that loses one fails here. *)
let test_draws_every_pair () =
  let two = [ "off"; "on" ] and levels = [ "every-phase"; "none"; "phase-end" ] in
  let axes =
    [ ("opt", [ "ea"; "none"; "pea" ]); ("summaries", two); ("osr", two); ("inlining", two);
      ("stackalloc", two); ("check-level", levels); ("oracle", two); ("tracer", two);
      ("profilers", two) ]
  in
  let shown d =
    List.map
      (fun kv -> match String.split_on_char '=' kv with [ k; v ] -> (k, v) | _ -> (kv, ""))
      (String.split_on_char ' ' (Test_support.show_draw d))
  in
  let rand = Random.State.make [| 26 |] in
  let draws = List.map shown (QCheck2.Gen.generate ~rand ~n:400 (Test_support.gen_config ())) in
  let rec pairs = function [] -> [] | a :: rest -> List.map (fun b -> (a, b)) rest @ pairs rest in
  List.iter
    (fun ((xa, va), (xb, vb)) ->
      Alcotest.(check (list (pair string string)))
        (xa ^ " x " ^ xb)
        (List.concat_map (fun a -> List.map (fun b -> (a, b)) vb) va)
        (List.sort_uniq compare (List.map (fun d -> (List.assoc xa d, List.assoc xb d)) draws)))
    (pairs axes)

let () =
  Alcotest.run "support"
    [
      ( "dyn_array",
        [
          Alcotest.test_case "basic" `Quick test_dyn_array_basic;
          Alcotest.test_case "growth" `Quick test_dyn_array_growth;
          Alcotest.test_case "bounds" `Quick test_dyn_array_bounds;
          Alcotest.test_case "truncate" `Quick test_dyn_array_truncate;
        ] );
      ( "union_find",
        [
          Alcotest.test_case "basic" `Quick test_union_find_basic;
          Alcotest.test_case "escape propagation" `Quick test_union_find_escape_propagation;
          Alcotest.test_case "idempotent union" `Quick test_union_find_idempotent_union;
          QCheck_alcotest.to_alcotest prop_union_find_transitive;
          QCheck_alcotest.to_alcotest prop_union_find_escape_monotone;
        ] );
      ("fresh", [ Alcotest.test_case "sequence" `Quick test_fresh ]);
      ("dot", [ Alcotest.test_case "render" `Quick test_dot ]);
      ("test-env", [ Alcotest.test_case "unknown names and values" `Quick test_env_check ]);
      ( "gen-config",
        [ Alcotest.test_case "every two axes meet in every combination" `Quick test_draws_every_pair ]
      );
    ]
