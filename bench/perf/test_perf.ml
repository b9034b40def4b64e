(* Tests of the benchmark itself: the span arithmetic, the wide-program
   generator, the correctness gate, --compare's verdicts, and that the
   metrics the code reports are the ones BENCHMARK.json declares. *)

open Perf_bench

let span id name ~op ~parent start stop = { Span.id; name; op; parent; start_ms = start; stop_ms = stop }

(* op 1: [0, 10] with children parse [0, 3] and run [3, 9.5]; run has a
   child compile [4, 6]. op 2: [20, 24] with run [20, 24]. *)
let tree =
  [
    span 0 "op" ~op:1 ~parent:(-1) 0. 10.;
    span 1 "parse" ~op:1 ~parent:0 0. 3.;
    span 2 "run" ~op:1 ~parent:0 3. 9.5;
    span 3 "compile" ~op:1 ~parent:2 4. 6.;
    span 4 "op" ~op:2 ~parent:(-1) 20. 24.;
    span 5 "run" ~op:2 ~parent:4 20. 24.;
  ]

let close = Alcotest.(check (float 1e-9))

let test_self_time () =
  let table = Span.self_table tree in
  let row name = List.find (fun (n, _, _, _) -> n = name) table in
  let _, calls, total, self = row "run" in
  Alcotest.(check int) "run calls" 2 calls;
  close "run total" 10.5 total;
  close "run self" 8.5 self;
  let _, _, total, self = row "op" in
  close "op total" 14. total;
  close "op self" 0.5 self;
  let _, _, _, self = row "compile" in
  close "leaf self = duration" 2. self;
  close "self times sum to root time" 14.
    (Sample.sum (List.map (fun (_, _, _, s) -> s) table));
  close "coverage over all ops" (13.5 /. 14.) (Span.coverage tree);
  close "share of op time" (10.5 /. 14.) (Span.op_share tree "run");
  close "compile is not a top-level layer" 0. (Span.op_share tree "compile");
  close "per-op mean" 5.25 (Span.per_op_ms tree "run");
  close "absent layer" 0. (Span.per_op_ms tree "link")

let test_recorder () =
  let t = Span.create () in
  let tr = Some t in
  let x = Span.with_span tr "op" ~op:7 (fun () -> Span.with_span tr "inner" ~op:7 (fun () -> 42)) in
  Alcotest.(check int) "result passes through" 42 x;
  (match Span.spans t with
  | [ outer; inner ] ->
      Alcotest.(check string) "outer first" "op" outer.Span.name;
      Alcotest.(check int) "inner's parent" outer.Span.id inner.Span.parent;
      Alcotest.(check bool) "nested interval" true
        (outer.Span.start_ms <= inner.Span.start_ms && inner.Span.stop_ms <= outer.Span.stop_ms)
  | _ -> Alcotest.fail "expected two spans");
  Alcotest.check_raises "a raising span still closes" Exit (fun () ->
      Span.with_span tr "boom" ~op:8 (fun () -> raise Exit));
  Alcotest.(check int) "three spans" 3 (List.length (Span.spans t));
  Alcotest.(check int) "nothing recorded without a tracer" 5 (Span.with_span None "x" ~op:1 (fun () -> 5))

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q3 = Sample.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  close "q1" 2.75 q1;
  close "q3" 8.25 q3;
  close "median" 5.5 (Sample.median (List.init 10 (fun i -> float_of_int (i + 1))))

let test_wide () =
  Alcotest.(check string) "same seed, same bytes" (Wide.source 5) (Wide.source 5);
  Alcotest.(check bool) "other seed, other program" false (Wide.source 5 = Wide.source 6);
  List.iter (fun seed -> ignore (Pea_bytecode.Link.compile_source (Wide.source seed))) [ 1000; 2000; 3000 ];
  let r = Pea_vm.Vm.run (Pea_vm.Vm.create (Pea_bytecode.Link.compile_source (Wide.source 1000))) in
  let s = r.Pea_vm.Vm.stats in
  Alcotest.(check int) "one compiled method per class" Wide.classes s.Pea_rt.Stats.s_compiled_methods;
  Alcotest.(check int) "no OSR" 0 s.Pea_rt.Stats.s_osr_compiles;
  Alcotest.(check int) "no deopts" 0 s.Pea_rt.Stats.s_deopts

(* The correctness gate cannot pass vacuously: one corrupted expected
   value makes the run fail and exit non-zero. *)
let test_corrupt () =
  let ic =
    Unix.open_process_args_in "./perf.exe"
      [| "./perf.exe"; "--workload"; "serve-storm"; "--seed"; "3"; "--seconds"; "0.1"; "--corrupt" |]
  in
  let rec last acc = match input_line ic with l -> last (Some l) | exception End_of_file -> acc in
  let line = last None in
  let status = Unix.close_process_in ic in
  Alcotest.(check bool) "non-zero exit" true (status = Unix.WEXITED 1);
  let v = Mini_json.parse (Option.get line) in
  let num k = match Mini_json.member k v with Some (Mini_json.Num x) -> x | _ -> nan in
  Alcotest.(check bool) "correct is false" true (Mini_json.member "correct" v = Some (Mini_json.Bool false));
  Alcotest.(check bool) "failed_frac > 0" true (num "failed" /. num "attempted" > 0.)

let summary values = Compare.summarize values

let test_compare () =
  let decl name = List.find (fun d -> d.Outcome.name = name) Outcome.end_to_end in
  let verdict ?(same_seeds = true) name ~bound a b =
    Compare.verdict_string (Compare.judge (decl name) ~bound ~same_seeds (summary a) (summary b))
  in
  let base = [ 10.; 10.1; 9.9; 10.05; 9.95 ] in
  Alcotest.(check string) "within bound" "unchanged"
    (verdict "op_ms_p50_norm" ~bound:0.05 base (List.map (fun x -> x *. 1.02) base));
  Alcotest.(check string) "slower beyond bound" "worse"
    (verdict "op_ms_p50_norm" ~bound:0.05 base (List.map (fun x -> x *. 1.2) base));
  Alcotest.(check string) "higher-is-better metric" "better"
    (verdict "units_per_s_norm" ~bound:0.05 base (List.map (fun x -> x *. 1.2) base));
  Alcotest.(check string) "spread wider than the bound" "unresolved"
    (verdict "op_ms_p50_norm" ~bound:0.05 [ 8.; 10.; 12.; 9.; 11. ] [ 8.5; 10.5; 12.5; 9.5; 11.5 ]);
  Alcotest.(check string) "model metrics must repeat exactly" "worse"
    (verdict "model_cycles_per_unit" ~bound:0.05 [ 100.; 100. ] [ 100.5; 100.5 ]);
  Alcotest.(check string) "identical model metric" "unchanged"
    (verdict "allocs_per_unit" ~bound:0.05 [ 7.; 7. ] [ 7.; 7. ]);
  Alcotest.(check string) "model metric over other seeds: within its bound" "unchanged"
    (verdict ~same_seeds:false "model_cycles_per_unit" ~bound:0.02 [ 100.; 100.2 ] [ 100.5; 100.4 ])

(* BENCHMARK.json and [Outcome] declare the same metrics, in the same
   order, with the same units and directions. *)
let test_declarations () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let json = Mini_json.parse text in
  let listed key =
    match Mini_json.member key json with
    | Some (Mini_json.Arr ms) ->
        List.map
          (fun m ->
            match (Mini_json.member "name" m, Mini_json.member "unit" m, Mini_json.member "better" m) with
            | Some (Mini_json.Str n), Some (Mini_json.Str u), Some (Mini_json.Str b) -> (n, u, b)
            | _ -> Alcotest.fail ("malformed metric in " ^ key))
          ms
    | _ -> Alcotest.fail ("no " ^ key)
  in
  let declared decls =
    List.map
      (fun d -> (d.Outcome.name, d.Outcome.unit_, match d.Outcome.better with Outcome.Lower -> "lower" | Outcome.Higher -> "higher"))
      decls
  in
  let triple = Alcotest.(list (triple string string string)) in
  Alcotest.check triple "end_to_end" (declared Outcome.end_to_end) (listed "end_to_end");
  Alcotest.check triple "per_layer" (declared Outcome.per_layer) (listed "per_layer")

let () =
  Alcotest.run "perf"
    [
      ( "span",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recorder" `Quick test_recorder;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
        ] );
      ("wide", [ Alcotest.test_case "generator" `Quick test_wide ]);
      ("gate", [ Alcotest.test_case "corrupted reference fails" `Quick test_corrupt ]);
      ( "compare",
        [
          Alcotest.test_case "verdicts" `Quick test_compare;
          Alcotest.test_case "declarations match BENCHMARK.json" `Quick test_declarations;
        ] );
    ]
