(* Pea_obs.Json: what the emitters write parses back to the same values,
   malformed input raises Parse_error and nothing else, and every
   committed BENCH_*.json file has the bench schema. *)

module Json = Pea_obs.Json

(* A typed value and the field the emitters write for it. *)
type v = I of int | S of string | B of bool | F of int * float | A of v list

let rec field name = function
  | I n -> Json.int_field name n
  | S s -> Json.str_field name s
  | B b -> Json.bool_field name b
  | F (decimals, x) -> Json.float_field name ~decimals x
  | A vs -> (name, Json.arr (List.map (fun v -> snd (field "" v)) vs))

let rec expected = function
  | I n -> Json.Int n
  | S s -> Json.Str s
  | B b -> Json.Bool b
  | F (decimals, x) -> Json.Float (float_of_string (Printf.sprintf "%.*f" decimals x))
  | A vs -> Json.List (List.map expected vs)

let gen_bytes =
  QCheck.Gen.(
    string_size ~gen:(oneof [ char; oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\031' ] ])
      (0 -- 12))

let gen_v =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             frequency
               [
                 (3, map (fun n -> I n) (oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ]));
                 (3, map (fun s -> S s) gen_bytes);
                 (1, map (fun b -> B b) bool);
                 ( 2,
                   map2
                     (fun decimals x -> F (decimals, x))
                     (1 -- 6)
                     (oneof [ float_range (-1e6) 1e6; float_bound_inclusive 1e300 ]) );
               ]
           in
           if n <= 1 then leaf
           else
             frequency [ (3, leaf); (1, map (fun vs -> A vs) (list_size (0 -- 4) (self (n / 4)))) ]))

let gen_obj = QCheck.Gen.(list_size (0 -- 8) (pair gen_bytes gen_v))

let written fields = Json.obj (List.map (fun (k, v) -> field k v) fields)

let roundtrip =
  QCheck.Test.make ~count:500 ~name:"obj parses back to its fields"
    (QCheck.make ~print:written gen_obj)
    (fun fields ->
      Json.parse (written fields) = Json.Obj (List.map (fun (k, v) -> (k, expected v)) fields))

let malformed () =
  List.iter
    (fun src ->
      match Json.parse src with
      | exception Json.Parse_error _ -> ()
      | exception e -> Alcotest.failf "%S raised %s, not Parse_error" src (Printexc.to_string e)
      | _ -> Alcotest.failf "%S parsed" src)
    [
      "-";
      "1.";
      "1e";
      "1e+";
      "-.5";
      "99999999999999999999999";
      "-99999999999999999999999";
      "4611686018427387904";
      "1e999";
      "{\"a\":}";
      "[1,]";
      "1 2";
      "{\"events\":-}";
    ]

let float_field_rejects () =
  List.iter
    (fun (decimals, x) ->
      match Json.float_field "x" ~decimals x with
      | exception Invalid_argument _ -> ()
      | _, v -> Alcotest.failf "float_field ~decimals:%d wrote %s" decimals v)
    [ (3, Float.nan); (3, Float.infinity); (3, Float.neg_infinity); (0, 1.5) ]

(* The bench writes its files into the repository root; the test runs
   one directory below it in the build tree. *)
let bench_files =
  List.sort compare
    (List.filter
       (fun f -> String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
       (Array.to_list (Sys.readdir "..")))

let bench_schema file () =
  let v = Json.parse (In_channel.with_open_bin (Filename.concat ".." file) In_channel.input_all) in
  let get name =
    match Json.member name v with Some x -> x | None -> Alcotest.failf "%s: no %S" file name
  in
  let rows =
    match get "rows" with
    | Json.List (_ :: _ as rows) ->
        List.map
          (function
            | Json.Obj fields -> fields | _ -> Alcotest.failf "%s: a row is not an object" file)
          rows
    | _ -> Alcotest.failf "%s: rows is not a non-empty array" file
  in
  let top = match v with Json.Obj fields -> fields | _ -> [] in
  let is_field name = List.mem_assoc name top || List.exists (List.mem_assoc name) rows in
  (match get "measured" with
  | Json.List names ->
      List.iter
        (function
          | Json.Str name when is_field name -> ()
          | Json.Str name -> Alcotest.failf "%s: measured names %S, which is no field" file name
          | _ -> Alcotest.failf "%s: measured holds a non-string" file)
        names
  | _ -> Alcotest.failf "%s: measured is not an array" file);
  match get "gates" with
  | Json.Obj (_ :: _ as gates) ->
      List.iter
        (fun (name, verdict) ->
          match verdict with
          | Json.Str ("pass" | "fail") -> ()
          | Json.Str w when String.starts_with ~prefix:"waived: " w -> ()
          | _ -> Alcotest.failf "%s: gate %S has no pass/fail/waived verdict" file name)
        gates
  | _ -> Alcotest.failf "%s: gates is not a non-empty object" file

let () =
  Alcotest.run "json"
    [
      ( "parse",
        [
          QCheck_alcotest.to_alcotest roundtrip;
          Alcotest.test_case "malformed input raises Parse_error" `Quick malformed;
          Alcotest.test_case "float_field rejects" `Quick float_field_rejects;
        ] );
      ( "bench-files",
        Alcotest.test_case "committed files exist" `Quick (fun () ->
            if bench_files = [] then Alcotest.fail "no BENCH_*.json next to the test")
        :: List.map (fun f -> Alcotest.test_case f `Quick (bench_schema f)) bench_files );
    ]
