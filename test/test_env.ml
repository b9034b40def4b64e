(* Environment variables of the test suites. The JIT configuration and
   the instrumentation are not among them: the properties draw both per
   case ([Test_support.gen_config]). Nor is the serving mode: the
   threaded serving suites always run. One variable remains:

   - MJVM_TEST_QCHECK_COUNT = N (a positive integer) scales the qcheck
     case counts (bench/run_matrix.sh uses 500 by default; the local
     counts keep `dune test` fast).

   Any other MJVM_TEST_* name or value stops the suite at start-up with a
   message naming the variable and, for a bad value, the accepted ones:
   a stale script that still sets a retired variable (the opt level,
   the tracer, the serving mode, ...) must not silently run the default
   configuration. *)

(* Every MJVM_TEST_* variable the suites read, with its accepted values. *)
let variables =
  [
    ( "MJVM_TEST_QCHECK_COUNT",
      ( "a positive integer",
        fun v -> match int_of_string_opt v with Some n -> n > 0 | None -> false ) );
  ]

(* [invalid env] is one message per MJVM_TEST_* binding of [env] (a list
   of (name, value) pairs) whose name or value [variables] does not
   list; other names are ignored. *)
let invalid env =
  List.filter_map
    (fun (name, value) ->
      if not (String.starts_with ~prefix:"MJVM_TEST_" name) then None
      else
        match List.assoc_opt name variables with
        | None -> Some (Printf.sprintf "%s: unknown test variable" name)
        | Some (_, ok) when ok value -> None
        | Some (accepted, _) ->
            Some (Printf.sprintf "%s: unknown value %S (accepted: %s)" name value accepted))
    env

let () =
  let binding kv =
    match String.index_opt kv '=' with
    | Some i -> (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
    | None -> (kv, "")
  in
  match invalid (List.map binding (Array.to_list (Unix.environment ()))) with
  | [] -> ()
  | errors ->
      List.iter (fun e -> prerr_endline ("test environment: " ^ e)) errors;
      exit 2

(* qcheck case count: [default] unless MJVM_TEST_QCHECK_COUNT is set. *)
let qcheck_count default =
  match Sys.getenv_opt "MJVM_TEST_QCHECK_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default
