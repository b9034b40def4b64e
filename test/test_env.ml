(* Environment-variable overrides for the test suites, so the whole suite
   can be re-run under a forced VM configuration (see bench/run_matrix.sh):

   - MJVM_TEST_OPT = none | ea | pea   forces the optimization level;
   - MJVM_TEST_SUMMARIES = on | off forces interprocedural summaries on
     or off;
   - MJVM_TEST_OSR = on | off forces on-stack replacement on or off;
   - MJVM_TEST_CHECK_LEVEL = none | phase-end | every-phase forces when
     the speculation-safety verifier runs in the JIT pipeline;
   - MJVM_TEST_ORACLE = on | off forces the bisimulation deopt oracle;
   - MJVM_TEST_STACKALLOC = on | off forces the stack-allocation tier
     (frame-bounded materializations placed in the frame's stack region
     instead of the heap) on or off;
   - MJVM_TEST_INLINING = on | off forces speculative guarded inlining
     (profile-driven dominant-receiver inlining behind exact-class
     guards) on or off;
   - MJVM_TEST_QCHECK_COUNT = N (a positive integer) scales the qcheck
     case counts (the matrix run uses 500+; the default local counts keep
     the suite fast);
   - MJVM_TEST_TRACE = on installs a global tracer for the whole
     suite, so every cell also exercises the instrumentation paths (the
     trace itself is discarded — the point is that results and counters
     must not move);
   - MJVM_TEST_PROFILE = on installs the global sampling and heap
     profilers for the whole suite, same discipline as MJVM_TEST_TRACE:
     the profiles are discarded, the point is that profiling must not
     move any result or deterministic counter;
   - MJVM_TEST_SERVE = replay | real selects the multi-tenant serving
     harness mode for test_serving.ml: `replay` (what the @serving alias
     forces for CI) runs the deterministic single-threaded schedule;
     `real` additionally unlocks the threaded suites that run real
     worker domains and pin their reports bit-for-bit to replay's. This
     axis is read by test_serving.ml directly (see [serve_real]), not
     through [apply] — the serving harness owns its tenants' OSR
     setting by design.

   Wherever on | off is listed, 1 | true and 0 | false are accepted too.
   Unset variables leave the test's own configuration untouched. Any other
   MJVM_TEST_* name or value stops the suite at start-up with a message
   naming the variable and, for a bad value, the accepted ones: a typo
   must not silently run the default configuration. *)

open Pea_vm

(* An accepted-values check with its description for error messages. *)
let one_of values = (String.concat " | " values, fun v -> List.mem v values)

let flag = one_of [ "on"; "off"; "1"; "0"; "true"; "false" ]

(* Every MJVM_TEST_* variable the suites read, with its accepted values. *)
let variables =
  [
    ("MJVM_TEST_OPT", one_of [ "none"; "ea"; "pea" ]);
    ("MJVM_TEST_SUMMARIES", flag);
    ("MJVM_TEST_OSR", flag);
    ( "MJVM_TEST_CHECK_LEVEL",
      ( "none | phase-end | every-phase",
        fun v -> Pea_analysis.Spec_check.level_of_string v <> None ) );
    ("MJVM_TEST_ORACLE", flag);
    ("MJVM_TEST_STACKALLOC", flag);
    ("MJVM_TEST_INLINING", flag);
    ( "MJVM_TEST_QCHECK_COUNT",
      ( "a positive integer",
        fun v -> match int_of_string_opt v with Some n -> n > 0 | None -> false ) );
    ("MJVM_TEST_TRACE", flag);
    ("MJVM_TEST_PROFILE", flag);
    ("MJVM_TEST_SERVE", one_of [ "replay"; "real" ]);
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

let () =
  match Sys.getenv_opt "MJVM_TEST_TRACE" with
  | Some ("1" | "on" | "true") -> Pea_obs.Trace.install (Pea_obs.Trace.create ())
  | Some _ | None -> ()

let () =
  match Sys.getenv_opt "MJVM_TEST_PROFILE" with
  | Some ("1" | "on" | "true") ->
      Pea_obs.Profile_cpu.install (Pea_obs.Profile_cpu.create ());
      Pea_obs.Profile_heap.install (Pea_obs.Profile_heap.create ())
  | Some _ | None -> ()

(* Tests that compare optimization levels against each other are
   meaningless when the level is forced from the outside. *)
let opt_forced () = Sys.getenv_opt "MJVM_TEST_OPT" <> None

(* Serving-harness mode: whether the real-domain suites are unlocked. *)
let serve_real () =
  match Sys.getenv_opt "MJVM_TEST_SERVE" with Some "real" -> true | Some _ | None -> false

(* qcheck case count: [default] unless MJVM_TEST_QCHECK_COUNT is set. *)
let qcheck_count default =
  match Sys.getenv_opt "MJVM_TEST_QCHECK_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

let apply (cfg : Jit.config) =
  let cfg =
    match Sys.getenv_opt "MJVM_TEST_OPT" with
    | Some "none" -> { cfg with Jit.opt = Jit.O_none }
    | Some "ea" -> { cfg with Jit.opt = Jit.O_ea }
    | Some "pea" -> { cfg with Jit.opt = Jit.O_pea }
    | Some _ | None -> cfg
  in
  let cfg =
    match Sys.getenv_opt "MJVM_TEST_SUMMARIES" with
    | Some ("0" | "off" | "false") -> { cfg with Jit.summaries = false }
    | Some _ -> { cfg with Jit.summaries = true }
    | None -> cfg
  in
  let cfg =
    match Sys.getenv_opt "MJVM_TEST_OSR" with
    | Some ("on" | "1" | "true") -> { cfg with Jit.osr = true }
    | Some ("off" | "0" | "false") -> { cfg with Jit.osr = false }
    | Some _ | None -> cfg
  in
  let cfg =
    match Sys.getenv_opt "MJVM_TEST_CHECK_LEVEL" with
    | Some s -> (
        match Pea_analysis.Spec_check.level_of_string s with
        | Some level -> { cfg with Jit.check_level = level }
        | None -> cfg)
    | None -> cfg
  in
  let cfg =
    match Sys.getenv_opt "MJVM_TEST_INLINING" with
    | Some ("on" | "1" | "true") -> { cfg with Jit.inlining = true }
    | Some ("off" | "0" | "false") -> { cfg with Jit.inlining = false }
    | Some _ | None -> cfg
  in
  let cfg =
    match Sys.getenv_opt "MJVM_TEST_ORACLE" with
    | Some ("on" | "1" | "true") -> { cfg with Jit.oracle = true }
    | Some ("off" | "0" | "false") -> { cfg with Jit.oracle = false }
    | Some _ | None -> cfg
  in
  match Sys.getenv_opt "MJVM_TEST_STACKALLOC" with
  | Some ("on" | "1" | "true") -> { cfg with Jit.stackalloc = true }
  | Some ("off" | "0" | "false") -> { cfg with Jit.stackalloc = false }
  | Some _ | None -> cfg
