(* Property-based differential testing over generated programs
   ([Program_gen]), each case under a drawn JIT configuration and
   instrumentation state ([Test_support.gen_config]):

   1. semantics are identical across the interpreter and the compiled
      configurations (no EA / whole-method EA / PEA), and for a
      multi-tenant server against isolated runs (the forced-deopt
      differential is in test_deopt.ml);
   2. dynamic allocation and monitor-operation counts never increase under
      escape analysis (§4 of the paper), and PEA subsumes whole-method EA. *)

open Pea_rt
open Pea_vm
open Program_gen

(* The generators compile what they generate: every generated [main] is
   one the JIT compiles, and every deopt case deopts at least once with
   OSR off, driven as the deopt properties drive it (25 iterations,
   threshold 22). The deopt comes from pruning, which every opt level
   runs, so the default level stands for the three. Seeded, so a
   generator change that loses either fails here rather than by
   chance. *)
let test_generators_compile () =
  let rand = Random.State.make [| 26 |] in
  let program_of src = Pea_bytecode.Link.compile_source src in
  for _ = 1 to 200 do
    let src = G.generate1 ~rand gen_program in
    if not (Jit.compilable (Pea_bytecode.Link.entry_exn (program_of src))) then
      Alcotest.failf "the JIT refuses this main:\n%s" src
  done;
  let config = { Jit.default_config with Jit.compile_threshold = 22; osr = false } in
  for _ = 1 to 40 do
    let src = G.generate1 ~rand gen_program_deopt in
    let r = Vm.run_main_iterations (Vm.create ~config (program_of src)) 25 in
    if r.Vm.stats.Stats.s_deopts = 0 then Alcotest.failf "no deopt with OSR off:\n%s" src
  done

let prop_differential =
  QCheck2.Test.make ~name:"compiled semantics = interpreter semantics"
    ~count:(Test_env.qcheck_count 200)
    ~print:(print_case ~walks:[ "opt" ])
    (with_draw ~base:{ Jit.default_config with Jit.compile_threshold = 0 } gen_program)
    (fun (src, d) ->
      let reference = Test_support.interp_reference ~iterations:3 src in
      let trace, cpu, heap = Test_support.instruments d in
      List.for_all
        (fun opt ->
          let r = run_vm ?trace ?cpu ?heap { d.Test_support.config with Jit.opt } src 3 in
          Test_support.outcome r = reference)
        opt_levels)

let prop_alloc_monotone =
  QCheck2.Test.make ~name:"PEA/EA never increase allocations or monitors"
    ~count:(Test_env.qcheck_count 100)
    ~print:(print_case ~walks:[ "opt" ])
    (with_draw ~base:{ Jit.default_config with Jit.compile_threshold = 0 } gen_program)
    (fun (src, d) ->
      let trace, cpu, heap = Test_support.instruments d in
      let run opt =
        (run_vm ?trace ?cpu ?heap { d.Test_support.config with Jit.opt } src 3).Vm.stats
      in
      let none = run Jit.O_none and ea = run Jit.O_ea and pea = run Jit.O_pea in
      let a s = s.Stats.s_allocations and m s = s.Stats.s_monitor_ops in
      a pea <= a none && a ea <= a none && a pea <= a ea && m pea <= m none)

(* Multi-tenant serving: K tenants sharing one code cache and one
   compile queue must be observationally indistinguishable from K
   isolated runs — every tenant's per-request results equal those of an
   interpreter-only VM over just that tenant's app and request stream.
   The shared compiles use a drawn configuration, OSR off: the serving
   harness runs its tenant VMs without OSR. With summaries off, the
   server builds no summary table for its shared compiles. *)
let prop_serving_matches_isolated =
  let module Server = Pea_serve.Server in
  let module Sessions = Pea_workloads.Sessions in
  let isolated_results (script : Server.script) =
    let vms =
      List.map
        (fun (_, app_idx) ->
          let _, src = List.nth script.Server.sc_apps app_idx in
          let program = Pea_bytecode.Link.compile_source ~require_main:false src in
          (program, Vm.create ~config:{ Jit.default_config with Jit.compile_threshold = max_int } program))
        script.Server.sc_tenants
    in
    let results = Array.make (List.length vms) [] in
    List.iter
      (fun (rq : Server.request) ->
        let program, vm = List.nth vms rq.Server.rq_tenant in
        let m = Pea_bytecode.Link.find_method program rq.Server.rq_class rq.Server.rq_method in
        let render =
          match Vm.invoke vm m (List.map (fun i -> Value.Vint i) rq.Server.rq_args) with
          | None -> "void"
          | Some v -> Value.string_of_value v
          | exception Interp.Mj_throw v -> "throw:" ^ Value.string_of_value v
          | exception Interp.Trap msg -> "trap:" ^ msg
        in
        results.(rq.Server.rq_tenant) <- render :: results.(rq.Server.rq_tenant))
      (List.concat script.Server.sc_rounds);
    Array.to_list (Array.map List.rev results)
  in
  let gen =
    let* tenants = G.int_range 2 4
    and* rounds = G.int_range 3 6
    and* requests_per_round = G.int_range 6 12
    and* seed = G.int_range 0 99999
    and* d =
      Test_support.gen_config
        ~base:{ Jit.default_config with Jit.compile_threshold = 4; osr = false }
        ()
    in
    G.return
      ( (tenants, rounds, requests_per_round, seed),
        { d with Test_support.config = { d.Test_support.config with Jit.osr = false } } )
  in
  let print ((tenants, rounds, rpr, seed), d) =
    Printf.sprintf "tenants=%d rounds=%d rpr=%d seed=%d %s" tenants rounds rpr seed
      (Test_support.show_draw d)
  in
  QCheck2.Test.make ~name:"shared-cache serving = isolated per-tenant runs"
    ~count:(Test_env.qcheck_count 40) ~print gen
    (fun ((tenants, rounds, requests_per_round, seed), d) ->
      let script = Sessions.mixed_script ~tenants ~rounds ~requests_per_round ~seed () in
      let sv_jit = d.Test_support.config in
      (* a server takes a tracer alone, for its own events *)
      let trace, _, _ = Test_support.instruments d in
      let config = { Server.default_config with Server.sv_jit } in
      let r = Server.run ?trace ~config script in
      List.map (fun tr -> tr.Server.tr_results) r.Server.r_tenants = isolated_results script)

let () =
  Alcotest.run "properties"
    [
      ( "generators",
        [ Alcotest.test_case "every main compiles and deopts" `Quick test_generators_compile ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_differential;
          QCheck_alcotest.to_alcotest prop_alloc_monotone;
          QCheck_alcotest.to_alcotest prop_serving_matches_isolated;
        ] );
    ]
