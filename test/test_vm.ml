(* Differential testing of the tiered VM: for every corpus program, the
   interpreter-only run is the reference semantics; compiled runs under
   every optimization level must produce identical results and prints.
   Additionally, the paper's central invariant is checked: partial escape
   analysis never increases the dynamic number of allocations or monitor
   operations ("there will always be at most as many dynamic allocations
   as in the original code", §4). *)

open Pea_rt
open Pea_vm

let string_of_result = Test_support.string_of_result

let config opt ~threshold = { Jit.default_config with Jit.opt; compile_threshold = threshold }

let run_vm ?trace ?cpu ?heap src cfg ~iterations =
  let program = Pea_bytecode.Link.compile_source src in
  let vm = Vm.create ?trace ?cpu ?heap ~config:cfg program in
  Vm.run_main_iterations vm iterations

let opt_name = function Jit.O_none -> "none" | Jit.O_ea -> "ea" | Jit.O_pea -> "pea"

(* One corpus program, one optimization level: semantics must match the
   interpreter across repeated iterations (cold -> warm -> compiled). *)
let check_semantics name src opt () =
  let reference = Run.run_source src in
  let iterations = 6 in
  List.iter
    (fun threshold ->
      let r = run_vm src (config opt ~threshold) ~iterations in
      Alcotest.(check string)
        (Printf.sprintf "%s/%s/t%d return" name (opt_name opt) threshold)
        (string_of_result reference.Run.return_value)
        (string_of_result r.Vm.return_value);
      let expected_prints =
        List.concat (List.init iterations (fun _ -> reference.Run.printed))
      in
      Alcotest.(check (list string))
        (Printf.sprintf "%s/%s/t%d prints" name (opt_name opt) threshold)
        (List.map Value.string_of_value expected_prints)
        (List.map Value.string_of_value r.Vm.printed))
    [ 0; 3 ]

(* Allocation / monitor monotonicity: O_pea <= O_ea <= ... is not required
   in general, but O_pea <= O_none and O_ea <= O_none must hold. *)
let check_monotonicity name src () =
  let iterations = 8 in
  let measure opt = run_vm src (config opt ~threshold:0) ~iterations in
  let none = measure Jit.O_none in
  let ea = measure Jit.O_ea in
  let pea = measure Jit.O_pea in
  let allocs (r : Vm.result) = r.Vm.stats.Stats.s_allocations in
  let monitors (r : Vm.result) = r.Vm.stats.Stats.s_monitor_ops in
  if allocs pea > allocs none then
    Alcotest.failf "%s: PEA increased allocations (%d > %d)" name (allocs pea) (allocs none);
  if allocs ea > allocs none then
    Alcotest.failf "%s: EA increased allocations (%d > %d)" name (allocs ea) (allocs none);
  if monitors pea > monitors none then
    Alcotest.failf "%s: PEA increased monitor ops (%d > %d)" name (monitors pea) (monitors none);
  (* PEA subsumes whole-method EA on allocation removal *)
  if allocs pea > allocs ea then
    Alcotest.failf "%s: PEA removed fewer allocations than EA (%d > %d)" name (allocs pea)
      (allocs ea)

let semantics_cases =
  List.concat_map
    (fun (name, src) ->
      List.map
        (fun opt ->
          Alcotest.test_case (Printf.sprintf "%s [%s]" name (opt_name opt)) `Quick
            (check_semantics name src opt))
        [ Jit.O_none; Jit.O_ea; Jit.O_pea ])
    Programs.corpus

let monotonicity_cases =
  List.map
    (fun (name, src) -> Alcotest.test_case name `Quick (check_monotonicity name src))
    Programs.corpus

(* PEA should fully remove the allocations of the classic fully-local
   example once the method is compiled. *)
let test_scalar_replacement_wins () =
  let src =
    "class P { int x; int y; P(int a, int b) { x = a; y = b; } }\n\
     class Main {\n\
    \  static int compute(int i) { P p = new P(i, i * 2); return p.x + p.y; }\n\
    \  static int main() { int acc = 0; int i = 0; while (i < 100) { acc = acc + compute(i); i = i + 1; } return acc; }\n\
     }"
  in
  let none = run_vm src (config Jit.O_none ~threshold:0) ~iterations:2 in
  let pea = run_vm src (config Jit.O_pea ~threshold:0) ~iterations:2 in
  Alcotest.(check string)
    "same result"
    (string_of_result none.Vm.return_value)
    (string_of_result pea.Vm.return_value);
  if pea.Vm.stats.Stats.s_allocations >= none.Vm.stats.Stats.s_allocations then
    Alcotest.failf "expected PEA to remove allocations (%d vs %d)"
      pea.Vm.stats.Stats.s_allocations none.Vm.stats.Stats.s_allocations

(* Lock elision: a synchronized method on a non-escaping receiver loses its
   monitor operations under PEA. *)
let test_lock_elision () =
  let src =
    "class G { int v; synchronized int addTo(int x) { v = v + x; return v; } }\n\
     class Main {\n\
    \  static int once(int i) { G g = new G(); g.addTo(i); return g.addTo(i); }\n\
    \  static int main() { int acc = 0; int i = 0; while (i < 50) { acc = acc + once(i); i = i + 1; } return acc; }\n\
     }"
  in
  let none = run_vm src (config Jit.O_none ~threshold:0) ~iterations:2 in
  let pea = run_vm src (config Jit.O_pea ~threshold:0) ~iterations:2 in
  Alcotest.(check string)
    "same result"
    (string_of_result none.Vm.return_value)
    (string_of_result pea.Vm.return_value);
  if pea.Vm.stats.Stats.s_monitor_ops >= none.Vm.stats.Stats.s_monitor_ops then
    Alcotest.failf "expected PEA to elide monitors (%d vs %d)" pea.Vm.stats.Stats.s_monitor_ops
      none.Vm.stats.Stats.s_monitor_ops

(* [==] and [!=] on two booleans compare them by value, as in Java, in
   the interpreter, in compiled code and in a loop entered through OSR.
   Fixed configs: each one is the tier it names. *)
let bool_equality_src =
  "class Main {\n\
  \  static int count(int n) {\n\
  \    int hits = 0; int i = 0;\n\
  \    while (i < n) {\n\
  \      boolean even = i % 2 == 0;\n\
  \      boolean small = i < 5;\n\
  \      if (even == small) { hits = hits + 1; }\n\
  \      if ((i < 3) != (i % 3 == 0)) { hits = hits + 100; }\n\
  \      i = i + 1;\n\
  \    }\n\
  \    return hits;\n\
  \  }\n\
  \  static int main() {\n\
  \    boolean a = true; boolean b = 1 < 2;\n\
  \    int r = Main.count(10);\n\
  \    if (a == b) { r = r + 10000; }\n\
  \    return r;\n\
  \  }\n\
   }"

let test_bool_equality () =
  let program = Pea_bytecode.Link.compile_source bool_equality_src in
  let never = { Jit.default_config with Jit.compile_threshold = max_int; osr = false } in
  List.iter
    (fun (name, config, iterations, reached) ->
      let r = Vm.run_main_iterations (Vm.create ~config program) iterations in
      (* 6 loop iterations with [even == small], 5 with [(i < 3) != (i % 3 == 0)] *)
      Alcotest.(check string) (name ^ " result") "10506" (string_of_result r.Vm.return_value);
      Alcotest.(check bool) (name ^ " tier reached") true (reached r.Vm.stats))
    [
      ("interpreter", never, 1, fun s -> s.Stats.s_compiled_ops = 0);
      ( "compiled",
        { Jit.default_config with Jit.compile_threshold = 2; osr = false },
        4,
        fun s -> s.Stats.s_compiled_ops > 0 );
      ( "osr",
        { never with Jit.osr = true; osr_threshold = 3 },
        1,
        fun s -> s.Stats.s_osr_entries > 0 );
    ]

(* The VM compiles inline at the threshold: each compile stalls the
   mutator for its modeled latency, charged to [compile_stall_cycles],
   never to [cycles]. *)
let test_stall_per_compile () =
  let src =
    "class Main {\n\
    \  static int f(int x) { return x * 2 + 1; }\n\
    \  static int g(int x) { return x * 3 - 1; }\n\
    \  static int main() {\n\
    \    int acc = 0;\n\
    \    int i = 0;\n\
    \    while (i < 400) { acc = acc + Main.f(i) + Main.g(i); i = i + 1; }\n\
    \    return acc;\n\
    \  }\n\
     }"
  in
  let program = Pea_bytecode.Link.compile_source src in
  let config = { Jit.default_config with Jit.compile_threshold = 5; osr = false } in
  let r = Vm.run (Vm.create ~config program) in
  let s = r.Vm.stats in
  Alcotest.(check string) "same result as the interpreter"
    (string_of_result (Run.run_source src).Run.return_value)
    (string_of_result r.Vm.return_value);
  Alcotest.(check int) "f and g compiled" 2 s.Stats.s_compiled_methods;
  let latency name =
    let m = Pea_bytecode.Link.find_method program "Main" name in
    Cost.compile_latency ~bytecodes:(Array.length m.Pea_bytecode.Classfile.mth_code)
  in
  Alcotest.(check int) "one latency charged per compile" (latency "f" + latency "g")
    s.Stats.s_compile_stall_cycles

(* Interleaved hot methods and deopt storms. fa/fb carry three
   independently pruned cold sites each; a site fires every 45th/60th
   call, cycling through the sites. Each firing is one deopt, site
   blacklist, invalidation and recompile, and with
   [deopt_storm_limit = 2] the second invalidation pins the method. fc
   is plain hot arithmetic; fd is a hot loop that tiers up through OSR. *)
let stress_src =
  "class S { int v; }\n\
   class W {\n\
  \  static int sink;\n\
  \  static int fa(int x, int k) {\n\
  \    S s = new S();\n\
  \    s.v = x * 3 + 1;\n\
  \    if (k == 1) { W.sink = W.sink + s.v; }\n\
  \    if (k == 2) { W.sink = W.sink + s.v * 2; }\n\
  \    if (k == 3) { W.sink = W.sink - s.v; }\n\
  \    return s.v;\n\
  \  }\n\
  \  static int fb(int x, int k) {\n\
  \    S s = new S();\n\
  \    s.v = x * 5 - 2;\n\
  \    if (k == 1) { W.sink = W.sink + s.v * 2; }\n\
  \    if (k == 2) { W.sink = W.sink - s.v * 3; }\n\
  \    if (k == 3) { W.sink = W.sink + s.v + 1; }\n\
  \    return s.v + 1;\n\
  \  }\n\
  \  static int fc(int x) { return x * 7 + W.sink; }\n\
  \  static int fd(int x) {\n\
  \    int acc = 0;\n\
  \    int i = 0;\n\
  \    while (i < 10) { acc = acc + x + i; i = i + 1; }\n\
  \    return acc;\n\
  \  }\n\
   }"

let stress_config =
  {
    Jit.default_config with
    Jit.compile_threshold = 25;
    osr = true;
    osr_threshold = 30;
    deopt_storm_limit = 2;
  }

(* A fixed budget of interleaved calls; every 45th/60th call takes the
   next cold site in the cycle, a forced deopt against whatever code is
   installed at that point. Returns every call's result, the counters,
   the normal-entry compiles of each method (from the trace) and the VM. *)
let drive_stress config =
  let program = Pea_bytecode.Link.compile_source ~require_main:false stress_src in
  let t = Pea_obs.Trace.create () in
  let vm = Vm.create ~trace:t ~config program in
  let find = Pea_bytecode.Link.find_method program "W" in
  let fa = find "fa" and fb = find "fb" and fc = find "fc" and fd = find "fd" in
  let results = ref [] in
  let push v =
    match v with
    | Some (Value.Vint n) -> results := n :: !results
    | _ -> Alcotest.fail "expected an int result"
  in
  let cold i period = if i mod period = 0 then 1 + (i / period mod 3) else 0 in
  for i = 1 to 300 do
    push (Vm.invoke vm fa [ Value.Vint i; Value.Vint (cold i 45) ]);
    push (Vm.invoke vm fb [ Value.Vint i; Value.Vint (cold i 60) ]);
    push (Vm.invoke vm fc [ Value.Vint i ]);
    if i mod 3 = 0 then push (Vm.invoke vm fd [ Value.Vint i ])
  done;
  let compiles =
    List.filter_map
      (fun e ->
        match e.Pea_obs.Trace.e_event with
        | Pea_obs.Event.Tier_promote { meth; tier = "jit"; _ } -> Some meth
        | _ -> None)
      (Pea_obs.Trace.entries t)
  in
  (List.rev !results, Stats.snapshot (Vm.stats vm), compiles, vm, (fa, fb, fc))

let test_stress_deopt_storms () =
  let results, s, compiles, vm, (fa, fb, fc) = drive_stress stress_config in
  Alcotest.(check bool) "deopts fired" true (s.Stats.s_deopts >= 4);
  Alcotest.(check bool) "OSR entered" true (s.Stats.s_osr_entries > 0);
  Alcotest.(check bool) "the storm guard pinned fa" true (Vm.interpreter_pinned vm fa);
  Alcotest.(check bool) "fc compiled" true (Vm.compiled_graph vm fc <> None);
  (* one compile per invalidation epoch: a method is recompiled only
     after a deopt invalidated its code, and a pinned one never again *)
  List.iter
    (fun m ->
      let name = Pea_bytecode.Classfile.qualified_name m in
      let n = List.length (List.filter (String.equal name) compiles) in
      let expected =
        Vm.invalidation_count vm m + if Vm.interpreter_pinned vm m then 0 else 1
      in
      Alcotest.(check int) (name ^ ": one compile per epoch") expected n)
    [ fa; fb; fc ];
  let reference, _, _, _, _ =
    drive_stress { stress_config with Jit.compile_threshold = max_int; osr = false }
  in
  Alcotest.(check (list int)) "every call = the interpreter's" reference results;
  let results2, s2, compiles2, _, _ = drive_stress stress_config in
  Alcotest.(check (list int)) "results identical across runs" results results2;
  Alcotest.(check bool) "counters identical across runs" true (s = s2);
  Alcotest.(check (list string)) "compiles identical across runs" compiles compiles2

(* A drawn configuration with thresholds low enough that six iterations
   of a corpus program cross every tier boundary. *)
let gen_corpus_config =
  Test_support.gen_config
    ~base:{ Jit.default_config with Jit.compile_threshold = 4; osr_threshold = 3 }
    ()

let gen_corpus_case = QCheck2.Gen.pair (QCheck2.Gen.oneofl Programs.corpus) gen_corpus_config

let print_corpus_case ((name, _), d) = Printf.sprintf "%s %s" name (Test_support.show_draw d)

(* A run is a function of the program and the configuration: two runs
   agree on the outcome and on the whole counter snapshot. *)
let prop_runs_agree =
  QCheck2.Test.make ~name:"two runs agree on results and every counter"
    ~count:(Test_env.qcheck_count 25) ~print:print_corpus_case gen_corpus_case
    (fun ((_, src), d) ->
      let run () =
        let trace, cpu, heap = Test_support.instruments d in
        let r = run_vm ?trace ?cpu ?heap src d.Test_support.config ~iterations:6 in
        (Test_support.outcome r, r.Vm.stats)
      in
      run () = run ())

(* Every drawn configuration equals the interpreter on results and
   prints, one property per corpus program, so that each run meets every
   program (one draw over the corpus left about three of its 39 programs
   out of a 100-case run); the corpus-wide case count is split evenly,
   rounded up. *)
let corpus_differential =
  List.map
    (fun ((name, src) as program) ->
      QCheck2.Test.make ~name:(name ^ ": every drawn configuration = interpreter")
        ~count:(1 + (Test_env.qcheck_count 150 / List.length Programs.corpus))
        ~print:(fun d -> print_corpus_case (program, d))
        gen_corpus_config
        (fun d ->
          let reference = Test_support.interp_reference ~iterations:6 src in
          let trace, cpu, heap = Test_support.instruments d in
          Test_support.outcome (run_vm ?trace ?cpu ?heap src d.Test_support.config ~iterations:6)
          = reference))
    Programs.corpus

let () =
  Alcotest.run "vm"
    [
      ("semantics", semantics_cases);
      ("monotonicity", monotonicity_cases);
      ( "wins",
        [
          Alcotest.test_case "scalar replacement removes allocations" `Quick
            test_scalar_replacement_wins;
          Alcotest.test_case "lock elision removes monitor ops" `Quick test_lock_elision;
        ] );
      ("booleans", [ Alcotest.test_case "== and != compare booleans" `Quick test_bool_equality ]);
      ( "compile",
        [
          Alcotest.test_case "stall cycles charged per compile" `Quick test_stall_per_compile;
          Alcotest.test_case "hot methods x deopt storms" `Quick test_stress_deopt_storms;
        ] );
      ( "differential",
        List.map QCheck_alcotest.to_alcotest (prop_runs_agree :: corpus_differential) );
    ]
