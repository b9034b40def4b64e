(* Shared helpers for the VM differential suites.

   This module is linked into every test executable (it is not itself a
   test), so it must contain only definitions — no [Alcotest.run]. The
   support-library suite that used to live under this name is
   test_support_lib.ml.

   The centerpiece is [gen_config]: the configuration is a generated
   input. Every differential, monotonicity and parity property draws a
   full JIT configuration and an instrumentation state per case, hands
   the case's VMs (or server) the drawn instruments ([instruments]) and
   prints every drawn field when it fails ([show_draw]), so one run of
   the suite crosses every configuration axis. *)

open Pea_rt
open Pea_vm
module Trace = Pea_obs.Trace

let string_of_result = function
  | None -> "void"
  | Some v -> Value.string_of_value v

let vint n = Value.Vint n

let vbool b = Value.Vbool b

(* The int a call returned; anything else fails the case. *)
let as_int = function
  | Some (Value.Vint n) -> n
  | other -> Alcotest.failf "expected an int result, got %s" (string_of_result other)

(* The observable outcome of a VM run: last return value + every print,
   both stringified — the unit of differential comparison. *)
let outcome (r : Vm.result) =
  (string_of_result r.Vm.return_value, List.map Value.string_of_value r.Vm.printed)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let opt_name = function Jit.O_none -> "none" | Jit.O_ea -> "ea" | Jit.O_pea -> "pea"

(* ------------------------------------------------------------------ *)
(* The drawn configuration                                             *)
(* ------------------------------------------------------------------ *)

(* One case's configuration: the JIT configuration and the instruments
   the case's VMs are handed. *)
type draw = {
  config : Jit.config;
  tracer : bool; (* the VMs are handed a tracer *)
  profilers : bool; (* the VMs are handed the sampling and heap profilers *)
}

(* [gen_config ~base] draws every axis the JIT offers (opt level,
   summaries, OSR, speculative inlining, stack allocation, when the
   speculation-safety verifier runs, the deopt oracle) over [base],
   whose thresholds the property chooses, plus the instrumentation
   state. *)
let gen_config ?(base = Jit.default_config) () : draw QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* opt = oneofl [ Jit.O_none; Jit.O_ea; Jit.O_pea ]
  and* summaries = bool
  and* osr = bool
  and* inlining = bool
  and* stackalloc = bool
  and* check_level =
    oneofl Pea_analysis.Spec_check.[ No_check; Phase_end; Every_phase ]
  and* oracle = bool
  and* tracer = bool
  and* profilers = bool in
  return
    {
      config = { base with Jit.opt; summaries; osr; inlining; stackalloc; check_level; oracle };
      tracer;
      profilers;
    }

(* Every drawn field, and the thresholds the property set. A property
   that walks an axis itself names it in [walks]; that axis's drawn
   value is not printed. *)
let show_draw ?(walks = []) d =
  let c = d.config in
  let onoff b = if b then "on" else "off" in
  let fields =
    [
      ("opt", opt_name c.Jit.opt);
      ("summaries", onoff c.Jit.summaries);
      ("osr", onoff c.Jit.osr);
      ("inlining", onoff c.Jit.inlining);
      ("stackalloc", onoff c.Jit.stackalloc);
      ("check-level", Pea_analysis.Spec_check.level_string c.Jit.check_level);
      ("oracle", onoff c.Jit.oracle);
      ("threshold", string_of_int c.Jit.compile_threshold);
      ("osr-threshold", string_of_int c.Jit.osr_threshold);
      ("tracer", onoff d.tracer);
      ("profilers", onoff d.profilers);
    ]
  in
  String.concat " "
    (List.map
       (fun (k, v) -> Printf.sprintf "%s=%s" k (if List.mem k walks then "walked" else v))
       fields)

(* [instruments d] is [d]'s tracer, sampling profiler and heap profiler,
   fresh, each [None] unless drawn: a case hands them to every VM (or
   server, or compile) it runs, as [?trace ?cpu ?heap]. *)
let instruments d =
  ( (if d.tracer then Some (Trace.create ()) else None),
    (if d.profilers then Some (Pea_obs.Profile_cpu.create ()) else None),
    if d.profilers then Some (Pea_obs.Profile_heap.create ()) else None )

(* The interpreter-only reference for the same observation:
   [run_main_iterations]' outcome concatenates prints across iterations,
   so replicate the single-run prints. *)
let interp_reference ~iterations src =
  let r = Run.run_source src in
  ( string_of_result r.Run.return_value,
    List.concat (List.init iterations (fun _ -> List.map Value.string_of_value r.Run.printed))
  )

(* The wall-clock-independent model counters: a run's deterministic
   state, compared across runs that must not differ. *)
let deterministic_counters (s : Stats.snapshot) =
  [
    ("cycles", s.Stats.s_cycles);
    ("interpreted_instrs", s.Stats.s_interpreted_instrs);
    ("compiled_ops", s.Stats.s_compiled_ops);
    ("allocations", s.Stats.s_allocations);
    ("allocated_bytes", s.Stats.s_allocated_bytes);
    ("monitor_ops", s.Stats.s_monitor_ops);
    ("deopts", s.Stats.s_deopts);
    ("osr_entries", s.Stats.s_osr_entries);
    ("osr_compiles", s.Stats.s_osr_compiles);
    ("invocations", s.Stats.s_invocations);
  ]

(* ------------------------------------------------------------------ *)
(* Offline compilation                                                 *)
(* ------------------------------------------------------------------ *)

(* [install_offline ?mutate ~config vm program m ~warm:(args, n)] makes
   [vm] run code for [m] that the test compiled itself. [m] first runs
   [n] times in the interpreter (the VM's own compiler is kept out
   through an empty [Vm.code_source]); then [Jit.compile] builds [m] from
   the VM's profile, [mutate] edits the graph, and the code source hands
   the result to the VM, which installs it at the next invocation of [m]
   and translates it then. Runtime-mutation tests corrupt deopt metadata
   this way before the closure tier reads it. Returns the graph. *)
let install_offline ?(mutate = ignore) ~config vm program (m : Pea_bytecode.Classfile.rt_method)
    ~warm:(args, n) =
  Vm.set_code_source vm { Vm.cs_code = (fun _ -> None); cs_deopt = (fun _ ~site:_ -> ()) };
  Vm.warm_up vm m args n;
  let code = Jit.compile config program (Vm.profile vm) m in
  mutate code.Jit.graph;
  Vm.set_code_source vm
    {
      Vm.cs_code = (fun m' -> if m' == m then Some code else None);
      cs_deopt = (fun _ ~site:_ -> ());
    };
  code.Jit.graph
