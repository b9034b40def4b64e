(* Shared helpers for the VM differential suites.

   This module is linked into every test executable (it is not itself a
   test), so it must contain only definitions — no [Alcotest.run]. The
   support-library suite that used to live under this name is
   test_support_lib.ml.

   The centerpiece is [run_all_configs]: one place that enumerates the
   opt × OSR matrix, so differential tests stop re-rolling it by hand
   and automatically pick up new axes. *)

open Pea_rt
open Pea_vm
module Trace = Pea_obs.Trace

let string_of_result = function
  | None -> "void"
  | Some v -> Value.string_of_value v

(* The observable outcome of a VM run: last return value + every print,
   both stringified — the unit of differential comparison. *)
let outcome (r : Vm.result) =
  (string_of_result r.Vm.return_value, List.map Value.string_of_value r.Vm.printed)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let with_tracer ?capacity f =
  let t = Trace.create ?capacity () in
  Trace.install t;
  Fun.protect ~finally:Trace.uninstall (fun () -> f t)

let opt_name = function Jit.O_none -> "none" | Jit.O_ea -> "ea" | Jit.O_pea -> "pea"

(* ------------------------------------------------------------------ *)
(* The configuration matrix                                            *)
(* ------------------------------------------------------------------ *)

type cell = {
  c_opt : Jit.opt_level;
  c_osr : bool;
}

let cell_name c = Printf.sprintf "%s/osr-%s" (opt_name c.c_opt) (if c.c_osr then "on" else "off")

let all_cells () =
  List.concat_map
    (fun c_opt -> List.map (fun c_osr -> { c_opt; c_osr }) [ false; true ])
    [ Jit.O_none; Jit.O_ea; Jit.O_pea ]

let config_of_cell ?(base = Jit.default_config) c = { base with Jit.opt = c.c_opt; osr = c.c_osr }

(* [run_all_configs src] runs [main] [iterations] times under every cell
   of the matrix and returns [(cell, result)] pairs. The thresholds
   default low enough that a few iterations cross every tier
   boundary. *)
let run_all_configs ?(iterations = 8) ?(compile_threshold = 4) ?(osr_threshold = 3)
    ?(base = Jit.default_config) src =
  let program = Pea_bytecode.Link.compile_source src in
  List.map
    (fun cell ->
      let config =
        config_of_cell ~base:{ base with Jit.compile_threshold; osr_threshold } cell
      in
      (cell, Vm.run_main_iterations (Vm.create ~config program) iterations))
    (all_cells ())

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
