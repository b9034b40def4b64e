(* Interpreter-only program runner: executes [main] with every invoke going
   through the bytecode interpreter. This is the "without JIT" baseline and
   the reference semantics for differential testing. *)

open Pea_bytecode

type result = {
  return_value : Value.value option;
  printed : Value.value list; (* in print order *)
  stats : Stats.snapshot;
}

let run_program ?stats (program : Link.program) : result =
  Verify.verify_program program;
  let printed = ref [] in
  let env = Interp.make_env ?stats ~on_print:(fun v -> printed := v :: !printed) program in
  let return_value = Interp.run env (Link.entry_exn program) [] in
  {
    return_value;
    printed = List.rev !printed;
    stats = Stats.snapshot env.Interp.stats;
  }

(* [run_source src] compiles and interprets an MJ source string. *)
let run_source ?stats src = run_program ?stats (Link.compile_source src)

(* what an offline compile speculates on, as a running VM's compile would *)
let profile (program : Link.program) : Profile.t =
  let env = Interp.make_env program in
  (match Link.entry_exn program with
  | entry -> ( try ignore (Interp.run env entry []) with Interp.Trap _ | Interp.Mj_throw _ -> ())
  | exception Link.Link_error _ -> ());
  env.Interp.profile
