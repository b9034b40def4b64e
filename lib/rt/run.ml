(* Interpreter-only program runner: executes [main] with every invoke going
   through the bytecode interpreter. This is the "without JIT" baseline and
   the reference semantics for differential testing. *)

open Pea_bytecode

type result = {
  return_value : Value.value option;
  printed : Value.value list; (* in print order *)
  stats : Stats.snapshot;
}

let make_env ?(stats = Stats.create ()) (program : Link.program) ~printed =
  let heap = Heap.create stats in
  let profile = Profile.create program in
  let globals =
    Array.make (max program.n_statics 1) Value.Vnull
  in
  (* initialize static defaults by declared type *)
  List.iter
    (fun (sf : Classfile.rt_static_field) ->
      globals.(sf.sf_index) <- Value.default_value sf.sf_ty)
    program.statics;
  let rec env =
    lazy
      {
        Interp.heap;
        stats;
        profile;
        globals;
        on_invoke = (fun m args -> Interp.run (Lazy.force env) m args);
        on_print = (fun v -> printed := v :: !printed);
        (* interpreter-only reference: never leaves the interpreter *)
        on_back_edge = (fun _ ~header:_ ~locals:_ -> Interp.No_osr);
        hooks = None;
      }
  in
  Lazy.force env

let run_program ?stats (program : Link.program) : result =
  Verify.verify_program program;
  let printed = ref [] in
  let env = make_env ?stats program ~printed in
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
  let env = make_env program ~printed:(ref []) in
  (match Link.entry_exn program with
  | entry -> ( try ignore (Interp.run env entry []) with Interp.Trap _ | Interp.Mj_throw _ -> ())
  | exception Link.Link_error _ -> ());
  env.Interp.profile
