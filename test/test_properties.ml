(* Property-based differential testing.

   A generator produces random well-typed, terminating MJ programs over a
   fixed class skeleton (objects with int fields and object links, escapes
   through statics, synchronized regions, bounded loops, prints). For every
   generated program:

   1. semantics are identical across the interpreter and the compiled
      configurations (no EA / whole-method EA / PEA);
   2. dynamic allocation and monitor-operation counts never increase under
      escape analysis (§4 of the paper), and PEA subsumes whole-method EA.

   Because the generator controls all sources of nondeterminism and bounds
   every loop, any discrepancy is a real compiler bug. *)

open Pea_rt
open Pea_vm

(* ------------------------------------------------------------------ *)
(* Program generator                                                   *)
(* ------------------------------------------------------------------ *)

module G = QCheck2.Gen

let ( let* ) x f = G.bind x f

let ( and* ) a b = G.bind a (fun x -> G.map (fun y -> (x, y)) b)

type genv = {
  ivars : string list; (* int locals, always initialized *)
  pvars : string list; (* P locals, always non-null *)
  qvars : string list; (* A-typed locals, rotated across A/B/C: megamorphic receivers *)
  depth : int;
}

let indent n = String.make (2 * n) ' '

let gen_int_atom env =
  G.oneof
    [
      G.map string_of_int (G.int_range (-20) 100);
      G.oneofl env.ivars;
      G.map (fun p -> p ^ ".a") (G.oneofl env.pvars);
      G.map (fun p -> p ^ ".b") (G.oneofl env.pvars);
      G.return "Main.g2";
      (* constant-length array accesses: exercised both virtualized (PEA)
         and as real allocations (interpreter / no-EA) *)
      G.map (fun i -> Printf.sprintf "arr[%d]" i) (G.int_range 0 2);
      G.return "arr.length";
      (* virtual call on a rotated receiver: the site goes megamorphic,
         so compiled code speculates on the profiled type and deopts *)
      (let* q = G.oneofl env.qvars and* k = G.int_range 0 9 in
       G.return (Printf.sprintf "%s.val(%d)" q k));
      G.map (fun q -> q ^ ".w") (G.oneofl env.qvars);
      (* bounded recursion through fixed helpers; recP allocates a fresh
         P per frame, so recursive inlining carries virtual descriptors *)
      (let* n = G.int_range 0 7 in
       G.return (Printf.sprintf "Main.rec(%d, Main.g2)" n));
      (let* n = G.int_range 0 5 in
       G.return (Printf.sprintf "Main.recP(%d)" n));
    ]

let rec gen_int_expr env d =
  if d <= 0 then gen_int_atom env
  else
    G.oneof
      [
        gen_int_atom env;
        (let* a = gen_int_expr env (d - 1) and* b = gen_int_expr env (d - 1) in
         let* op = G.oneofl [ "+"; "-"; "*" ] in
         G.return (Printf.sprintf "(%s %s %s)" a op b));
        (* division by a non-zero constant only *)
        (let* a = gen_int_expr env (d - 1) and* k = G.int_range 1 7 in
         let* op = G.oneofl [ "/"; "%" ] in
         G.return (Printf.sprintf "(%s %s %d)" a op k));
      ]

let gen_bool_expr env d =
  let cmp =
    let* a = gen_int_expr env (d - 1) and* b = gen_int_expr env (d - 1) in
    let* op = G.oneofl [ "<"; "<="; ">"; ">="; "=="; "!=" ] in
    G.return (Printf.sprintf "(%s %s %s)" a op b)
  in
  let refcmp =
    let* p = G.oneofl env.pvars and* q = G.oneofl env.pvars in
    let* op = G.oneofl [ "=="; "!=" ] in
    G.return (Printf.sprintf "(%s %s %s)" p op q)
  in
  (* identity through the object graph: catches duplicated
     materializations that would break reference equality *)
  let field_refcmp =
    let* p = G.oneofl env.pvars and* q = G.oneofl env.pvars in
    let* op = G.oneofl [ "=="; "!=" ] in
    G.return (Printf.sprintf "(%s.next %s %s)" p op q)
  in
  let null_check = G.oneofl [ "(Main.g1 == null)"; "(Main.g1 != null)" ] in
  (* [==]/[!=] on two booleans compares them by value *)
  let boolcmp =
    let* l = cmp and* r = cmp in
    let* op = G.oneofl [ "=="; "!=" ] in
    G.return (Printf.sprintf "(%s %s %s)" l op r)
  in
  G.oneof [ cmp; refcmp; field_refcmp; null_check; boolcmp ]

let rec gen_stmt env lvl : string G.t =
  let simple =
    G.oneof
      [
        (let* v = G.oneofl env.ivars and* e = gen_int_expr env 2 in
         G.return (Printf.sprintf "%s%s = %s;" (indent lvl) v e));
        (let* p = G.oneofl env.pvars
         and* f = G.oneofl [ "a"; "b" ]
         and* e = gen_int_expr env 2 in
         G.return (Printf.sprintf "%s%s.%s = %s;" (indent lvl) p f e));
        (let* p = G.oneofl env.pvars in
         G.return (Printf.sprintf "%s%s = new P();" (indent lvl) p));
        (let* p = G.oneofl env.pvars and* q = G.oneofl env.pvars in
         G.return (Printf.sprintf "%s%s = %s;" (indent lvl) p q));
        (let* p = G.oneofl env.pvars and* q = G.oneofl env.pvars in
         G.return (Printf.sprintf "%s%s.next = %s;" (indent lvl) p q));
        (let* e = gen_int_expr env 1 in
         G.return (Printf.sprintf "%sprint(%s);" (indent lvl) e));
        (let* p = G.oneofl env.pvars in
         (* escape through a static *)
         G.return (Printf.sprintf "%sMain.g1 = %s;" (indent lvl) p));
        (let* e = gen_int_expr env 2 in
         G.return (Printf.sprintf "%sMain.g2 = %s;" (indent lvl) e));
        (let* i = G.int_range 0 2 and* e = gen_int_expr env 2 in
         G.return (Printf.sprintf "%sarr[%d] = %s;" (indent lvl) i e));
        G.return (Printf.sprintf "%sarr = new int[3];" (indent lvl));
        (* escaping the array defeats its virtualization *)
        G.return (Printf.sprintf "%sMain.garr = arr;" (indent lvl));
        (* rotate a receiver's dynamic type: drives the call sites on
           qvars from monomorphic through megamorphic *)
        (let* q = G.oneofl env.qvars and* cls = G.oneofl [ "A"; "B"; "C" ] in
         G.return (Printf.sprintf "%s%s = new %s();" (indent lvl) q cls));
        (let* q = G.oneofl env.qvars and* e = gen_int_expr env 2 in
         G.return (Printf.sprintf "%s%s.w = %s;" (indent lvl) q e));
        (let* v = G.oneofl env.ivars
         and* q = G.oneofl env.qvars
         and* e = gen_int_expr env 1 in
         G.return (Printf.sprintf "%s%s = %s.val(%s);" (indent lvl) v q e));
      ]
  in
  if env.depth <= 0 then simple
  else
    let env' = { env with depth = env.depth - 1 } in
    G.frequency
      [
        (5, simple);
        ( 2,
          let* cond = gen_bool_expr env 2
          and* thn = gen_block env' (lvl + 1)
          and* els = gen_block env' (lvl + 1) in
          G.return
            (Printf.sprintf "%sif %s {\n%s%s} else {\n%s%s}" (indent lvl) cond thn (indent lvl)
               els (indent lvl)) );
        ( 1,
          (* bounded loop with a dedicated counter *)
          let* n = G.int_range 1 6 and* body = gen_block env' (lvl + 1) in
          let counter = Printf.sprintf "k%d" lvl in
          G.return
            (Printf.sprintf "%s{ int %s = 0; while (%s < %d) {\n%s%s%s = %s + 1; } }" (indent lvl)
               counter counter n body (indent (lvl + 1)) counter counter) );
        ( 1,
          (* an int loop entered from boxed values (a field load, a static,
             a call result) whose body calls int helpers on loop values
             and feeds their results round the loop: the typed closure
             tier unboxes on the entry edge, boxes the call arguments and
             unboxes the results; [Main.mix] runs the same shape entered
             from its parameters *)
          let s = Printf.sprintf "s%d" lvl and t = Printf.sprintf "t%d" lvl in
          let counter = Printf.sprintf "n%d" lvl in
          let* entry =
            G.oneof
              [
                G.map (fun p -> p ^ ".a") (G.oneofl env.pvars);
                G.map (fun p -> p ^ ".b") (G.oneofl env.pvars);
                G.return "Main.g2";
                G.map (fun q -> q ^ ".w") (G.oneofl env.qvars);
                (let* q = G.oneofl env.qvars and* k = G.int_range 0 9 in
                 G.return (Printf.sprintf "%s.val(%d)" q k));
              ]
          and* t0 = gen_int_atom env
          and* n = G.int_range 1 5
          and* v = G.oneofl env.ivars
          and* body = gen_block { env' with ivars = s :: t :: env.ivars } (lvl + 1) in
          G.return
            (Printf.sprintf
               "%s{ int %s = %s; int %s = %s; int %s = 0;\n\
                %swhile (%s < %d) {\n\
                %s%s%s = Main.mix(%s, %s) + %s;\n\
                %s%s = (%s * 7 + Main.rec(%s, %s %% 5)) %% 1009;\n\
                %s%s = %s + 1; }\n\
                %s%s = %s + %s; }"
               (indent lvl) s entry t t0 counter (indent lvl) counter n body
               (indent (lvl + 1)) s s counter t (indent (lvl + 1)) t t counter s
               (indent (lvl + 1)) counter counter (indent lvl) v s t) );
        ( 1,
          let* p = G.oneofl env.pvars and* body = gen_block env' (lvl + 1) in
          G.return
            (Printf.sprintf "%ssynchronized (%s) {\n%s%s}" (indent lvl) p body (indent lvl)) );
        ( 1,
          (* exceptions force the VM's interpreter-only bailout for main;
             callees still compile, so the unwind paths get exercised *)
          let* body = gen_block env' (lvl + 1)
          and* handler = gen_block env' (lvl + 1)
          and* p = G.oneofl env.pvars
          and* do_throw = G.bool in
          let thrown = if do_throw then Printf.sprintf "%sthrow %s;\n" (indent (lvl + 1)) p else "" in
          G.return
            (Printf.sprintf "%stry {\n%s%s%s} catch (P caught%d) {\n%s%scaught%d.a += 1;\n%s}"
               (indent lvl) body thrown (indent lvl) lvl handler (indent (lvl + 1)) lvl
               (indent lvl)) );
      ]

and gen_block env lvl : string G.t =
  let* n = G.int_range 1 4 in
  let* stmts = G.list_repeat n (gen_stmt env lvl) in
  G.return (String.concat "\n" stmts ^ "\n")

(* Fixed skeleton around the generated body: the P scratch class, a small
   A/B/C hierarchy whose [val] overrides disagree (so a wrongly
   devirtualized call changes the checksum), two bounded recursive
   helpers — [recP] allocates per frame, putting virtual descriptors into
   the frame states of recursively inlined code — and [mix], an int loop
   entered from its parameters. *)
let skeleton_classes =
  "class P { int a; int b; P next; }\n\
   class A { int w; int val(int x) { return x + w; } }\n\
   class B extends A { int val(int x) { return x * 2 - w; } }\n\
   class C extends A { int val(int x) { return w - 3 * x; } }\n"

let skeleton_helpers =
  "  static int rec(int n, int acc) {\n\
  \    if (n <= 0) return acc;\n\
  \    return Main.rec(n - 1, acc + n);\n\
  \  }\n\
  \  static int recP(int n) {\n\
  \    if (n <= 0) return 0;\n\
  \    P t = new P();\n\
  \    t.a = n;\n\
  \    return t.a + Main.recP(n - 1);\n\
  \  }\n\
  \  static int mix(int a, int b) {\n\
  \    int s = a; int t = b; int k = 0;\n\
  \    while (k < 3) { s = (s * 31 + t) % 65537; t = t - s % 5; k = k + 1; }\n\
  \    return s + t;\n\
  \  }\n"

let gen_program : string G.t =
  let env =
    { ivars = [ "i0"; "i1"; "i2" ]; pvars = [ "p0"; "p1" ]; qvars = [ "q0"; "q1" ]; depth = 3 }
  in
  let* body = gen_block env 2 in
  let checksum =
    "i0 + i1 * 3 + i2 * 5 + p0.a + p0.b * 7 + p1.a * 11 + p1.b + Main.g2 + g1v + garrv\n\
    \      + arr[0] + arr[1] * 17 + arr[2] * 19 + q0.val(5) + q1.val(7) * 31 + q0.w"
    |> String.split_on_char '\n'
    |> List.map String.trim |> String.concat " "
  in
  G.return
    (Printf.sprintf
       "%s\
        class Main {\n\
       \  static P g1;\n\
       \  static int g2;\n\
       \  static int[] garr;\n\
        %s\
       \  static int main() {\n\
       \    Main.g1 = null; Main.g2 = 0; Main.garr = null;\n\
       \    int i0 = 1; int i1 = 2; int i2 = 3;\n\
       \    P p0 = new P(); P p1 = new P();\n\
       \    A q0 = new B(); A q1 = new C();\n\
       \    int[] arr = new int[3];\n\
        %s\n\
       \    int g1v = 0;\n\
       \    if (Main.g1 != null) g1v = Main.g1.a + Main.g1.b;\n\
       \    int garrv = 0;\n\
       \    if (Main.garr != null) garrv = Main.garr[0] + Main.garr[1] * 13;\n\
       \    return %s;\n\
       \  }\n\
        }" skeleton_classes skeleton_helpers body checksum)

(* Like [gen_program], but main ends with a deopt trap: a freshly
   allocated object escapes only when a persistent iteration counter
   crosses 23. Driven for 25 iterations with compile_threshold 22, the
   branch is never taken while interpreted (22 samples, 0 taken — enough
   for the pruner), gets pruned at compilation, and then fires on
   iteration 24: a real deoptimization with the object virtual in the
   frame state under PEA. Iteration 25 runs the recompiled code. The
   checksum reads the object's fields after the branch, so rematerialized
   values flow into the result. *)
let gen_program_deopt : string G.t =
  let env =
    { ivars = [ "i0"; "i1"; "i2" ]; pvars = [ "p0"; "p1" ]; qvars = [ "q0"; "q1" ]; depth = 3 }
  in
  let* body = gen_block env 2 in
  G.return
    (Printf.sprintf
       "%s\
        class Main {\n\
       \  static P g1;\n\
       \  static int g2;\n\
       \  static int[] garr;\n\
       \  static int iterc;\n\
        %s\
       \  static int main() {\n\
       \    Main.iterc = Main.iterc + 1;\n\
       \    Main.g1 = null; Main.g2 = 0; Main.garr = null;\n\
       \    int i0 = 1; int i1 = 2; int i2 = 3;\n\
       \    P p0 = new P(); P p1 = new P();\n\
       \    A q0 = new B(); A q1 = new C();\n\
       \    int[] arr = new int[3];\n\
        %s\n\
       \    P d0 = new P();\n\
       \    d0.a = i0 + i1 + Main.iterc;\n\
       \    d0.b = Main.g2 + 7;\n\
       \    if (Main.iterc > 23) { Main.g1 = d0; print(d0.a); }\n\
       \    int g1v = 0;\n\
       \    if (Main.g1 != null) g1v = Main.g1.a + Main.g1.b;\n\
       \    int garrv = 0;\n\
       \    if (Main.garr != null) garrv = Main.garr[0] + Main.garr[1] * 13;\n\
       \    return i0 + i1 * 3 + i2 * 5 + p0.a + p0.b * 7 + p1.a * 11 + p1.b + Main.g2 + g1v + \
        garrv + arr[0] + arr[1] * 17 + arr[2] * 19 + d0.a * 23 + d0.b * 29 + q0.val(5) + \
        q1.val(7) * 31;\n\
       \  }\n\
        }" skeleton_classes skeleton_helpers body)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let string_of_result = function
  | None -> "void"
  | Some v -> Value.string_of_value v

let run_vm src opt =
  let program = Pea_bytecode.Link.compile_source src in
  let config = Test_env.apply { Jit.default_config with Jit.opt; compile_threshold = 0 } in
  let vm = Vm.create ~config program in
  Vm.run_main_iterations vm 3

let outcome_interp src =
  let r = Run.run_source src in
  (string_of_result r.Run.return_value, List.map Value.string_of_value r.Run.printed)

let outcome_vm (r : Vm.result) =
  (string_of_result r.Vm.return_value, List.map Value.string_of_value r.Vm.printed)

let prop_differential =
  QCheck2.Test.make ~name:"compiled semantics = interpreter semantics"
    ~count:(Test_env.qcheck_count 200) ~print:(fun s -> s) gen_program
    (fun src ->
      let ret_i, prints_i = outcome_interp src in
      let expected_prints = prints_i @ prints_i @ prints_i in
      List.for_all
        (fun opt ->
          let ret_c, prints_c = outcome_vm (run_vm src opt) in
          ret_c = ret_i && prints_c = expected_prints)
        [ Jit.O_none; Jit.O_ea; Jit.O_pea ])

(* Deopt differential: compiled code agrees with the interpreter on the
   last return value and the full print sequence at every opt level —
   through JIT compilation, speculative pruning and a forced deopt with a
   virtual object in the frame state (see [gen_program_deopt]).
   Deliberately not routed through [Test_env.apply]: the property walks
   the opt levels itself. *)
let prop_deopt_differential =
  let iters = 25 in
  let run src opt ~threshold =
    let program = Pea_bytecode.Link.compile_source src in
    let config = { Jit.default_config with Jit.opt; compile_threshold = threshold } in
    outcome_vm (Vm.run_main_iterations (Vm.create ~config program) iters)
  in
  QCheck2.Test.make ~name:"compiled code = interpreter, with forced deopts"
    ~count:(Test_env.qcheck_count 60) ~print:(fun s -> s) gen_program_deopt
    (fun src ->
      (* reference: interpreter only (threshold never reached) *)
      let reference = run src Jit.O_pea ~threshold:max_int in
      List.for_all
        (fun opt -> run src opt ~threshold:22 = reference)
        [ Jit.O_none; Jit.O_ea; Jit.O_pea ])

let prop_alloc_monotone =
  QCheck2.Test.make ~name:"PEA/EA never increase allocations or monitors"
    ~count:(Test_env.qcheck_count 100) ~print:(fun s -> s) gen_program
    (fun src ->
      let none = run_vm src Jit.O_none in
      let ea = run_vm src Jit.O_ea in
      let pea = run_vm src Jit.O_pea in
      let a (r : Vm.result) = r.Vm.stats.Stats.s_allocations in
      let m (r : Vm.result) = r.Vm.stats.Stats.s_monitor_ops in
      a pea <= a none && a ea <= a none && a pea <= a ea && m pea <= m none)

let prop_pretty_roundtrip =
  QCheck2.Test.make ~name:"pretty-print roundtrip on random programs" ~count:120
    ~print:(fun s -> s) gen_program
    (fun src ->
      let ast1 = Pea_mjava.Parser.parse_program src in
      let printed1 = Pea_mjava.Pretty.program ast1 in
      let ast2 = Pea_mjava.Parser.parse_program printed1 in
      let printed2 = Pea_mjava.Pretty.program ast2 in
      (* fixpoint, and the printed program behaves like the original *)
      printed1 = printed2
      &&
      let r1 = Run.run_source src in
      let r2 = Run.run_source printed1 in
      r1.Run.return_value = r2.Run.return_value
      && List.map Value.string_of_value r1.Run.printed
         = List.map Value.string_of_value r2.Run.printed)

let prop_ir_checker_after_pea =
  QCheck2.Test.make ~name:"PEA output passes the IR checker on random programs"
    ~count:(Test_env.qcheck_count 100) ~print:(fun s -> s) gen_program
    (fun src ->
      let program = Pea_bytecode.Link.compile_source src in
      let m = Pea_bytecode.Link.entry_exn program in
      if not (Pea_vm.Jit.compilable m) then true (* interpreter-only, as in the VM *)
      else begin
      let g = Pea_ir.Builder.build m in
      ignore (Pea_opt.Inline.run (Pea_opt.Inline.default_config program) g);
      ignore (Pea_opt.Canonicalize.run g);
      let g', _ = Pea_core.Pea.run g in
      Pea_ir.Check.check_exn g';
      ignore (Pea_opt.Canonicalize.run g');
      Pea_ir.Check.check_exn g';
      (* speculation-safety verifier: zero false positives offline *)
      Pea_analysis.Spec_check.check ~phase:"pea" g' = []
      end)

(* Correctness tooling under fuzz: the every-phase verifier and the deopt
   oracle are forced on (overriding any matrix axis — the point is that
   they stay silent), while the opt / summaries / OSR axes still come
   from the environment, so `bench/run_matrix.sh` sweeps this property across
   the whole cell matrix. Any SPEC violation aborts compilation with
   [Failure]; any replay divergence raises [Oracle.Divergence]; either
   fails the property. The forced deopt in [gen_program_deopt] guarantees
   the oracle actually replays, not just snapshots. *)
let prop_verified_execution =
  let iters = 25 in
  let run src opt ~threshold =
    let program = Pea_bytecode.Link.compile_source src in
    let config =
      {
        (Test_env.apply { Jit.default_config with Jit.opt; compile_threshold = threshold }) with
        Jit.check_level = Pea_analysis.Spec_check.Every_phase;
        oracle = true;
      }
    in
    let vm = Vm.create ~config program in
    outcome_vm (Vm.run_main_iterations vm iters)
  in
  QCheck2.Test.make ~name:"every-phase verifier + deopt oracle stay silent, semantics preserved"
    ~count:(Test_env.qcheck_count 60) ~print:(fun s -> s) gen_program_deopt
    (fun src ->
      (* reference: interpreter only (threshold never reached) *)
      let reference = run src Jit.O_pea ~threshold:max_int in
      List.for_all
        (fun opt -> run src opt ~threshold:22 = reference)
        [ Jit.O_none; Jit.O_ea; Jit.O_pea ])

(* Multi-tenant serving: K tenants sharing one code cache and one
   compile queue must be observationally indistinguishable from K
   isolated runs — every tenant's per-request results equal those of an
   interpreter-only VM over just that tenant's app and request stream.
   The opt level is drawn per case (the serving harness itself
   forces Sync + no OSR on tenant VMs, so those axes don't apply);
   env-driven axes (summaries, stackalloc, inlining, ...) still reach
   the shared compiles through [Test_env.apply]: with summaries off,
   the server builds no summary table for its shared compiles. *)
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
    and* opt = G.oneofl [ Jit.O_none; Jit.O_ea; Jit.O_pea ] in
    G.return (tenants, rounds, requests_per_round, seed, opt)
  in
  let print (tenants, rounds, rpr, seed, opt) =
    Printf.sprintf "tenants=%d rounds=%d rpr=%d seed=%d opt=%s" tenants rounds rpr seed
      (match opt with Jit.O_none -> "none" | Jit.O_ea -> "ea" | Jit.O_pea -> "pea")
  in
  QCheck2.Test.make ~name:"shared-cache serving = isolated per-tenant runs"
    ~count:(Test_env.qcheck_count 40) ~print gen
    (fun (tenants, rounds, requests_per_round, seed, opt) ->
      let script = Sessions.mixed_script ~tenants ~rounds ~requests_per_round ~seed () in
      let sv_jit = { (Test_env.apply Jit.default_config) with Jit.opt; compile_threshold = 4 }
      in
      let r = Server.run ~config:{ Server.default_config with Server.sv_jit } script in
      List.map (fun tr -> tr.Server.tr_results) r.Server.r_tenants = isolated_results script)

(* Escape summaries are a least fixpoint over a finite lattice, so they
   must not depend on which method is asked about first, however lazily
   the table computes them. Every method's own summary and its Static and
   Virtual call-site summaries must print the same when the methods are
   queried in ascending id order, in descending order and in a seeded
   shuffle, each on a fresh table. The generated programs have virtual
   calls on A/B/C and (self-)recursion. *)
let prop_summaries_order_independent =
  let module Summary = Pea_analysis.Summary in
  let summaries_in program order =
    let t = Summary.analyze program in
    let out = Array.make (Array.length order) [] in
    Array.iter
      (fun (m : Pea_bytecode.Classfile.rt_method) ->
        let pp s = Format.asprintf "%a" Summary.pp_summary s in
        out.(m.Pea_bytecode.Classfile.mth_id) <-
          [
            pp (Summary.of_method t m);
            pp (Summary.call_summary t Pea_ir.Node.Static m);
            pp (Summary.call_summary t Pea_ir.Node.Virtual m);
          ])
      order;
    out
  in
  QCheck2.Test.make ~name:"escape summaries do not depend on query order"
    ~count:(Test_env.qcheck_count 100)
    ~print:(fun (src, seed) -> Printf.sprintf "seed=%d\n%s" seed src)
    (G.pair gen_program (G.int_bound 1_000_000))
    (fun (src, seed) ->
      let program = Pea_bytecode.Link.compile_source src in
      let ascending = program.Pea_bytecode.Link.methods in
      let n = Array.length ascending in
      let descending = Array.init n (fun i -> ascending.(n - 1 - i)) in
      let shuffled = Array.copy ascending in
      let rng = Random.State.make [| seed |] in
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let x = shuffled.(i) in
        shuffled.(i) <- shuffled.(j);
        shuffled.(j) <- x
      done;
      let reference = summaries_in program ascending in
      summaries_in program descending = reference && summaries_in program shuffled = reference)

let () =
  Alcotest.run "properties"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_differential;
          QCheck_alcotest.to_alcotest prop_deopt_differential;
          QCheck_alcotest.to_alcotest prop_alloc_monotone;
          QCheck_alcotest.to_alcotest prop_ir_checker_after_pea;
          QCheck_alcotest.to_alcotest prop_verified_execution;
          QCheck_alcotest.to_alcotest prop_pretty_roundtrip;
          QCheck_alcotest.to_alcotest prop_serving_matches_isolated;
          QCheck_alcotest.to_alcotest prop_summaries_order_independent;
        ] );
    ]
