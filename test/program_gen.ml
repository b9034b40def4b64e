(* Random MJ programs for the property suites, and the runs of a
   generated case.

   A generator produces random well-typed, terminating MJ programs over a
   fixed class skeleton (objects with int fields and object links, escapes
   through statics, synchronized regions, bounded loops, prints, virtual
   calls on a rotated receiver, and exceptions in one helper the JIT
   leaves to the interpreter). The generator controls all sources of
   nondeterminism and bounds every loop, so any discrepancy between two
   runs of one program is a real bug.

   This module is linked into the test executables that use it; it
   holds only definitions. *)

open Pea_vm

module G = QCheck2.Gen

let ( let* ) x f = G.bind x f

let ( and* ) a b = G.bind a (fun x -> G.map (fun y -> (x, y)) b)

type genv = {
  ivars : string list; (* int locals, always initialized *)
  pvars : string list; (* P locals, always non-null *)
  qvars : string list; (* A-typed locals, rotated across A/B/C: megamorphic receivers *)
  depth : int;
  risky : bool;
      (* inside [Main.risky]: try / catch / throw shapes, which keep a
         method interpreted; in [main], calls to [Main.risky] instead *)
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
          (* bounded loop with a dedicated counter, tested as [k < n] or
             [k <= n - 1]: the last test of the second form compares
             equal values *)
          let* n = G.int_range 1 6 and* inclusive = G.bool and* body = gen_block env' (lvl + 1) in
          let counter = Printf.sprintf "k%d" lvl in
          let test = if inclusive then Printf.sprintf "<= %d" (n - 1) else Printf.sprintf "< %d" n in
          G.return
            (Printf.sprintf "%s{ int %s = 0; while (%s %s) {\n%s%s%s = %s + 1; } }" (indent lvl)
               counter counter test body (indent (lvl + 1)) counter counter) );
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
          (* a loop whose only two carried ints swap: the back edge's phi
             move reads each phi's register into the other, so the
             closure tier must do it as a parallel move *)
          let a = Printf.sprintf "a%d" lvl and b = Printf.sprintf "b%d" lvl in
          let* x = gen_int_expr env 1 and* y = gen_int_expr env 1 and* v = G.oneofl env.ivars in
          G.return
            (Printf.sprintf
               "%s{ int %s = %s; int %s = %s;\n\
                %swhile (%s < %s) { int c%d = %s; %s = %s; %s = c%d; }\n\
                %s%s = %s * 3 + %s; }"
               (indent lvl) a x b y (indent lvl) a b lvl a a b b lvl (indent lvl) v a b) );
        ( 1,
          let* p = G.oneofl env.pvars and* body = gen_block env' (lvl + 1) in
          G.return
            (Printf.sprintf "%ssynchronized (%s) {\n%s%s}" (indent lvl) p body (indent lvl)) );
        (1, if env.risky then gen_try env' lvl else gen_risky_call env lvl);
      ]

(* A try / catch whose body may throw one of the P locals. Only
   [Main.risky] holds these: the JIT compiles no method that throws or
   catches, so in [main] they would keep every generated statement
   interpreted. Its callees still compile, so the unwind paths run
   through compiled frames. *)
and gen_try env lvl =
  let* body = gen_block env (lvl + 1)
  and* handler = gen_block env (lvl + 1)
  and* p = G.oneofl env.pvars
  and* do_throw = G.bool in
  let thrown = if do_throw then Printf.sprintf "%sthrow %s;\n" (indent (lvl + 1)) p else "" in
  G.return
    (Printf.sprintf "%stry {\n%s%s%s} catch (P caught%d) {\n%s%scaught%d.a += 1;\n%s}"
       (indent lvl) body thrown (indent lvl) lvl handler (indent (lvl + 1)) lvl (indent lvl))

(* [main] reaches the exception shapes through a call: the callee stays
   interpreted, so the call is a real one and its P argument escapes. *)
and gen_risky_call env lvl =
  let* v = G.oneofl env.ivars and* e = gen_int_expr env 1 and* p = G.oneofl env.pvars in
  G.return (Printf.sprintf "%s%s = Main.risky(%s, %s);" (indent lvl) v e p)

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

(* The locals [main] and [Main.risky] both declare, and the statements
   over them. *)
let main_env =
  {
    ivars = [ "i0"; "i1"; "i2" ];
    pvars = [ "p0"; "p1" ];
    qvars = [ "q0"; "q1" ];
    depth = 3;
    risky = false;
  }

(* [Main.risky], the one generated method with exception shapes: its own
   copy of [main]'s locals, one seeded from each argument, a generated
   body with at least one try / catch, and a checksum of its locals. *)
let gen_risky =
  let env = { main_env with depth = 1; risky = true } in
  let* body = gen_block env 2 and* last = gen_try env 2 in
  G.return
    (Printf.sprintf
       "  static int risky(int x, P p) {\n\
       \    int i0 = x; int i1 = 2; int i2 = 3;\n\
       \    P p0 = p; P p1 = new P();\n\
       \    A q0 = new B(); A q1 = new C();\n\
       \    int[] arr = new int[3];\n\
        %s%s\n\
       \    return i0 + i1 * 3 + i2 * 5 + p0.a + p1.b * 7 + arr[0] + arr[2] * 11 + q1.w;\n\
       \  }\n"
       body last)

let gen_program : string G.t =
  let* body = gen_block main_env 2 and* risky = gen_risky in
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
        %s%s\
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
        }" skeleton_classes skeleton_helpers risky body checksum)

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
  let* body = gen_block main_env 2 and* risky = gen_risky in
  G.return
    (Printf.sprintf
       "%s\
        class Main {\n\
       \  static P g1;\n\
       \  static int g2;\n\
       \  static int[] garr;\n\
       \  static int iterc;\n\
        %s%s\
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
        }" skeleton_classes skeleton_helpers risky body)

(* ------------------------------------------------------------------ *)
(* Generated cases                                                     *)
(* ------------------------------------------------------------------ *)

let opt_levels = [ Jit.O_none; Jit.O_ea; Jit.O_pea ]

(* A generated program and a configuration drawn over [base]; [fix]
   pins the axes a property is about, so the printed draw is the one
   that ran. *)
let with_draw ?(fix = Fun.id) ~base gen =
  G.map
    (fun (src, (d : Test_support.draw)) ->
      (src, { d with Test_support.config = fix d.Test_support.config }))
    (G.pair gen (Test_support.gen_config ~base ()))

(* Every drawn field, then the program. *)
let print_case ?walks (src, d) = Test_support.show_draw ?walks d ^ "\n" ^ src

let run_vm ?trace ?cpu ?heap config src iterations =
  Vm.run_main_iterations
    (Vm.create ?trace ?cpu ?heap ~config (Pea_bytecode.Link.compile_source src))
    iterations

(* A deopt case ([gen_program_deopt]) run for 25 iterations at each opt
   level under its draw returns and prints what it does in a VM that
   never compiles (the programs keep a static iteration counter across
   runs of [main], so the reference is a VM, not fresh interpreter
   runs). *)
let deopt_case_agrees (src, (d : Test_support.draw)) =
  let reference =
    Test_support.outcome
      (run_vm { Jit.default_config with Jit.compile_threshold = max_int; osr = false } src 25)
  in
  let trace, cpu, heap = Test_support.instruments d in
  List.for_all
    (fun opt ->
      let r = run_vm ?trace ?cpu ?heap { d.Test_support.config with Jit.opt } src 25 in
      Test_support.outcome r = reference)
    opt_levels

