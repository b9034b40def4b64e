(* Stack-allocation tier tests: frame-bounded materializations land in
   the frame's stack region instead of the heap, are reclaimed in O(1)
   at frame pop, and are promoted to real heap objects when a deopt
   makes them outlive their compiled frame.

   The accounting cases pin their configurations: they compare stack
   allocation on vs off (and optimization levels against each other).
   The differential property at the end draws the configuration:
   whatever it is, results must match the interpreter with the tier on
   and off, and the stack-region counters must balance.

   This file also carries the flight-recorder write-failure regression:
   a dump that cannot be written must warn on stderr and leave the run's
   result untouched (it used to be silently swallowed). *)

open Pea_bytecode
open Pea_rt
open Pea_vm
module Flight = Pea_obs.Flight
module Pheap = Pea_obs.Profile_heap

(* A Point allocated on both arms of a branch and merged: PEA cannot
   keep the two virtual objects virtual across the merge, so the site
   materializes — but the object never leaves [work]'s frame, so the
   materialization is stack-eligible. No object is ever passed to a
   callee, so the program produces no scratch allocations and the
   stack-region counters must balance exactly. *)
let merge_src =
  "class Point { int x; int y; Point(int x, int y) { this.x = x; this.y = y; } }\n\
   class Main {\n\
  \  static int work(int i) {\n\
  \    Point p;\n\
  \    if (i % 2 == 0) { p = new Point(i, 1); } else { p = new Point(i, 2); }\n\
  \    return p.x + p.y;\n\
  \  }\n\
  \  static int main() {\n\
  \    int acc = 0;\n\
  \    int i = 0;\n\
  \    while (i < 400) { acc = acc + Main.work(i); i = i + 1; }\n\
  \    return acc;\n\
  \  }\n\
   }"

(* The deopt of [Programs.deopt_promote] with the Point one field deep
   in a Box: the frame state names the Box, and the resumed interpreter
   keeps it in a static that [main] reads after the loop. So the
   promotion must follow the Box's fields, or the Point is scrubbed when
   the compiled frame pops. *)
let deopt_promote_nested_src =
  "class Point { int x; int y; Point(int x, int y) { this.x = x; this.y = y; } }\n\
   class Box { Point pt; Box(Point pt) { this.pt = pt; } }\n\
   class Main {\n\
  \  static Box kept;\n\
  \  static int work(int i, int flip) {\n\
  \    Box b;\n\
  \    if (i % 2 == 0) { b = new Box(new Point(i, 1)); } else { b = new Box(new Point(i, 2)); }\n\
  \    int r = b.pt.x;\n\
  \    if (flip == 1) { Main.kept = b; r = r + b.pt.y * 10; }\n\
  \    return r + b.pt.y;\n\
  \  }\n\
  \  static int main() {\n\
  \    int acc = 0;\n\
  \    int i = 0;\n\
  \    while (i < 1000) {\n\
  \      int flip = 0;\n\
  \      if (i == 900) { flip = 1; }\n\
  \      acc = acc + Main.work(i, flip);\n\
  \      i = i + 1;\n\
  \    }\n\
  \    return acc + Main.kept.pt.y * 100000;\n\
  \  }\n\
   }"

let run ?(iterations = 3) ?(threshold = 4) ?(opt = Jit.O_pea) ?(stackalloc = true) src =
  let config =
    {
      Jit.default_config with
      Jit.compile_threshold = threshold;
      opt;
      stackalloc;
      oracle = true;
    }
  in
  Vm.run_main_iterations (Vm.create ~config (Link.compile_source src)) iterations

(* ------------------------------------------------------------------ *)
(* Scratch/heap accounting                                             *)
(* ------------------------------------------------------------------ *)

(* The audit the heap counters must pass: a stack allocation is never
   also counted as a heap allocation. Turning the tier off converts
   every stack allocation back into exactly one heap allocation, so
     allocs(off) = allocs(on) - promotions(on) + stack_allocs(on)
   (a promoted object is charged to the heap at promotion time and was
   counted as a stack allocation at birth, hence the correction), and
   every stack-region object is reclaimed or promoted, never both. *)
let test_accounting_parity () =
  let iterations = 3 in
  let reference = Test_support.interp_reference ~iterations merge_src in
  let r_none = run ~iterations ~opt:Jit.O_none ~stackalloc:false merge_src in
  let r_ea = run ~iterations ~opt:Jit.O_ea ~stackalloc:false merge_src in
  let r_off = run ~iterations ~opt:Jit.O_pea ~stackalloc:false merge_src in
  let r_on = run ~iterations ~opt:Jit.O_pea ~stackalloc:true merge_src in
  List.iter
    (fun (label, r) ->
      Alcotest.(check (pair string (list string)))
        (label ^ " matches the interpreter") reference (Test_support.outcome r))
    [ ("O_none", r_none); ("O_ea", r_ea); ("pea/stackalloc=off", r_off);
      ("pea/stackalloc=on", r_on) ];
  let s_off = r_off.Vm.stats and s_on = r_on.Vm.stats in
  Alcotest.(check bool) "the tier actually stack-allocates" true
    (s_on.Stats.s_stack_allocs > 0);
  Alcotest.(check int) "stackalloc=off places nothing in stack regions" 0
    s_off.Stats.s_stack_allocs;
  Alcotest.(check int) "every stack object is reclaimed or promoted"
    s_on.Stats.s_stack_allocs
    (s_on.Stats.s_stack_reclaimed + s_on.Stats.s_stack_promotions);
  Alcotest.(check int) "no double counting: off = on - promotions + stack"
    s_off.Stats.s_allocations
    (s_on.Stats.s_allocations - s_on.Stats.s_stack_promotions + s_on.Stats.s_stack_allocs);
  Alcotest.(check bool) "the tier removes heap allocations" true
    (s_on.Stats.s_allocations < s_off.Stats.s_allocations);
  (* allocation monotonicity along the optimization ladder still holds *)
  Alcotest.(check bool) "pea <= ea <= none heap allocations" true
    (s_off.Stats.s_allocations <= r_ea.Vm.stats.Stats.s_allocations
    && r_ea.Vm.stats.Stats.s_allocations <= r_none.Vm.stats.Stats.s_allocations)

(* ------------------------------------------------------------------ *)
(* Deopt-time promotion                                                *)
(* ------------------------------------------------------------------ *)

(* Threshold 30 so [work] compiles from >= 20 profile samples of the
   never-taken branch (the pruning heuristic's minimum) and the branch
   really is speculated away. The oracle bisimulates the deopt against
   a shadow interpreter replay, so a promotion that left a dangling or
   scrubbed object in the resume state would abort here. *)
let test_deopt_promotion () =
  let iterations = 3 in
  let reference = Test_support.interp_reference ~iterations Programs.deopt_promote in
  let r = run ~iterations ~threshold:30 ~stackalloc:true Programs.deopt_promote in
  Alcotest.(check (pair string (list string)))
    "result survives the promoting deopt" reference (Test_support.outcome r);
  Alcotest.(check bool) "a deopt fired" true (r.Vm.stats.Stats.s_deopts > 0);
  Alcotest.(check bool) "a live stack object was promoted" true
    (r.Vm.stats.Stats.s_stack_promotions >= 1);
  Alcotest.(check int) "promoted objects are not also reclaimed"
    r.Vm.stats.Stats.s_stack_allocs
    (r.Vm.stats.Stats.s_stack_reclaimed + r.Vm.stats.Stats.s_stack_promotions);
  (* the tier off: same result, same deopts, nothing to promote *)
  let r_off = run ~iterations ~threshold:30 ~stackalloc:false Programs.deopt_promote in
  Alcotest.(check (pair string (list string)))
    "stackalloc=off agrees" reference (Test_support.outcome r_off);
  Alcotest.(check int) "nothing promoted with the tier off" 0
    r_off.Vm.stats.Stats.s_stack_promotions

(* The promoting deopt moves the Box and, through its field, the Point
   to the heap: two promotions, and the result survives. *)
let test_deopt_promotion_nested () =
  let iterations = 3 in
  let reference = Test_support.interp_reference ~iterations deopt_promote_nested_src in
  let r = run ~iterations ~threshold:30 deopt_promote_nested_src in
  Alcotest.(check (pair string (list string)))
    "result survives the promoting deopt" reference (Test_support.outcome r);
  Alcotest.(check int) "the Box and the Point it holds promote" 2
    r.Vm.stats.Stats.s_stack_promotions

(* ------------------------------------------------------------------ *)
(* Flight recorder: dump write failure must warn, not swallow          *)
(* ------------------------------------------------------------------ *)

(* Point a VM's recorder at a file inside a directory that does not
   exist, storm it into triggering, and assert (a) the run's results and
   VM state are exactly those of the writable-path storm, and (b) one
   warning line per failed trigger reaches stderr. The write failure
   used to be swallowed silently. *)
let test_flight_dump_failure_warns () =
  let path =
    Filename.concat
      (Filename.concat (Filename.get_temp_dir_name ()) "mjvm-no-such-dir-4242")
      "dump.jsonl"
  in
  Alcotest.(check bool) "the dump directory really is missing" false
    (Sys.file_exists (Filename.dirname path));
  let program = Link.compile_source ~require_main:false Programs.two_branch in
  let config =
    { Jit.default_config with Jit.compile_threshold = 25; osr = false; deopt_storm_limit = 2 }
  in
  let flight = Flight.create ~path in
  let vm = Vm.create ~flight ~config program in
  let captured = Filename.temp_file "mjvm_stderr" ".txt" in
  let fd = Unix.openfile captured [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved_stderr = Unix.dup Unix.stderr in
  let restore () =
    flush stderr;
    Unix.dup2 saved_stderr Unix.stderr;
    Unix.close saved_stderr;
    Unix.close fd
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove captured)
    (fun () ->
      let f = Link.find_method program "C" "f" in
      let vint n = Value.Vint n and vbool b = Value.Vbool b in
      flush stderr;
      Unix.dup2 fd Unix.stderr;
      let results =
        Fun.protect ~finally:restore (fun () ->
            Vm.warm_up vm f [ vint 3; vbool false; vbool false ] 40;
            [
              Vm.invoke vm f [ vint 7; vbool true; vbool false ] (* deopt #1 *);
              Vm.invoke vm f [ vint 3; vbool false; vbool false ] (* recompile *);
              Vm.invoke vm f [ vint 7; vbool false; vbool true ] (* deopt #2: pins *);
            ])
      in
      (* the run is unaffected: same control flow as the writable-path
         storm — the guard still pins, and every call still returns *)
      Alcotest.(check bool) "storm guard pinned" true (Vm.interpreter_pinned vm f);
      Alcotest.(check int) "every invoke returned a value" 3
        (List.length (List.filter Option.is_some results));
      Alcotest.(check int) "the trigger still fired" 1 (Flight.dumps flight);
      Alcotest.(check bool) "no dump file materialized" false (Sys.file_exists path);
      let text = In_channel.with_open_bin captured In_channel.input_all in
      Alcotest.(check bool) "stderr carries the warning" true
        (Test_support.contains text "mjvm: flight dump failed:"))

(* ------------------------------------------------------------------ *)
(* Differential property                                               *)
(* ------------------------------------------------------------------ *)

(* Small program family pitting stack-eligible materializations (merge
   phis, lock-forced materialization on a synchronized region) against
   heap-forced ones (the object is returned out of its frame). *)
type shape = Merge | Lock | Return_obj

let gen_case =
  QCheck2.Gen.(
    map2
      (fun shape (n, a, b) -> (shape, n, a, b))
      (oneofl [ Merge; Lock; Return_obj ])
      (triple (int_range 20 120) (int_range 1 9) (int_range 1 9)))

let source_of_case (shape, n, a, b) =
  let work =
    match shape with
    | Merge ->
        Printf.sprintf
          "  static int work(int i) {\n\
          \    Point p;\n\
          \    if (i %% 2 == 0) { p = new Point(i, %d); } else { p = new Point(i, %d); }\n\
          \    return p.x + p.y;\n\
          \  }\n"
          a b
    | Lock ->
        (* the synchronized region forces materialization (lock elision
           aside, the monitor needs an identity) but the object still
           dies with the frame *)
        Printf.sprintf
          "  static int work(int i) {\n\
          \    Point p;\n\
          \    if (i %% 2 == 0) { p = new Point(i, %d); } else { p = new Point(i, %d); }\n\
          \    int r = 0;\n\
          \    synchronized (p) { p.x = p.x + %d; r = p.x + p.y; }\n\
          \    return r;\n\
          \  }\n"
          a b a
    | Return_obj ->
        (* escapes through the return value: frame_bounded must reject
           it and every materialization must be a real heap allocation *)
        Printf.sprintf
          "  static Point mk(int i) {\n\
          \    Point p;\n\
          \    if (i %% 2 == 0) { p = new Point(i, %d); } else { p = new Point(i, %d); }\n\
          \    return p;\n\
          \  }\n\
          \  static int work(int i) {\n\
          \    Point q = Main.mk(i);\n\
          \    return q.x + q.y;\n\
          \  }\n"
          a b
  in
  Printf.sprintf
    "class Point { int x; int y; Point(int x, int y) { this.x = x; this.y = y; } }\n\
     class Main {\n\
     %s\
    \  static int main() {\n\
    \    int acc = 0;\n\
    \    int i = 0;\n\
    \    while (i < %d) { acc = acc + Main.work(i); i = i + 1; }\n\
    \    return acc;\n\
    \  }\n\
     }"
    work n

let print_case ((shape, n, a, b) as case) =
  Printf.sprintf "shape=%s n=%d a=%d b=%d\n%s"
    (match shape with Merge -> "merge" | Lock -> "lock" | Return_obj -> "return")
    n a b (source_of_case case)

(* The tier on and off under a drawn configuration: both agree with the
   interpreter, and the stack-region counters balance (reclaimed +
   promoted never exceeds births, and are identically zero with the
   tier off). *)
let prop_stackalloc_differential =
  let gen =
    QCheck2.Gen.pair gen_case
      (Test_support.gen_config
         ~base:{ Jit.default_config with Jit.compile_threshold = 4; osr_threshold = 3 }
         ())
  in
  QCheck2.Test.make ~name:"stackalloc on/off x drawn configuration vs interpreter"
    ~count:(Test_env.qcheck_count 180)
    ~print:(fun (case, d) ->
      Test_support.show_draw ~walks:[ "stackalloc" ] d ^ "\n" ^ print_case case)
    gen
    (fun (case, d) ->
      let src = source_of_case case in
      let iterations = 6 in
      let reference = Test_support.interp_reference ~iterations src in
      let trace, cpu, heap = Test_support.instruments d in
      List.for_all
        (fun stackalloc ->
          let config = { d.Test_support.config with Jit.stackalloc } in
          let vm = Vm.create ?trace ?cpu ?heap ~config (Link.compile_source src) in
          let r = Vm.run_main_iterations vm iterations in
          let s = r.Vm.stats in
          let ok_outcome = Test_support.outcome r = reference in
          let ok_balance =
            s.Stats.s_stack_reclaimed + s.Stats.s_stack_promotions <= s.Stats.s_stack_allocs
          in
          let ok_off =
            stackalloc || (s.Stats.s_stack_reclaimed = 0 && s.Stats.s_stack_promotions = 0)
          in
          if not (ok_outcome && ok_balance && ok_off) then
            QCheck2.Test.fail_reportf "stackalloc=%b: outcome=%b balance=%b off-clean=%b"
              stackalloc ok_outcome ok_balance ok_off
          else true)
        [ true; false ])

(* The heap profiler is the one per-class allocation ledger, so it must
   see the allocation a promotion charges. On the deopt-promote program
   at threshold 30 (bench/main.ml's stackalloc row; [mjvm run --stats
   --threshold 30] prints the same counters) the charged records add up
   to [Stats]' 31 allocations and 992 bytes, and the one promotion is
   its own record at the deopt site. *)
let test_promotion_ledger () =
  let program = Link.compile_source Programs.deopt_promote in
  let ledger = Pheap.create () in
  let vm =
    Vm.create ~heap:ledger ~config:{ Jit.default_config with Jit.compile_threshold = 30 } program
  in
  let r = Vm.run vm in
  let s = r.Vm.stats in
  Alcotest.(check (triple int int int)) "allocations, bytes, promotions" (31, 992, 1)
    (s.Stats.s_allocations, s.Stats.s_allocated_bytes, s.Stats.s_stack_promotions);
  Alcotest.(check (list (triple string int int))) "the charged records are Stats' totals"
    [ ("Point", s.Stats.s_allocations, s.Stats.s_allocated_bytes) ]
    (Pheap.by_class ledger);
  let promotions =
    Pheap.fold
      (fun ~mid ~bci:_ ~cls ~kind ~count ~bytes acc ->
        if kind = Pheap.K_promote then
          (Classfile.qualified_name program.Link.methods.(mid), cls, count, bytes) :: acc
        else acc)
      ledger []
  in
  Alcotest.(check (list (pair (pair string string) (pair int int))))
    "one promoted Point, recorded at the deopt site"
    [ (("Main.work", "Point"), (1, 32)) ]
    (List.map (fun (m, c, n, b) -> ((m, c), (n, b))) promotions)

let () =
  Alcotest.run "stackalloc"
    [
      ( "accounting",
        [ Alcotest.test_case "heap/stack counter parity" `Quick test_accounting_parity ] );
      ( "deopt",
        [
          Alcotest.test_case "live stack objects promote" `Quick test_deopt_promotion;
          Alcotest.test_case "objects held in a promoted object's fields promote" `Quick
            test_deopt_promotion_nested;
          Alcotest.test_case "promotions are in the allocation ledger" `Quick
            test_promotion_ledger;
        ] );
      ( "flight",
        [
          Alcotest.test_case "dump write failure warns on stderr" `Quick
            test_flight_dump_failure_warns;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_stackalloc_differential ] );
    ]
