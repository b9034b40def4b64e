(* Allocation profiling: which classes does escape analysis actually
   remove?

   Replays §6.1 of the paper on a mixed workload: small wrapper objects
   (scalar-replaceable), cache keys that escape rarely (PEA-only wins),
   log records that always escape, and int buffers (arrays — never
   virtualized). The per-class breakdown, read from the allocation-site
   heap profiler that watches each run, shows the surviving allocations
   shifting toward arrays and genuinely escaping objects. *)

open Pea_bytecode
open Pea_vm

let source =
  {|
class Box { int v; Box(int v0) { v = v0; } int get() { return v; } }
class Key {
  int id;
  Key(int id0) { id = id0; }
  boolean matches(Key other) { if (other == null) return false; return id == other.id; }
}
class Record { int a; int b; int c; Record(int x) { a = x; b = x * 2; c = x * 3; } }
class Store {
  static Key current;
  static Record last;
  static int hits;
  static int lookup(int id) {
    Key k = new Key(id / 50);
    if (k.matches(Store.current)) { Store.hits += 1; return 1; }
    Store.current = k;
    return 0;
  }
}
class Main {
  static int work(int i) {
    // boxed arithmetic: fully local
    Box a = new Box(i);
    Box b = new Box(i * 2);
    int sum = a.get() + b.get();
    // a buffer: a real allocation (dynamic length)
    int[] buf = new int[Store.hits + 8];
    buf[0] = sum;
    // cache lookup: partial escape
    sum += Store.lookup(i);
    // every 100th record escapes for later inspection
    if (i % 100 == 99) { Store.last = new Record(i); }
    return sum + buf[0];
  }
  static int main() {
    int acc = 0;
    for (int i = 0; i < 5000; i++) { acc += Main.work(i); }
    return acc;
  }
}
|}

let () =
  Printf.printf "per-class allocation profile, 5000 operations per iteration\n";
  let show label opt =
    let config = { Jit.default_config with Jit.opt; compile_threshold = 5 } in
    let ledger = Pea_obs.Profile_heap.create () in
    let vm = Vm.create ~heap:ledger ~config (Link.compile_source source) in
    let r = Vm.run_main_iterations vm 3 in
    Printf.printf "\n%s (result %s):\n" label
      (match r.Vm.return_value with
      | Some v -> Pea_rt.Value.string_of_value v
      | None -> "void");
    Printf.printf "  %-10s %10s %12s\n" "class" "allocs" "bytes";
    List.iter
      (fun (name, count, bytes) -> Printf.printf "  %-10s %10d %12d\n" name count bytes)
      (Pea_obs.Profile_heap.by_class ledger)
  in
  show "without escape analysis" Jit.O_none;
  show "whole-method EA" Jit.O_ea;
  show "partial escape analysis" Jit.O_pea;
  Printf.printf
    "\nUnder PEA the Box and Key wrappers disappear from the profile (Keys only on cache\n\
     misses); the int[] buffers and the escaping Records remain — the §6.1 pattern that\n\
     surviving allocations are dominated by arrays.\n"
