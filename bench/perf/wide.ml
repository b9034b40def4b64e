(* Seeded generator of "wide" MiniJava programs for the coldstart
   workload: many classes, each run briefly, so a program's cost is
   dominated by the front end and by JIT-compiling one hot method per
   class rather than by steady-state execution.

   Every generated class [Wk] has four methods:
   - [hot]: allocates an object, loops over it, escapes it into a static
     on a data-dependent branch (a partial escape), locks it, and calls
     [mix] on every fourth argument. [drive] invokes it 12 times, which
     crosses the default compile threshold of 10, so it is the one method
     per class the JIT compiles;
   - [mix]: allocates a second object linked to the first; reached at
     most 4 times, so it is interpreted or inlined, never compiled alone;
   - [cold]: array work under a lock on a shared static, called once;
   - [drive]: the class's entry, called once from [Main.main]; its loop
     runs 12 times, far below the OSR threshold of 100 back edges.

   Loop trip counts stay below 20 so no branch profile reaches the
   pruner's 20-execution floor before [hot] compiles: no speculation, no
   deopts, and the compiled code is a pure function of the source. All
   draws come from a fixed LCG, so the same seed gives byte-identical
   source. *)

let classes = 120

(* 30-bit LCG drawing from the high bits (the low bits of an LCG cycle
   with tiny periods). *)
type rng = { mutable s : int }

let rng seed = { s = (seed * 2654435761) land 0x3FFFFFFF }

let draw r n =
  r.s <- ((r.s * 1103515245) + 12345) land 0x3FFFFFFF;
  (r.s lsr 12) mod n

(* Three loop-body shapes for [hot], so the front end and the optimizer
   see more than one statement pattern. *)
let hot_body r =
  match draw r 3 with
  | 0 -> "s = s + o.a * i + o.b;"
  | 1 -> "if (i % 3 == 0) { s = s + o.a; } else { s = s - o.b + i; }"
  | _ -> "o.b = o.b + i; s = s + o.b % 97;"

let class_source r k =
  let name = Printf.sprintf "W%d" k in
  let c1 = 1 + draw r 50 in
  let c2 = 2 + draw r 9 in
  let trips = 4 + draw r 12 in
  let esc = 5 + draw r 7 in
  let stride = 1 + draw r 5 in
  let mixc = 3 + draw r 20 in
  let arr_len = 3 + draw r 14 in
  (* [cold] reads a static of a partner class: cross-class resolution
     work for the typechecker and linker *)
  let partner = Printf.sprintf "W%d" ((k + 1 + draw r (classes - 1)) mod classes) in
  Printf.sprintf
    {|class %s {
  int a;
  int b;
  %s link;
  static %s keep;
  static %s gate;
  static int hot(int x) {
    %s o = new %s();
    o.a = x + %d;
    o.b = x * %d;
    int s = 0;
    int i = 0;
    while (i < %d) {
      %s
      i = i + 1;
    }
    if (x %% %d == 0) { %s.keep = o; }
    synchronized (o) { s = s + o.a; }
    if (x %% 4 == 0) { s = s + %s.mix(x, o); }
    return s;
  }
  static int mix(int x, %s o) {
    %s p = new %s();
    p.link = o;
    p.a = x * %d;
    return p.a + p.link.b;
  }
  static int cold(int t) {
    int[] v = new int[%d];
    int i = 0;
    int s = 0;
    synchronized (%s.gate) {
      while (i < v.length) { v[i] = t %% (i + 7); s = s + v[i]; i = i + 1; }
    }
    if (%s.keep != null) { s = s + 1; }
    return s;
  }
  static int drive() {
    %s.gate = new %s();
    int t = 0;
    int i = 0;
    while (i < 12) { t = t + %s.hot(i * %d + %d); i = i + 1; }
    t = t + %s.cold(t);
    print(t);
    return t;
  }
}
|}
    name name name name name name c1 c2 trips (hot_body r) esc name name name name name mixc
    arr_len name partner name name name stride k name

(* [source seed] is one wide program: [classes] generated classes plus a
   [Main] whose [main] drives each of them once. *)
let source seed =
  let r = rng seed in
  let b = Buffer.create (classes * 1100) in
  for k = 0 to classes - 1 do
    Buffer.add_string b (class_source r k)
  done;
  Buffer.add_string b "class Main {\n  static int main() {\n    int t = 0;\n";
  for k = 0 to classes - 1 do
    Printf.bprintf b "    t = t + W%d.drive();\n" k
  done;
  Buffer.add_string b "    return t;\n  }\n}\n";
  Buffer.contents b
