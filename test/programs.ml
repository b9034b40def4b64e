(* A corpus of MJ programs shared by the differential test suites. Each
   exercises a distinct slice of the language/optimizer surface. *)

let main_wrap body = Printf.sprintf "class Main { static int main() { %s } }" body

let corpus : (string * string) list =
  [
    ("arith", main_wrap "return 2 + 3 * 4 - 6 / 2;");
    ("locals", main_wrap "int a = 1; int b = a + 2; int c = b * b; return c - a;");
    ( "branches",
      main_wrap "int x = 10; int r = 0; if (x > 5) r = 1; else r = 2; if (x == 10) r = r + 10; return r;"
    );
    ( "loop-sum",
      main_wrap "int i = 0; int acc = 0; while (i < 50) { acc = acc + i; i = i + 1; } return acc;" );
    ( "nested-loop",
      main_wrap
        "int acc = 0; int i = 0; while (i < 8) { int j = 0; while (j < i) { acc = acc + j; j = j + 1; } i = i + 1; } return acc;"
    );
    ( "short-circuit",
      "class Main {\n\
      \  static int calls;\n\
      \  static boolean bump() { calls = calls + 1; return true; }\n\
      \  static int main() {\n\
      \    calls = 0;\n\
      \    boolean a = false && Main.bump();\n\
      \    boolean b = true || Main.bump();\n\
      \    boolean c = true && Main.bump();\n\
      \    if (a || !b) return 0 - 1;\n\
      \    return calls;\n\
      \  }\n\
       }" );
    ( "object-simple",
      "class P { int x; int y; }\n\
       class Main { static int main() { P p = new P(); p.x = 3; p.y = 39; return p.x + p.y; } }" );
    ( "ctor-chain",
      "class V { int a; int b; V(int a0, int b0) { a = a0; b = b0; } int sum() { return a + b; } }\n\
       class Main { static int main() { V v = new V(20, 22); return v.sum(); } }" );
    ( "escape-global",
      "class Box { int v; Box(int v0) { v = v0; } }\n\
       class Main {\n\
      \  static Box keep;\n\
      \  static int main() {\n\
      \    int acc = 0; int i = 0;\n\
      \    while (i < 30) {\n\
      \      Box b = new Box(i);\n\
      \      if (i == 17) keep = b;\n\
      \      acc = acc + b.v;\n\
      \      i = i + 1;\n\
      \    }\n\
      \    if (keep != null) acc = acc + keep.v;\n\
      \    return acc;\n\
      \  }\n\
       }" );
    ( "cache-key",
      "class Key {\n\
      \  int idx;\n\
      \  Object ref;\n\
      \  Key(int idx, Object ref) { this.idx = idx; this.ref = ref; }\n\
      \  synchronized boolean sameAs(Key other) {\n\
      \    if (other == null) return false;\n\
      \    return idx == other.idx && ref == other.ref;\n\
      \  }\n\
       }\n\
       class Cache {\n\
      \  static Key cacheKey;\n\
      \  static int cacheValue;\n\
      \  static int getValue(int idx, Object ref) {\n\
      \    Key key = new Key(idx, ref);\n\
      \    if (key.sameAs(Cache.cacheKey)) return Cache.cacheValue;\n\
      \    Cache.cacheKey = key;\n\
      \    Cache.cacheValue = idx * 3;\n\
      \    return Cache.cacheValue;\n\
      \  }\n\
       }\n\
       class Main {\n\
      \  static int main() {\n\
      \    Object o = new Object();\n\
      \    int acc = 0; int i = 0;\n\
      \    while (i < 40) { acc = acc + Cache.getValue(i / 8, o); i = i + 1; }\n\
      \    return acc;\n\
      \  }\n\
       }" );
    ( "virtual-dispatch",
      "class A { int f() { return 1; } int g() { return f() * 10; } }\n\
       class B extends A { int f() { return 2; } }\n\
       class C extends A { int f() { return 3; } }\n\
       class Main {\n\
      \  static int main() {\n\
      \    A a = new A(); A b = new B(); A c = new C();\n\
      \    return a.g() + b.g() + c.g();\n\
      \  }\n\
       }" );
    ( "sync-counter",
      "class Counter { int v; synchronized void bump() { v = v + 1; } synchronized int get() { return v; } }\n\
       class Main {\n\
      \  static int main() {\n\
      \    Counter c = new Counter();\n\
      \    int i = 0;\n\
      \    while (i < 25) { c.bump(); i = i + 1; }\n\
      \    return c.get();\n\
      \  }\n\
       }" );
    ( "arrays",
      main_wrap
        "int[] a = new int[16]; int i = 0;\n\
         while (i < 16) { a[i] = i * i; i = i + 1; }\n\
         int acc = 0; i = 0;\n\
         while (i < a.length) { acc = acc + a[i]; i = i + 1; }\n\
         return acc;" );
    ( "array-of-refs",
      "class P { int v; P(int v0) { v = v0; } }\n\
       class Main {\n\
      \  static int main() {\n\
      \    P[] ps = new P[8]; int i = 0;\n\
      \    while (i < 8) { ps[i] = new P(i); i = i + 1; }\n\
      \    int acc = 0; i = 0;\n\
      \    while (i < 8) { acc = acc + ps[i].v; i = i + 1; }\n\
      \    return acc;\n\
      \  }\n\
       }" );
    ( "instanceof-cast",
      "class A { }\n\
       class B extends A { int v; }\n\
       class Main {\n\
      \  static int main() {\n\
      \    A x = new B();\n\
      \    int acc = 0;\n\
      \    if (x instanceof B) { B b = (B) x; b.v = 21; acc = acc + b.v; }\n\
      \    if (x instanceof A) acc = acc * 2;\n\
      \    A y = new A();\n\
      \    if (y instanceof B) acc = 0 - 1;\n\
      \    return acc;\n\
      \  }\n\
       }" );
    ( "linked-list",
      "class Node2 { int v; Node2 next; Node2(int v0, Node2 n) { v = v0; next = n; } }\n\
       class Main {\n\
      \  static int main() {\n\
      \    Node2 head = null; int i = 0;\n\
      \    while (i < 10) { head = new Node2(i, head); i = i + 1; }\n\
      \    int acc = 0;\n\
      \    Node2 cur = head;\n\
      \    while (cur != null) { acc = acc + cur.v; cur = cur.next; }\n\
      \    return acc;\n\
      \  }\n\
       }" );
    ( "cyclic-pair",
      "class Cell { int v; Cell other; }\n\
       class Main {\n\
      \  static int main() {\n\
      \    Cell a = new Cell(); Cell b = new Cell();\n\
      \    a.v = 13; b.v = 29;\n\
      \    a.other = b; b.other = a;\n\
      \    return a.other.v + b.other.v;\n\
      \  }\n\
       }" );
    ( "phi-objects",
      "class P { int v; P(int v0) { v = v0; } }\n\
       class Main {\n\
      \  static int main() {\n\
      \    int acc = 0; int i = 0;\n\
      \    while (i < 20) {\n\
      \      P p = null;\n\
      \      if (i % 2 == 0) p = new P(i); else p = new P(0 - i);\n\
      \      acc = acc + p.v;\n\
      \      i = i + 1;\n\
      \    }\n\
      \    return acc;\n\
      \  }\n\
       }" );
    ( "loop-carried-object",
      "class Acc { int total; }\n\
       class Main {\n\
      \  static int main() {\n\
      \    Acc a = new Acc();\n\
      \    int i = 0;\n\
      \    while (i < 15) { a.total = a.total + i; i = i + 1; }\n\
      \    return a.total;\n\
      \  }\n\
       }" );
    ( "object-identity",
      "class P { int v; }\n\
       class Main {\n\
      \  static int main() {\n\
      \    P a = new P(); P b = new P(); P c = a;\n\
      \    int acc = 0;\n\
      \    if (a == c) acc = acc + 1;\n\
      \    if (a != b) acc = acc + 2;\n\
      \    if (b != c) acc = acc + 4;\n\
      \    if (a != null) acc = acc + 8;\n\
      \    return acc;\n\
      \  }\n\
       }" );
    ( "prints",
      main_wrap "int i = 0; while (i < 5) { print(i * 7); i = i + 1; } print(true); return 0;" );
    ( "recursion",
      "class Main {\n\
      \  static int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }\n\
      \  static int main() { return fib(12); }\n\
       }" );
    ( "deep-calls",
      "class Main {\n\
      \  static int f1(int x) { return f2(x) + 1; }\n\
      \  static int f2(int x) { return f3(x) + 1; }\n\
      \  static int f3(int x) { return f4(x) + 1; }\n\
      \  static int f4(int x) { return x * 2; }\n\
      \  static int main() { return f1(10); }\n\
       }" );
    ( "builder-churn",
      "class Builder { int total; Builder add(int x) { total = total + x; return this; } }\n\
       class Main {\n\
      \  static int main() {\n\
      \    int acc = 0; int i = 0;\n\
      \    while (i < 12) {\n\
      \      Builder b = new Builder();\n\
      \      acc = acc + b.add(i).add(i * 2).add(3).total;\n\
      \      i = i + 1;\n\
      \    }\n\
      \    return acc;\n\
      \  }\n\
       }" );
    ( "mixed-escape-branch",
      "class E { int v; E(int v0) { v = v0; } }\n\
       class Main {\n\
      \  static E sink;\n\
      \  static int main() {\n\
      \    int acc = 0; int i = 0;\n\
      \    while (i < 32) {\n\
      \      E e = new E(i);\n\
      \      if (i % 11 == 10) { sink = e; }\n\
      \      acc = acc + e.v;\n\
      \      i = i + 1;\n\
      \    }\n\
      \    return acc + sink.v;\n\
      \  }\n\
       }" );
    ("while-true", main_wrap "int i = 0; while (true) { i = i + 3; if (i > 20) return i; }");
    ( "for-sugar",
      main_wrap
        "int acc = 0;\n\
         for (int i = 0; i < 12; i++) { acc += i * i; }\n\
         for (int j = 10; j > 0; j -= 2) { acc -= j; }\n\
         return acc;" );
    ( "const-arrays",
      main_wrap
        "int[] a = new int[4];\n\
         a[0] = 3; a[1] = a[0] * 2; a[2] = a[0] + a[1]; a[3] = a.length;\n\
         int acc = 0;\n\
         for (int i = 0; i < 30; i++) { int[] b = new int[2]; b[0] = i; b[1] = b[0] + 1; acc += b[0] * b[1]; }\n\
         return acc + a[2] + a[3];" );
    ( "escaping-array",
      "class Main {\n\
      \  static int[] keep;\n\
      \  static int main() {\n\
      \    int acc = 0;\n\
      \    for (int i = 0; i < 25; i++) {\n\
      \      int[] a = new int[3];\n\
      \      a[0] = i; a[1] = i * 2; a[2] = a[0] + a[1];\n\
      \      if (i == 13) { Main.keep = a; }\n\
      \      acc += a[2];\n\
      \    }\n\
      \    return acc + Main.keep[1];\n\
      \  }\n\
       }" );
    ( "exceptions-mixed",
      "class Neg { int v; Neg(int v0) { v = v0; } }\n\
       class Main {\n\
      \  static int checked(int x) { if (x % 7 == 3) { throw new Neg(x); } return x; }\n\
      \  static int main() {\n\
      \    int acc = 0;\n\
      \    for (int i = 0; i < 30; i++) {\n\
      \      try { acc += Main.checked(i); } catch (Neg n) { acc += n.v * 100; }\n\
      \    }\n\
      \    return acc;\n\
      \  }\n\
       }" );
    ( "swap-loop",
      main_wrap
        "int a = 1; int b = 1000; int i = 0;\n\
         while (i < 9) { int t = a; a = b; b = t; i++; }\n\
         return a * 2 + b;" );
    ( "deep-hierarchy",
      "class A { int f() { return 1; } int g() { return f() * 100; } }\n\
       class B extends A { int f() { return 2; } }\n\
       class C extends B { int f() { return 3; } }\n\
       class D extends C { }\n\
       class Main {\n\
      \  static int main() {\n\
      \    A[] xs = new A[4];\n\
      \    xs[0] = new A(); xs[1] = new B(); xs[2] = new C(); xs[3] = new D();\n\
      \    int acc = 0;\n\
      \    for (int i = 0; i < 4; i++) { acc += xs[i].g(); }\n\
      \    return acc;\n\
      \  }\n\
       }" );
    ( "object-before-loop-escape-after",
      "class Box { int v; }\n\
       class Main {\n\
      \  static Box out;\n\
      \  static int main() {\n\
      \    Box b = new Box();\n\
      \    for (int i = 0; i < 20; i++) { b.v += i; }\n\
      \    Main.out = b;\n\
      \    return Main.out.v;\n\
      \  }\n\
       }" );
    ( "builder-pattern-chain",
      "class Sb { int len; int hash; Sb add(int x) { len++; hash = hash * 31 + x; return this; } int seal() { return hash + len; } }\n\
       class Main {\n\
      \  static int main() {\n\
      \    int acc = 0;\n\
      \    for (int i = 0; i < 40; i++) {\n\
      \      acc += new Sb().add(i).add(acc % 7).add(3).seal();\n\
      \      acc %= 1000003;\n\
      \    }\n\
      \    return acc;\n\
      \  }\n\
       }" );
    ( "sync-nested",
      "class L { int v; }\n\
       class Main {\n\
      \  static int main() {\n\
      \    L a = new L(); L b = new L();\n\
      \    int acc = 0;\n\
      \    for (int i = 0; i < 10; i++) {\n\
      \      synchronized (a) { synchronized (b) { synchronized (a) { a.v += i; b.v += a.v; } } }\n\
      \    }\n\
      \    acc = a.v * 1000 + b.v;\n\
      \    return acc;\n\
      \  }\n\
       }" );
    ( "array-alias-write",
      "class Main {\n\
      \  static int main() {\n\
      \    int[] a = new int[4];\n\
      \    int[] b = a;\n\
      \    a[1] = 5;\n\
      \    b[1] = b[1] + 6;\n\
      \    a[2] = b[1];\n\
      \    return a[1] * 100 + a[2] + b.length;\n\
      \  }\n\
       }" );
    ( "cast-chain",
      "class A { int f() { return 1; } }\n\
       class B extends A { int f() { return 2; } int only() { return 20; } }\n\
       class C2 extends B { int f() { return 3; } }\n\
       class Main {\n\
      \  static int main() {\n\
      \    A x = new C2();\n\
      \    int acc = x.f();\n\
      \    if (x instanceof B) { B b = (B) x; acc += b.only(); }\n\
      \    if (x instanceof C2) { C2 c = (C2) x; acc += c.f() * 100; }\n\
      \    return acc;\n\
      \  }\n\
       }" );
    ( "triangular-loops",
      main_wrap
        "int acc = 0;\n\
         for (int i = 0; i < 10; i++) {\n\
        \   for (int j = 0; j <= i; j++) { acc += i * 10 + j; }\n\
         }\n\
         return acc;" );
    ( "div-rem",
      main_wrap "int acc = 0; int i = 1; while (i < 30) { acc = acc + 100 / i + (100 % i); i = i + 1; } return acc;"
    );
  ]

(* ------------------------------------------------------------------ *)
(* Named programs                                                      *)
(*                                                                     *)
(* White-box scenarios that several suites need under a known name and *)
(* shape (loop trip counts, branch layout, class hierarchy) rather     *)
(* than as a random corpus draw. Keeping them here stops each suite    *)
(* from re-declaring its own copy.                                     *)
(* ------------------------------------------------------------------ *)

(* A single invocation of a hot allocating loop: the OSR scenario. 600
   iterations, one Point allocation per iteration. *)
let hot_loop =
  "class Point { int x; int y; }\n\
   class Main {\n\
  \  static int main() {\n\
  \    int s = 0;\n\
  \    int i = 0;\n\
  \    while (i < 600) {\n\
  \      Point p = new Point();\n\
  \      p.x = i;\n\
  \      p.y = 3;\n\
  \      s = s + p.x + p.y;\n\
  \      i = i + 1;\n\
  \    }\n\
  \    return s;\n\
  \  }\n\
   }"

(* A loop nest whose inner header gets hot first: OSR back-edge
   classification from a non-entry block. *)
let nested_loops =
  "class Main {\n\
  \  static int main() {\n\
  \    int s = 0;\n\
  \    int i = 0;\n\
  \    while (i < 8) {\n\
  \      int j = 0;\n\
  \      while (j < 40) {\n\
  \        s = s + i * j + 1;\n\
  \        j = j + 1;\n\
  \      }\n\
  \      i = i + 1;\n\
  \    }\n\
  \    return s;\n\
  \  }\n\
   }"

(* Two independently-pruned cold branches over a fully scalar-replaced
   allocation: the per-site deopt-policy scenario (no main; drive C.f
   directly). *)
let two_branch =
  "class I { int v; }\n\
   class C {\n\
  \  static int g;\n\
  \  static int f(int x, boolean a, boolean b) {\n\
  \    I i = new I();\n\
  \    i.v = x;\n\
  \    if (a) { C.g = C.g + i.v; }\n\
  \    if (b) { C.g = C.g + i.v * 2; }\n\
  \    return i.v + 1;\n\
  \  }\n\
   }"

(* A virtual call in a hot loop with an A/B receiver hierarchy: the
   inline-cache scenario (no main; drive C.f with mkA/mkB receivers). *)
let ic_dispatch =
  "class A { int v; int get() { return v; } }\n\
   class B extends A { int get() { return v * 2; } }\n\
   class C {\n\
  \  static A mkA(int v) { A a = new A(); a.v = v; return a; }\n\
  \  static A mkB(int v) { B b = new B(); b.v = v; return b; }\n\
  \  static int f(A a, int n) {\n\
  \    int s = 0;\n\
  \    int i = 0;\n\
  \    while (i < n) { s = s + a.get(); i = i + 1; }\n\
  \    return s;\n\
  \  }\n\
   }"

(* Compiled arithmetic, allocation, virtual dispatch, field traffic and
   a pruned branch that deopts with a virtual object in the frame state:
   the cost-model golden scenario of test_closure.ml (no main). *)
let tier_parity =
  "class I { int val; }\n\
   class A { int v; int get() { return v; } }\n\
   class B extends A { int get() { return v * 2; } }\n\
   class C {\n\
  \  static I global;\n\
  \  static A mkA(int v) { A a = new A(); a.v = v; return a; }\n\
  \  static A mkB(int v) { B b = new B(); b.v = v; return b; }\n\
  \  static int f(A recv, int x, boolean cold) {\n\
  \    I i = new I();\n\
  \    i.val = x + recv.get();\n\
  \    if (cold) { C.global = i; }\n\
  \    return i.val + 1;\n\
  \  }\n\
   }"

(* The paper's running example (§4, Listings 4-6): the Key allocation
   escapes only on the cache-miss path (no main; analyze
   Cache.getValue). *)
let cache =
  "class Key {\n\
  \  int idx;\n\
  \  Object ref;\n\
  \  Key(int idx, Object ref) { this.idx = idx; this.ref = ref; }\n\
  \  synchronized boolean sameAs(Key other) {\n\
  \    if (other == null) return false;\n\
  \    return idx == other.idx && ref == other.ref;\n\
  \  }\n\
   }\n\
   class Cache {\n\
  \  static Key cacheKey;\n\
  \  static int cacheValue;\n\
  \  static int getValue(int idx, Object ref) {\n\
  \    Key key = new Key(idx, ref);\n\
  \    if (key.sameAs(Cache.cacheKey)) {\n\
  \      return Cache.cacheValue;\n\
  \    } else {\n\
  \      Cache.cacheKey = key;\n\
  \      Cache.cacheValue = idx * 2;\n\
  \      return Cache.cacheValue;\n\
  \    }\n\
  \  }\n\
   }"

(* [cache] driven by a hot main: the single-entry cache hit/miss mix of
   the paper's evaluation loop (examples/cache.mj). The miss branch is
   profiled cold, pruned, and periodically deopts — under background
   compilation that deopt can race an in-flight compile of the same
   method, which is exactly the stale-discard scenario. *)
let cache_loop =
  cache
  ^ "\n\
     class Main {\n\
    \  static int main() {\n\
    \    Object o = new Object();\n\
    \    int acc = 0;\n\
    \    int i = 0;\n\
    \    while (i < 1000) {\n\
    \      acc = acc + Cache.getValue(i / 100, o);\n\
    \      i = i + 1;\n\
    \    }\n\
    \    return acc;\n\
    \  }\n\
     }"

(* The fully-local variant (Listing 1): the Key never escapes, so
   whole-method EA already removes everything. *)
let local_cache =
  "class Key {\n\
  \  int idx;\n\
  \  Object ref;\n\
  \  Key(int idx, Object ref) { this.idx = idx; this.ref = ref; }\n\
  \  synchronized boolean sameAs(Key other) {\n\
  \    if (other == null) return false;\n\
  \    return idx == other.idx && ref == other.ref;\n\
  \  }\n\
   }\n\
   class Cache {\n\
  \  static Key cacheKey;\n\
  \  static int cacheValue;\n\
  \  static int getValue(int idx, Object ref) {\n\
  \    Key key = new Key(idx, ref);\n\
  \    if (key.sameAs(Cache.cacheKey)) {\n\
  \      return Cache.cacheValue;\n\
  \    }\n\
  \    return idx * 7;\n\
  \  }\n\
   }"

(* A deopt trap driven by a persistent iteration counter: interpreted
   warm-up profiles the escape branch as never taken, the compiled code
   prunes it, and iteration 24 fires a real deoptimization with the
   object virtual in the frame state. Run for 25+ main iterations with
   compile_threshold 22 (see test_obs.ml / test_properties.ml). *)
let deopt_trap =
  "class P { int a; int b; }\n\
   class Main {\n\
  \  static P g;\n\
  \  static int iterc;\n\
  \  static int main() {\n\
  \    Main.iterc = Main.iterc + 1;\n\
  \    P p = new P();\n\
  \    p.a = Main.iterc; p.b = 7;\n\
  \    int s = 0;\n\
  \    int i = 0;\n\
  \    while (i < 20) {\n\
  \      P q = new P();\n\
  \      q.a = i;\n\
  \      s = s + q.a + p.b;\n\
  \      i = i + 1;\n\
  \    }\n\
  \    if (Main.iterc > 23) { Main.g = p; }\n\
  \    return s + p.a;\n\
  \  }\n\
   }"

(* The merged Point is live across a branch that the profile sees as
   never taken; once [work] compiles from a mature profile the branch is
   pruned to a deopt. Iteration 900 takes it: the deopt fires with the
   stack-allocated Point live in the resume state, so the deopt handler
   must promote it to the heap before the frame's region is reclaimed.
   bench/main.ml's stack-allocation section runs it as its deopt-promote
   row. *)
let deopt_promote =
  "class Point { int x; int y; Point(int x, int y) { this.x = x; this.y = y; } }\n\
   class Main {\n\
  \  static int work(int i, int flip) {\n\
  \    Point p;\n\
  \    if (i % 2 == 0) { p = new Point(i, 1); } else { p = new Point(i, 2); }\n\
  \    int r = p.x;\n\
  \    if (flip == 1) { r = r + p.y * 10; }\n\
  \    return r + p.y;\n\
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
  \    return acc;\n\
  \  }\n\
   }"
