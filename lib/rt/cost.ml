(* Deterministic cost model.

   The paper measures iterations/minute on real hardware. Our substrate is
   an interpreter, so wall-clock numbers would measure the wrong thing
   (OCaml dispatch overhead, not removed allocations). Instead every
   executed operation is charged a fixed cost in "cycles"; benchmark
   iterations/minute is derived from the cycle count. The relative cost of
   allocation, synchronization, memory access and arithmetic follows the
   conventional wisdom for modern JVMs (allocation ~ tens of cycles with a
   bump allocator plus amortized GC work proportional to size, uncontended
   biased lock ~ a dozen cycles). *)

(* Interpreter overhead per bytecode (fetch/decode/dispatch). *)
let interp_dispatch = 12

(* Compiled code executes an IR operation in roughly one "cycle". *)
let compiled_op = 1

(* Allocation: header/zeroing plus amortized GC pressure by size. *)
let alloc_base = 35

let alloc_per_byte_num = 1

let alloc_per_byte_den = 2 (* +0.5 cycles per byte *)

let alloc_cost bytes = alloc_base + (bytes * alloc_per_byte_num / alloc_per_byte_den)

(* Scratch (stack-like) allocation of a summary-cleared call argument:
   no GC pressure, just writing the fields into a frame-local object. *)
let stack_alloc = 4

(* Uncontended monitor acquire/release. *)
let monitor_op = 15

(* Call overhead (frame setup, dispatch). *)
let invoke = 25

(* Memory accesses. *)
let field_access = 3

let array_access = 4

let static_access = 3

(* Deoptimization is very expensive: frame reconstruction + interpreter. *)
let deopt = 500

(* Modeled JIT compilation latency, as a function of method size. The
   constants make compilation cost on the order of thousands of cycles —
   enough that the stall of compiling at the threshold is visible
   against a hot loop. *)
let compile_base = 2000

let compile_per_bytecode = 150

let compile_latency ~bytecodes = compile_base + (compile_per_bytecode * bytecodes)

(* How the closure execution tier runs a graph is a wall-clock matter
   only and adds no model cycles: its inline caches, pooled register
   files, threaded instruction chains, typed registers (unboxed ints,
   constants filled into the register file, fused compare-and-branch),
   shared booleans and counter cells resolved at translation change what
   an operation costs the host, never what it is charged. Compiled code
   is charged per IR operation from the constants above. A constant runs
   no code, so its charge is applied with the next operation of its
   block, or at the block's end; wherever the counters can be observed
   (an operation that can trap, call, allocate or deopt, a block-entry
   safepoint, a terminator) they hold exactly the charges of every
   operation before that point, so the deterministic Table-1 numbers do
   not depend on how compiled graphs are executed. *)

