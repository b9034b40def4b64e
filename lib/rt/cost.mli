(** Deterministic cost model.

    The paper measures iterations/minute on real hardware; our substrate
    is an interpreter, so wall-clock time would measure OCaml dispatch
    overhead rather than removed allocations. Instead every executed
    operation is charged a fixed "cycle" cost, and benchmark
    iterations/minute derives from the cycle count (see
    {!Pea_workloads.Harness.clock_hz}). Relative costs follow conventional
    JVM wisdom: allocation costs tens of cycles plus size-proportional
    amortized GC work; an uncontended biased lock costs around a dozen
    cycles. *)

(** Interpreter overhead per bytecode (fetch/decode/dispatch). *)
val interp_dispatch : int

(** Compiled code executes one IR operation per "cycle". *)
val compiled_op : int

val alloc_base : int

val alloc_per_byte_num : int

val alloc_per_byte_den : int

(** [alloc_cost bytes] = base + amortized GC pressure by size. *)
val alloc_cost : int -> int

(** Scratch (stack-like) allocation of a summary-cleared call argument:
    no GC pressure, only frame-local initialization. *)
val stack_alloc : int

(** Uncontended monitor acquire/release. *)
val monitor_op : int

(** Call overhead (frame setup, dispatch). *)
val invoke : int

val field_access : int

val array_access : int

val static_access : int

(** Deoptimization: frame reconstruction plus interpreter transition. *)
val deopt : int

val compile_base : int

val compile_per_bytecode : int

(** [compile_latency ~bytecodes] — modeled cycles to run the JIT pipeline
    on a method of the given bytecode length. The VM charges it to
    {!Pea_rt.Stats.compile_stall_cycles} on the mutator at every
    compile. *)
val compile_latency : bytecodes:int -> int
