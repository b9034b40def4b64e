(** The closure execution tier: one-time translation of an optimized IR
    graph into a tree of OCaml closures, and the only executor of
    compiled code.

    Every instruction becomes a pre-bound closure that tail-calls the
    next, so every block is one threaded chain; a control transfer calls
    its target's chain directly (through a per-graph table on a back
    edge), polling the CPU profiler's safepoint of each block it enters
    when the environment it was translated in carries a profiler (the
    test is of the profiler captured at translation: one load and
    compare when there is none); every [(pred, block)] edge with phis becomes a
    parallel move over the graph's {!Ir_exec.prepared} routing tables,
    every virtual call site a monomorphic inline cache, and register
    files are pooled across invocations.

    Registers are typed ({!plan}): int results live unboxed in an int
    file beside the value file and are boxed only where a value consumer
    reads them; constants are filled into the file when it is made and
    run no closure; an int comparison that only feeds its block's [If]
    becomes one compare-and-branch.

    Cost accounting ({!Stats.cycles}, {!Stats.compiled_ops}, bumped
    through counter cells resolved at translation) charges each
    instruction [Cost.compiled_op] plus its operation-specific cost, and
    each [If] one [Cost.compiled_op]. The charge of a constant, or of an
    int operation that cannot trap, rides on the next closure of its
    block that charges or on its terminator, so wherever the counters
    can be observed (an operation that can trap, call, allocate or
    deopt, a safepoint, a terminator) they read exactly the
    per-instruction totals, and safepoints are polled in the order the
    instructions reach them; how the closures are built is a wall-clock
    matter only and charges no model cycles. *)

open Pea_rt

(** {1 The translation's decisions} *)

(** Where a node's value lives in a register file. *)
type reg_kind =
  | R_value  (** a [Value.value] register, written when its node runs *)
  | R_int  (** an unboxed [int] register, written when its node runs *)
  | R_const
      (** a constant, filled in when a register file is made: an int
          constant into both files, any other into the value file *)
  | R_none
      (** no register: the node produces no value, is outside the
          reachable blocks, or is a comparison fused into its branch *)

type plan = {
  regs : reg_kind array;  (** per node id *)
  int_cmps : bool array;
      (** per node id: a [Cmp] compared as ints (false for [==] and [!=]
          on operands that may be booleans) *)
  fused : Pea_ir.Node.node_id option array;
      (** per block id: the [Cmp] the block's [If] is fused with *)
}

(** [plan g] is what the translation of [g] decides, as a pure function
    of the graph: [Arith] and [Neg] results are int registers; a phi is
    an int register when every input is statically an int (an
    optimistic fixpoint) and one of them is computed in the int file;
    constants are [R_const]; every other value is a value register. An
    int [Cmp] that is its block's last non-constant instruction and
    whose one use is the block's [If] is fused with it. *)
val plan : Pea_ir.Graph.t -> plan

(** [plan_to_string g p] renders [p] over [g]'s reachable blocks: each
    node's register kind, where int values are boxed or unboxed (value
    consumers, phi edges, deopt lookups), and each compare-and-branch. *)
val plan_to_string : Pea_ir.Graph.t -> plan -> string

(** {1 Translation and execution} *)

type code

(** [compile env p] translates the prepared graph [p] into closure form.
    [env] is captured: heap, globals, statics, the invoke/print hooks,
    the interpreter's receiver profile (used to seed the inline caches)
    and the instruments — the sampling profiler polled at safepoints,
    the heap profiler every allocation records into, the tracer that
    sees inline-cache transitions — each tested as a captured value.
    [p] is only read, so one prepared graph can back the translations of
    many VMs. The result is valid as long as the graph's compiled code
    is; the VM discards it on deoptimization. Terminators are read here,
    at translation time. *)
val compile : Interp.env -> Ir_exec.prepared -> code

(** [run code args] executes one invocation, using a pooled register
    file. The file is returned to the pool on normal return and on
    {!Interp.Mj_throw}. At a [Deopt] terminator, every int register the
    frame state names is boxed into the value file and
    {!Ir_exec.Deoptimize} propagates with the deopt record and a lookup
    into the file; the file goes with the exception's lookup and never
    returns to the pool.
    @raise Ir_exec.Deoptimize at [Deopt] terminators.
    @raise Interp.Trap on runtime faults. *)
val run : code -> Value.value list -> Value.value option

(** Number of free register files currently pooled (for tests). *)
val pool_depth : code -> int
