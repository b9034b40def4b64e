(** The instruments a VM watches itself with: a tracer, a sampling
    profiler, a heap profiler and a flight recorder, each optional.

    [Vm.create] takes them as optional arguments, wires the tracer's and
    the sampling profiler's clocks to its cycle counter, and carries them
    in its interpreter environment, from which the interpreter, the
    closure tier (which captures the tracer and the sampling profiler
    once, at translation), deoptimization and the JIT read them. Each
    has one feeder: the heap profiler is written only by the
    environment's heap ([Heap]), the flight recorder only dumps the
    VM's tracer. An environment that carries {!none} (the deopt oracle's
    shadow replay, a server's tenant VMs) is seen by no instrument. *)

type t = {
  trace : Trace.t option;
  cpu : Profile_cpu.t option;
  heap : Profile_heap.t option;
  flight : Flight.t option;
      (** triggers on incidents and dumps [trace], which [Vm.create]
          makes when it is handed a recorder but no tracer *)
}

val none : t
