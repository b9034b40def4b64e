(** The instruments a VM watches itself with: a tracer, a sampling
    profiler, a heap profiler and a flight recorder, each optional.

    [Vm.create] and [Server.create] take them as optional arguments and
    the VM carries them in its interpreter environment, from which the
    interpreter, the closure tier (which captures them once, at
    translation), deoptimization and the JIT read them. An environment
    that carries {!none} (the deopt oracle's shadow replay, a threaded
    server's tenant VMs) is seen by no instrument. *)

type t = {
  trace : Trace.t option;
  cpu : Profile_cpu.t option;
  heap : Profile_heap.t option;
  flight : Flight.t option;
      (** triggers on incidents; its ring is the VM's tracer *)
}

val none : t
