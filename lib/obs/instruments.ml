type t = {
  trace : Trace.t option;
  cpu : Profile_cpu.t option;
  heap : Profile_heap.t option;
  flight : Flight.t option;
}

let none = { trace = None; cpu = None; heap = None; flight = None }
