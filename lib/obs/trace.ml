(* Bounded event ring buffer with pluggable sinks.

   A tracer is an argument of what it watches: the VM, the server, the
   JIT and the PEA pass take it as an option, and every emission site
   matches on that option before it builds an event, so a run with
   tracing off builds no event and, in particular, cannot perturb the
   deterministic counters. A tracer belongs to the domain that runs
   what it watches: nothing here is shared or locked.

   Determinism rules (see DESIGN.md section 4e):
   - timestamps come from an injected clock ([set_clock]), which
     [Vm.create] wires to the VM's cost-model cycle counter — never wall
     clock;
   - [seq] is a per-tracer monotone sequence number. Chrome output uses
     it as the [ts] logical clock (cycles are carried in [args]), since
     many events share one cycle value and viewers need distinct,
     ordered timestamps to lay spans out;
   - when the ring overflows, the oldest entries are dropped and
     counted, so a truncated trace is still deterministic. *)

type entry = { e_seq : int; e_cycles : int; e_event : Event.t }

type t = {
  capacity : int;
  buf : entry array;
  mutable len : int;
  mutable next : int; (* ring write index *)
  mutable seq : int;
  mutable n_dropped : int;
  mutable clock : unit -> int;
}

let default_capacity = 65536

let dummy = { e_seq = -1; e_cycles = 0; e_event = Event.Compile_start { meth = ""; opt = "" } }

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  {
    capacity;
    buf = Array.make capacity dummy;
    len = 0;
    next = 0;
    seq = 0;
    n_dropped = 0;
    clock = (fun () -> 0);
  }

let set_clock t f = t.clock <- f

let emit t ev =
  let e = { e_seq = t.seq; e_cycles = t.clock (); e_event = ev } in
  t.seq <- t.seq + 1;
  t.buf.(t.next) <- e;
  t.next <- (t.next + 1) mod t.capacity;
  if t.len < t.capacity then t.len <- t.len + 1 else t.n_dropped <- t.n_dropped + 1

let entries t =
  (* oldest first *)
  let start = (t.next - t.len + t.capacity) mod t.capacity in
  List.init t.len (fun i -> t.buf.((start + i) mod t.capacity))

let length t = t.len

let dropped t = t.n_dropped

let clear t =
  t.len <- 0;
  t.next <- 0;
  t.seq <- 0;
  t.n_dropped <- 0

let span trace ~meth phase f =
  match trace with
  | None -> f ()
  | Some t ->
      emit t (Event.Phase_start { meth; phase });
      Fun.protect ~finally:(fun () -> emit t (Event.Phase_end { meth; phase })) f

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

type format = Jsonl | Chrome

let parse_format = function
  | "jsonl" -> Some Jsonl
  | "chrome" -> Some Chrome
  | _ -> None

let jsonl_line e =
  Json.obj
    (Json.int_field "seq" e.e_seq
    :: Json.int_field "cycles" e.e_cycles
    :: Json.str_field "ev" (Event.name e.e_event)
    :: Event.fields e.e_event)

let jsonl_string t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (jsonl_line e);
      Buffer.add_char buf '\n')
    (entries t);
  Buffer.contents buf

let chrome_record e =
  let ph, extra =
    match Event.span_kind e.e_event with
    | `Begin -> ("B", [])
    | `End -> ("E", [])
    | `Instant -> ("i", [ Json.str_field "s" "t" ])
  in
  let args = Json.int_field "cycles" e.e_cycles :: Event.fields e.e_event in
  Json.obj
    ([
       Json.str_field "name" (Event.chrome_name e.e_event);
       Json.str_field "cat" "mjvm";
       Json.str_field "ph" ph;
       Json.int_field "pid" 1;
       Json.int_field "tid" 1;
       (* logical clock: seq, not cycles — see the determinism rules *)
       Json.int_field "ts" e.e_seq;
     ]
    @ extra
    @ [ ("args", Json.obj args) ])

let chrome_string t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n";
      Buffer.add_string buf (chrome_record e))
    (entries t);
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ns\"}\n";
  Buffer.contents buf

let to_string fmt t = match fmt with Jsonl -> jsonl_string t | Chrome -> chrome_string t

let write fmt t oc = output_string oc (to_string fmt t)
