(* Host speed, for reading wall-clock times on a host whose speed drifts.

   On a shared 2-vCPU VM, stretches of seconds to minutes ran 1.2-1.6x
   slower than the rest, single-threaded code included, and a slow
   stretch often covered whole runs. No estimator over one run's own
   operation times can tell such a run from slower code. So every
   measured time is read against a fixed probe: a short loop of fixed
   work, independent of the code under test, timed right after an
   operation whenever [probe_every_ms] have passed since the last probe.
   A time [ms] is reported as [ms *. reference_ms /. k], where [k] is the
   median of the last [window] probe times: the time the work would have
   taken on this host at the speed where the probe takes [reference_ms].

   The probe imitates the memory traffic of allocation, which a slow
   stretch hits differently from arithmetic: it writes three words per
   step into a 2 MB buffer, the size of the minor heap, reused in a
   ring. It neither allocates nor calls into the repository's code, so
   the code under test and the garbage collector's work do not change
   its time. (A probe that allocated short-lived lists took 4x as long
   when the code around it had left collection work due; one of
   arithmetic alone over-corrected in slow stretches.) *)

let table = Array.make 4096 1

let nursery = Array.make (1 lsl 18) 0

(* About 0.4 ms: three stores into the ring per step, plus integer work
   on an L1-resident table. *)
let kernel () =
  let s = ref 0 and p = ref 0 in
  for i = 0 to 100_000 do
    let b = !p in
    nursery.(b) <- i;
    nursery.(b + 1) <- i + 1;
    nursery.(b + 2) <- i + 2;
    p := if b + 6 >= Array.length nursery then 0 else b + 3;
    let j = (i * 7919) land 4095 in
    table.(j) <- table.(j) + nursery.(b + 1) + (!s land 7);
    s := !s + table.((j * 31) land 4095)
  done;
  !s

(* The probe's time on the 2-vCPU VM the benchmark was built on at its
   faster speed, so normalized times read as milliseconds there. *)
let reference_ms = 0.42

let probe_every_ms = 50.

let window = 5

let recent = Queue.create ()

let last_probe = ref neg_infinity

let probe () =
  let (_ : int), ms = Sample.time_ms (fun () -> Sys.opaque_identity (kernel ())) in
  Queue.push ms recent;
  if Queue.length recent > window then ignore (Queue.pop recent);
  last_probe := Sample.now_ms ()

let maybe_probe () = if Sample.now_ms () -. !last_probe >= probe_every_ms then probe ()

(* [normalize ms] reads a time just measured against the latest probes. *)
let normalize ms =
  if Queue.is_empty recent then probe ();
  ms *. reference_ms /. Sample.median (List.of_seq (Queue.to_seq recent))
