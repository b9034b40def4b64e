(* What every workload shares: its inputs, operation ids, the split of a
   traced run into traced and untraced halves, and the set-up timer. *)

type ctx = {
  seed : int;
  seconds : float; (* wall time of the measured loop *)
  tracer : Span.t option; (* [Some _] in a traced run *)
  corrupt : bool; (* falsify one expected value (the gate's own test) *)
}

(* Hard cap on a run's wall time, whatever its minimum operation counts
   ask for, so a slow host still ends a run well inside its limit. *)
let max_run_ms = 120_000.

let started_ms = Sample.now_ms ()

let over_budget () = Sample.now_ms () -. started_ms > max_run_ms

(* A measured loop begun at [start] goes on until its minimum number of
   operations is done ([min_done]), then until [ctx.seconds] of wall time
   have passed or the run's cap is reached. *)
let measuring ctx ~start ~min_done =
  (not min_done) || (Sample.now_ms () -. start < ctx.seconds *. 1000. && not (over_budget ()))

let next_op = ref 0

let fresh_op () =
  incr next_op;
  !next_op

(* In a traced run every other operation runs untraced; the ratio of
   the two halves is the tracing overhead. *)
let tracer_for ctx i = if i mod 2 = 0 then ctx.tracer else None

let traced tr = Option.is_some tr

(* Times one operation under its "op" span; the time is normalized to
   the host's speed ({!Host}). *)
let timed_op tr ~op f =
  let x, ms = Sample.time_ms (fun () -> Span.with_span tr Span.op_name ~op f) in
  Host.maybe_probe ();
  (x, Host.normalize ms)

(* Times one set-up, normalized to the host's speed probed right before
   and right after it. *)
let timed_setup f =
  Host.probe ();
  let x, ms = Sample.time_ms f in
  Host.probe ();
  (x, Host.normalize ms)

(* [wall ~median ~units ~ms ops] are a run's [op_ms_p50_norm] and
   [units_per_s_norm] over its operations [ops]: [median] summarizes the
   operations, [units] and [ms] are one operation's. *)
let wall ~median ~units ~ms ops =
  [
    ("op_ms_p50_norm", median ops);
    ("units_per_s_norm", 1000. *. Sample.sum (List.map units ops) /. Sample.sum (List.map ms ops));
  ]

(* Set-up is repeated and its median reported, so one slow repetition
   does not read as work moved into set-up. *)
let setup_repeats = 5

(* [setup f] runs [f ~last] [setup_repeats] times and returns the last
   result with the median set-up time in seconds; [last] marks the
   repetition whose result is kept (and traced). *)
let setup f =
  let rec go i acc =
    let last = i = setup_repeats in
    let x, ms = timed_setup (fun () -> f ~last) in
    if last then (x, Sample.median (ms :: acc) /. 1000.) else go (i + 1) (ms :: acc)
  in
  go 1 []

(* Checks counted into a run's [attempted] and [failed]. *)
type tally = { mutable attempted : int; mutable failed : int; mutable corrupt_left : bool }

let tally ctx = { attempted = 0; failed = 0; corrupt_left = ctx.corrupt }

(* [expect t want] is [want], falsified once if the run was asked to
   corrupt a reference value. *)
let expect t want =
  if t.corrupt_left then (
    t.corrupt_left <- false;
    Reference.corrupt want)
  else want

let check t ~got ~want =
  t.attempted <- t.attempted + 1;
  if got <> expect t want then t.failed <- t.failed + 1

let outcome t ~ops metrics = { Outcome.ops; attempted = t.attempted; failed = t.failed; metrics }

(* The per-layer result of a traced run: [agg] summarizes a list of
   operation samples into the workload's median operation time, applied
   to each half of the run for the overhead. *)
let layer_outcome t tr ~agg ~samples ~extra =
  let traced_ms = List.filter_map (fun (tr, x) -> if tr then Some x else None) samples in
  let plain_ms = List.filter_map (fun (tr, x) -> if tr then None else Some x) samples in
  outcome t ~ops:(List.length samples) (Outcome.layers tr ~overhead:(agg traced_ms /. agg plain_ms) ~extra)
