(* Deterministic sampling profiler driven by the VM cycle clock.

   A conventional profiler samples on a wall-clock timer, so two runs of
   the same program produce different profiles. This one samples on the
   cost-model cycle counter instead: a sample is taken at the first
   safepoint at or after every [interval]-cycle grid point. Safepoints
   are the interpreter dispatch loop and, in compiled code, the entry of
   each block (polled by the control transfer into it), so the sample
   stream, and therefore the whole profile, is a pure
   function of the executed program: byte identical across runs.

   Attribution is (method, tier, bci bucket) at the sample's leaf plus
   the full call stack above it. The stack is a shadow stack maintained
   by the VM (pushed at interpreter/compiled method entry, truncated on
   exit and on deoptimization), not the OCaml stack, so capture is an
   [Array.sub] with no unwinding.

   Cost discipline: like {!Trace}, a profiler is an argument of the VM it
   watches, which hands it to the interpreter and the closure tier as an
   option; every instrumentation site matches on that option, so a VM
   with profiling off pays one load and compare per safepoint and
   nothing else. The profiler only ever *reads* the cycle
   clock; it never touches {!Stats} counters, so profiling on cannot
   drift any deterministic counter ("heisenbug-free" sampling). *)

type tier =
  | T_interp
  | T_jit (* normal-entry compiled code *)
  | T_osr (* compiled code entered at a loop header *)

let tier_string = function T_interp -> "interp" | T_jit -> "jit" | T_osr -> "osr"

type frame = { fr_mid : int; fr_tier : tier }

(* One collapsed stack: frames outermost first, plus the leaf's bci
   bucket (the first bci of an 8-wide bucket; -1 when the leaf safepoint
   has no bytecode position). *)
type sample_key = { sk_frames : frame array; sk_bci : int }

type t = {
  interval : int;
  mutable clock : unit -> int;
  mutable next_due : int; (* next grid point, in clock cycles *)
  mutable stack : frame array; (* shadow stack; [depth] live entries *)
  mutable depth : int;
  samples : (sample_key, int ref) Hashtbl.t; (* key -> weight *)
  mutable n_samples : int; (* total weight across [samples] *)
}

let default_interval = 1024

let bucket_width = 8

let bucket bci = if bci < 0 then -1 else bci - (bci mod bucket_width)

let no_frame = { fr_mid = -1; fr_tier = T_interp }

let create ?(interval = default_interval) () =
  if interval <= 0 then invalid_arg "Profile_cpu.create: interval must be positive";
  {
    interval;
    clock = (fun () -> 0);
    next_due = interval;
    stack = Array.make 64 no_frame;
    depth = 0;
    samples = Hashtbl.create 256;
    n_samples = 0;
  }

(* Wiring a clock restarts the sampling grid at [interval]: every VM
   starts its cycle counter at zero, so per-VM profiles stay on the same
   grid no matter how many VMs ran before under the same profiler. *)
let set_clock t f =
  t.clock <- f;
  t.next_due <- t.interval

let interval t = t.interval

let total_weight t = t.n_samples

let clear t =
  Hashtbl.reset t.samples;
  t.n_samples <- 0;
  t.depth <- 0;
  t.next_due <- t.interval

(* ------------------------------------------------------------------ *)
(* Shadow stack                                                        *)
(* ------------------------------------------------------------------ *)

let push t mid tier =
  if t.depth = Array.length t.stack then begin
    let bigger = Array.make (2 * t.depth) no_frame in
    Array.blit t.stack 0 bigger 0 t.depth;
    t.stack <- bigger
  end;
  t.stack.(t.depth) <- { fr_mid = mid; fr_tier = tier };
  t.depth <- t.depth + 1

(* [depth t] / [truncate t d] bracket a frame: the VM records the depth
   before pushing and truncates back to it on every exit path (normal
   return, MJ exception, trap, deoptimization), so an unwound frame can
   never linger on the shadow stack. Truncation is idempotent. *)
let depth t = t.depth

let truncate t d = if t.depth > d && d >= 0 then t.depth <- d

(* ------------------------------------------------------------------ *)
(* Sampling                                                            *)
(* ------------------------------------------------------------------ *)

(* The clock advances in uneven jumps (an allocation charges tens of
   cycles at once), so one safepoint can cross several grid points. The
   sample is weighted by the number of points crossed: total weight
   stays proportional to elapsed cycles and the grid never slips. *)
let sample t now =
  let crossed = ((now - t.next_due) / t.interval) + 1 in
  t.next_due <- t.next_due + (t.interval * crossed);
  crossed

let record t key weight =
  (match Hashtbl.find_opt t.samples key with
  | Some r -> r := !r + weight
  | None -> Hashtbl.replace t.samples key (ref weight));
  t.n_samples <- t.n_samples + weight

(* [poll t bci] — the safepoint hook. *)
let poll t bci =
  let now = t.clock () in
  if now >= t.next_due then begin
    let weight = sample t now in
    let key = { sk_frames = Array.sub t.stack 0 t.depth; sk_bci = bucket bci } in
    record t key weight
  end

(* ------------------------------------------------------------------ *)
(* Readout                                                             *)
(* ------------------------------------------------------------------ *)

(* Deterministic iteration: keys sorted by stack (method ids, tiers)
   then leaf bucket, independent of hash order. *)
let sorted_samples t =
  Hashtbl.fold (fun k w acc -> (k, !w) :: acc) t.samples []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let fold f t init =
  List.fold_left (fun acc (k, w) -> f ~frames:k.sk_frames ~bci:k.sk_bci ~weight:w acc) init
    (sorted_samples t)
