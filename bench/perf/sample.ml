(* Clock and summary statistics shared by the workloads and --compare. *)

(* Monotonic wall clock in milliseconds (CLOCK_MONOTONIC via bechamel's
   stub). *)
let now_ms () = Int64.to_float (Monotonic_clock.now ()) /. 1e6

let time_ms f =
  let t0 = now_ms () in
  let x = f () in
  (x, now_ms () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* [quantile xs q] interpolates linearly between closest ranks, so
   [quantile xs 0.5] is the median and [quantile xs 0.9] the p90. *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Sample.quantile: empty sample";
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then a.(n - 1)
  else
    let frac = pos -. float_of_int i in
    a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* [quartiles xs] is [(q1, q3)] as Python's [statistics.quantiles xs ~n:4]
   computes them (the default "exclusive" method), so a spread this
   benchmark reports matches the one an outside checker computes. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Sample.quartiles: need two values";
  let m = ld + 1 in
  let cut i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
  in
  (cut 1, cut 3)

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean xs = exp (mean (List.map log xs))

let sum xs = List.fold_left ( +. ) 0. xs
