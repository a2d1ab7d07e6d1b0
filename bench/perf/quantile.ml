(* Order statistics shared by the benchmark and the diff tool. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* [at q xs] is the q-quantile (0 <= q <= 1) by linear interpolation
   between the closest ranks. Raises [Invalid_argument] on an empty list. *)
let at q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Quantile.at: no samples";
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float pos in
  let hi = min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = at 0.5 xs

(* The highest quantile with at least ten samples beyond it, 1 - 10/n (the
   median when there are fewer than 20 samples): the tail a run of n
   samples can actually resolve. *)
let tail xs = at (Float.max 0.5 (1. -. (10. /. float_of_int (List.length xs)))) xs

(* The three quartile cut points exactly as Python's
   [statistics.quantiles(xs, n=4)] computes them (its default "exclusive"
   method), so the spreads this tool reports are the ones an external
   check of the same runs would compute. Needs at least two samples. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Quantile.quartiles: need two samples";
  let m = ld + 1 in
  let cut i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (cut 1, cut 2, cut 3)
