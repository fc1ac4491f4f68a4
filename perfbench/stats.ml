(* Statistics for the benchmark's reported numbers.

   A tail percentile is only reported when at least [min_beyond] samples
   lie beyond it, so a "p90" is never the second-largest of twenty
   numbers; callers size their runs with [samples_needed]. *)

let min_beyond = 10

let mean xs =
  if xs = [] then invalid_arg "Stats.mean: no samples";
  List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Interquartile mean: the mean of the middle half of the samples.  It
   ignores the slowest quarter, where a shared host's scheduling spikes
   land, and unlike a median it moves smoothly when the samples split
   between two speeds. *)
let iqm xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.iqm: no samples";
  let k = n / 4 in
  mean (Array.to_list (Array.sub a k (n - (2 * k))))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank position (1-based) of the p-th percentile of n samples.
   The small epsilon keeps p = 90, n = 100 at rank 90 despite the
   inexact product. *)
let rank ~p n =
  let r = int_of_float (Float.ceil ((p /. 100.0 *. float_of_int n) -. 1e-9)) in
  max 1 (min n r)

let beyond ~p n = n - rank ~p n

let samples_needed ~p =
  let rec go n = if beyond ~p n >= min_beyond then n else go (n + 1) in
  go 1

let tail ~p xs =
  let a = sorted xs in
  let n = Array.length a in
  let r = rank ~p n in
  if n = 0 || n - r < min_beyond then
    Error
      (Printf.sprintf "p%g of %d samples has %d beyond it; %d needed" p n
         (max 0 (n - r)) min_beyond)
  else Ok a.(r - 1)

(* Mean of the samples beyond the p-th percentile: a tail that moves
   smoothly, where the percentile itself jumps between the two speeds of
   a host that alternates between them. *)
let tail_mean ~p xs =
  let a = sorted xs in
  let n = Array.length a in
  let r = rank ~p n in
  if n = 0 || n - r < min_beyond then
    Error
      (Printf.sprintf "beyond p%g of %d samples are %d; %d needed" p n (max 0 (n - r))
         min_beyond)
  else Ok (mean (Array.to_list (Array.sub a r (n - r))))

(* Python's [statistics.quantiles(xs, n=4)] with its default
   'exclusive' method, so the spreads this benchmark reports match the
   ones computed from its output by a Python reader. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: fewer than two samples";
  let n = 4 and m = ld + 1 in
  List.map
    (fun i ->
      let j = i * m / n in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
      /. float_of_int n)
    [ 1; 2; 3 ]

(* Interquartile distance as a share of the median. *)
let spread xs =
  match quartiles xs with
  | [ q1; q2; q3 ] -> (q3 -. q1) /. q2
  | _ -> assert false
