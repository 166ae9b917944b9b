(* Order statistics over latency samples.  Percentiles interpolate
   linearly between closest ranks (the numpy / R type-7 rule), so the
   median of an even-sized sample is the mean of the middle pair. *)

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  let s = sorted a in
  let h = float_of_int (n - 1) *. p /. 100.0 in
  let i = int_of_float h in
  if i >= n - 1 then s.(n - 1) else s.(i) +. ((h -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median a = percentile a 50.0

let mean a =
  if Array.length a = 0 then invalid_arg "Stats.mean: empty sample";
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* [num / den], 0 when nothing was attempted *)
let ratio num den = if den = 0.0 then 0.0 else num /. den
