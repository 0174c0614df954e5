(* Order statistics over measured samples. *)

(* [q]-quantile of an ascending array, interpolating linearly between
   the two closest ranks. *)
let quantile (sorted : float array) (q : float) : float =
  let n = Array.length sorted in
  if n = 0 then nan
  else if n = 1 then sorted.(0)
  else begin
    let h = q *. float_of_int (n - 1) in
    let lo = min (n - 2) (int_of_float h) in
    sorted.(lo) +. ((h -. float_of_int lo) *. (sorted.(lo + 1) -. sorted.(lo)))
  end

let sorted_copy (a : float array) =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median (a : float array) = quantile (sorted_copy a) 0.5
