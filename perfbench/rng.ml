(* SplitMix64: the benchmark draws its own inputs from the seed it is
   given, so the library under test only ever sees generated data. *)

type t = { mutable state : int64 }

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix (Int64.of_int seed) }

let next t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  mix t.state

(* Draw in [lo, hi], inclusive. *)
let int t lo hi = lo + (Int64.to_int (Int64.shift_right_logical (next t) 2) mod (hi - lo + 1))
