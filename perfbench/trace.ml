(* Monotonic clock and the in-memory span log of the traced run.

   A span records its kind, the op it belongs to (the spans of one op
   share the op id), its start and end on the ns monotonic clock and
   the index of its parent span. Spans are recorded only from the
   benchmark's own code, around its calls into the library's layers,
   and stay in memory until [write] dumps them after the run. A span's
   self time is its duration minus the time its child spans cover.

   With [on = false] (the untraced run) [enter]/[leave] return at once:
   end-to-end numbers always come from that mode. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  names : string array;  (* span kinds, indexed by the [kind] ints *)
  mutable on : bool;
  mutable op : int;
  mutable n : int;
  mutable kind : int array;
  mutable ops : int array;
  mutable parent : int array;  (* -1 for an op's root span *)
  mutable start : int array;
  mutable stop : int array;
  mutable self : int array;
  stack : int array;  (* open spans, innermost last *)
  child : int array;  (* per depth: ns covered by finished children *)
  mutable depth : int;
}

let create names =
  let cap = 1024 in
  {
    names;
    on = false;
    op = 0;
    n = 0;
    kind = Array.make cap 0;
    ops = Array.make cap 0;
    parent = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    self = Array.make cap 0;
    stack = Array.make 16 0;
    child = Array.make 17 0;
    depth = 0;
  }

let grow t =
  let g a = Array.append a (Array.make (Array.length a) 0) in
  t.kind <- g t.kind;
  t.ops <- g t.ops;
  t.parent <- g t.parent;
  t.start <- g t.start;
  t.stop <- g t.stop;
  t.self <- g t.self

let next_op t = t.op <- t.op + 1

let enter t k =
  if t.on then begin
    if t.n = Array.length t.kind then grow t;
    let i = t.n in
    t.n <- i + 1;
    t.kind.(i) <- k;
    t.ops.(i) <- t.op;
    t.parent.(i) <- (if t.depth = 0 then -1 else t.stack.(t.depth - 1));
    t.stack.(t.depth) <- i;
    t.depth <- t.depth + 1;
    t.child.(t.depth) <- 0;
    t.start.(i) <- now_ns ()
  end

let leave t =
  if t.on then begin
    let now = now_ns () in
    let i = t.stack.(t.depth - 1) in
    let dur = now - t.start.(i) in
    t.stop.(i) <- now;
    t.self.(i) <- dur - t.child.(t.depth);
    t.depth <- t.depth - 1;
    t.child.(t.depth) <- t.child.(t.depth) + dur
  end

(* Self times (µs) of every recorded span of kind [k]. *)
let self_us t k =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if t.kind.(i) = k then acc := (float_of_int t.self.(i) /. 1e3) :: !acc
  done;
  Array.of_list !acc

(* Total self time (µs) of kind [k] divided by [per]. *)
let self_us_per t k ~per =
  let s = ref 0 in
  for i = 0 to t.n - 1 do
    if t.kind.(i) = k then s := !s + t.self.(i)
  done;
  if per = 0 then 0. else float_of_int !s /. 1e3 /. float_of_int per

(* One JSON line per span. *)
let write t path =
  let oc = open_out path in
  for i = 0 to t.n - 1 do
    Printf.fprintf oc
      "{\"op\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"self_ns\":%d}\n"
      t.ops.(i) t.names.(t.kind.(i)) t.start.(i) t.stop.(i) t.parent.(i) t.self.(i)
  done;
  close_out oc
