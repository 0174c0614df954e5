(* The closed loop every workload runs in, and how its timings become
   end-to-end figures.

   The benchmark host is shared, and its speed drifts: a fixed compute
   kernel timed on it flips between two speeds about 1.5x apart many
   times a second, and the share of slow time changes over minutes, so
   whole runs of identical code differ by up to a fifth. The loop
   therefore times a fixed reference kernel — the benchmark's own code,
   never the library's — after every [probe_every_ns] of op time. A
   probe's host factor is its time over the kernel's time at full host
   speed ([full_speed_ns], measured once on the 2-vCPU development
   host). Each op's time is divided by the factor of the first probe
   after it, and each set-up by the mean factor of probes taken around
   and inside it. A figure then reads as the time at full host speed;
   the raw figures and the run's mean factor are printed beside them.

   Figures come from op time only: the benchmark's own output checks
   and probes run between ops, outside the clock. *)

(* --- host speed probe --- *)

(* Heapsort, bucket hashing and float arithmetic over preallocated
   arrays: 150 µs at full host speed (the 5th percentile of 20k calls on
   the development host). It allocates nothing, so its time tracks the
   host's speed, not the program's heap or its collections. *)
let ref_n = 640
let ref_keys = Array.make ref_n 0
let ref_buckets = Array.make 256 0.

let rec sift a i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && a.(l + 1) > a.(l) then l + 1 else l in
    if a.(c) > a.(i) then begin
      let t = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- t;
      sift a c n
    end
  end

let reference () =
  let a = ref_keys and b = ref_buckets in
  for i = 0 to ref_n - 1 do
    a.(i) <- i * 7919 mod 10007
  done;
  for i = (ref_n / 2) - 1 downto 0 do
    sift a i ref_n
  done;
  for n = ref_n - 1 downto 1 do
    let t = a.(0) in
    a.(0) <- a.(n);
    a.(n) <- t;
    sift a 0 n
  done;
  Array.fill b 0 256 0.;
  for i = 0 to ref_n - 1 do
    let k = ((a.(i) * 0x9E3779B1) lsr 7) land 255 in
    b.(k) <- b.(k) +. (float_of_int a.(i) /. 3.)
  done;
  let s = ref 0. in
  for k = 0 to 255 do
    s := !s +. sqrt b.(k)
  done;
  int_of_float !s

let full_speed_ns = 150_000.
let probe_every_ns = 10_000_000

(* the kernel's time at each probe, in order *)
type probes = { mutable ns : int array; mutable count : int; mutable since_ns : int }

let probes_create () = { ns = Array.make 256 0; count = 0; since_ns = 0 }

let probe p =
  let t0 = Trace.now_ns () in
  ignore (Sys.opaque_identity (reference ()));
  let t = Trace.now_ns () - t0 in
  if p.count = Array.length p.ns then p.ns <- Array.append p.ns (Array.make p.count 0);
  p.ns.(p.count) <- t;
  p.count <- p.count + 1;
  p.since_ns <- 0

let probe_sum_ns p = Array.fold_left ( + ) 0 (Array.sub p.ns 0 p.count)

let host_factor p =
  if p.count = 0 then 1. else float_of_int (probe_sum_ns p) /. float_of_int p.count /. full_speed_ns

(* [Stream]: ops consume a stream, input [j] is the j-th op. [Inputs n]:
   ops cycle through [n] seeded inputs. *)
type mode = Stream | Inputs of int

type ('ctx, 'r) spec = {
  mode : mode;
  span_names : string array;  (* the span kinds [op] and the hooks record *)
  trace_file : string;  (* where the traced run writes its spans *)
  tail_q : float;  (* the workload's fixed tail quantile *)
  setups : int;  (* set-ups per run; setup_s is their median *)
  heap_ops : int;
      (* heap_peak_mb is read after this many untraced ops (or at the end
         of a shorter phase), so it measures the same work however fast
         the ops run *)
  traced_ops : int;  (* length of the traced phase *)
  setup : tick:(unit -> unit) -> Trace.t -> 'ctx;
      (* [tick] is to be called often (per rendered line, generated input
         or warm-up op): it probes the host during the set-up. The span
         log is the run's one log, off until the traced phase. *)
  release : 'ctx -> unit;  (* frees a set-up that will not be measured *)
  op : 'ctx -> Trace.t -> int -> 'r option;
      (* the timed op on input [j]; [None] once a stream is exhausted *)
  verify : 'ctx -> int -> 'r -> int * bool;  (* untimed: units of work, output ok *)
  trace_hooks : 'ctx -> Trace.t -> (int -> 'r -> unit) * (ops:int -> (string * float) list);
      (* per-op observer of the traced phase, and its per-layer metrics *)
  final_check : 'ctx -> int * int;  (* after the timed phase: checks run, checks failed *)
}

(* Times at full host speed, except the [raw_] ones. *)
type result = {
  tail_q : float;
  host_factor : float;
  setup_s : float;
  raw_setup_s : float array;  (* every set-up of the run, in order *)
  setup_factors : float array;  (* the host factor of each set-up *)
  events_per_s : float;
  lat_p50_us : float;
  lat_tail_us : float;
  raw_events_per_s : float;
  raw_lat_p50_us : float;
  lat_profile : (float * float) list;  (* (quantile, µs at full host speed), for the report *)
  ops : int;
  exhausted : bool;  (* the untraced phase ran out of stream before its deadline *)
  heap_peak_mb : float;
  attempted : int;  (* ops of both phases plus output checks *)
  failed : int;
  layers : (string * float) list;  (* per-layer metrics; traced runs only *)
}

(* per-op log of one phase *)
type log = {
  mutable ns : int array;
  mutable at : int array;  (* per op: index of the first probe after it *)
  mutable n : int;
  mutable units : int;
  mutable failed : int;
  mutable heap_words : int;  (* top heap size when [n] reached [heap_ops] *)
  mutable exhausted : bool;  (* the stream ended before the phase did *)
}

let log_create () =
  {
    ns = Array.make 4096 0;
    at = Array.make 4096 0;
    n = 0;
    units = 0;
    failed = 0;
    heap_words = 0;
    exhausted = false;
  }

let log_add l ~ns ~at ~units =
  if l.n = Array.length l.ns then begin
    l.ns <- Array.append l.ns (Array.make l.n 0);
    l.at <- Array.append l.at (Array.make l.n 0)
  end;
  l.ns.(l.n) <- ns;
  l.at.(l.n) <- at;
  l.n <- l.n + 1;
  l.units <- l.units + units

let raw_ns l = Array.init l.n (fun i -> float_of_int l.ns.(i))

(* Op times at full host speed: each op is divided by the host factor
   of the first probe after it, at most [probe_every_ns] of op time
   later. The host changes speed many times a second, so this tracks
   it better than one factor for the whole run. *)
let full_speed_op_ns (l : log) (p : probes) =
  Array.init l.n (fun i -> float_of_int l.ns.(i) *. full_speed_ns /. float_of_int p.ns.(l.at.(i)))

let per_s units (ns : float array) =
  if Array.length ns = 0 then 0. else float_of_int units /. (Array.fold_left ( +. ) 0. ns /. 1e9)

(* Closed loop: the next op starts when the previous one (and its
   check) is done, until [deadline_ns], [max_ops] or the end of the
   stream. Returns the next op index. *)
let phase spec ctx tr log probes ~first ~deadline_ns ~max_ops ~on_op =
  let i = ref first and go = ref true in
  while !go do
    let j = match spec.mode with Stream -> !i | Inputs n -> !i mod n in
    incr i;
    Trace.next_op tr;
    let t0 = Trace.now_ns () in
    let r = spec.op ctx tr j in
    let t1 = Trace.now_ns () in
    (match r with
    | None ->
      log.exhausted <- true;
      go := false
    | Some r ->
      let units, ok = spec.verify ctx j r in
      log_add log ~ns:(t1 - t0) ~at:probes.count ~units;
      if log.n = spec.heap_ops then log.heap_words <- (Gc.quick_stat ()).Gc.top_heap_words;
      if not ok then log.failed <- log.failed + 1;
      on_op j r);
    probes.since_ns <- probes.since_ns + (t1 - t0);
    if probes.since_ns >= probe_every_ns then probe probes;
    if t1 >= deadline_ns || log.n >= max_ops then go := false
  done;
  (* every op of the phase has a probe after it *)
  if probes.since_ns > 0 then probe probes;
  !i

let run spec ~seconds ~traced : result =
  let tr = Trace.create spec.span_names in
  let probes = probes_create () in
  (* set up [setups] times and keep the last. Each set-up gets its own
     host factor, from probes on either side of it and every
     [probe_every_ns] inside it (through [tick]); the time of the
     probes inside is taken out of the set-up's time. *)
  let times = Array.make spec.setups 0. and factors = Array.make spec.setups 1. in
  let ctx = ref None in
  for k = 0 to spec.setups - 1 do
    (* a discarded set-up's garbage must not raise the next one's heap *)
    Option.iter
      (fun c ->
        spec.release c;
        ctx := None;
        Gc.full_major ())
      !ctx;
    let sp = probes_create () in
    let edge () = for _ = 1 to 8 do probe sp done in
    edge ();
    let outside = probe_sum_ns sp in
    let last = ref (Trace.now_ns ()) in
    let tick () =
      if Trace.now_ns () - !last >= probe_every_ns then begin
        probe sp;
        last := Trace.now_ns ()
      end
    in
    let t0 = Trace.now_ns () in
    ctx := Some (spec.setup ~tick tr);
    times.(k) <- float_of_int (Trace.now_ns () - t0 - (probe_sum_ns sp - outside)) /. 1e9;
    edge ();
    factors.(k) <- host_factor sp
  done;
  let ctx = Option.get !ctx in
  let span_ns = int_of_float (seconds *. 1e9) in
  (* a traced run: a traced phase of fixed length first, then an
     untraced phase of half the run as the overhead baseline *)
  let first, traced_phase =
    if not traced then (0, None)
    else begin
      let on_op, finish = spec.trace_hooks ctx tr in
      let log = log_create () in
      tr.Trace.on <- true;
      let next =
        phase spec ctx tr log probes ~first:0 ~deadline_ns:(Trace.now_ns () + (span_ns / 2))
          ~max_ops:spec.traced_ops ~on_op
      in
      tr.Trace.on <- false;
      Trace.write tr spec.trace_file;
      (next, Some (log, finish ~ops:log.n))
    end
  in
  let log = log_create () in
  let gc0 = Gc.quick_stat () in
  ignore
    (phase spec ctx tr log probes ~first
       ~deadline_ns:(Trace.now_ns () + if traced then span_ns / 2 else span_ns)
       ~max_ops:max_int ~on_op:(fun _ _ -> ()));
  let gc1 = Gc.quick_stat () in
  let heap_words = if log.heap_words > 0 then log.heap_words else gc1.Gc.top_heap_words in
  let checks, checks_failed = spec.final_check ctx in
  let h = host_factor probes in
  let raw = raw_ns log and full = full_speed_op_ns log probes in
  let us ns = Stats.sorted_copy (Array.map (fun x -> x /. 1e3) ns) in
  let lat = us full in
  let raw_p50 = Stats.quantile (us raw) 0.5 in
  let traced_ops, traced_failed =
    match traced_phase with None -> (0, 0) | Some (tlog, _) -> (tlog.n, tlog.failed)
  in
  let layers =
    match traced_phase with
    | None -> []
    | Some (tlog, layers) ->
      layers
      @ [
          ( "gc.minor_words_per_op",
            (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int (max 1 log.n) );
          ("gc.major_collections", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
          ("host.factor", h);
          ("host.raw_events_per_s", per_s log.units raw);
          ("host.raw_lat_p50_us", raw_p50);
          ( "trace.overhead_pct",
            let traced = per_s tlog.units (full_speed_op_ns tlog probes) in
            if traced > 0. then ((per_s log.units full /. traced) -. 1.) *. 100. else 0. );
        ]
  in
  {
    tail_q = spec.tail_q;
    host_factor = h;
    setup_s = Stats.median (Array.map2 ( /. ) times factors);
    raw_setup_s = times;
    setup_factors = factors;
    events_per_s = per_s log.units full;
    lat_p50_us = Stats.quantile lat 0.5;
    lat_tail_us = Stats.quantile lat spec.tail_q;
    raw_events_per_s = per_s log.units raw;
    raw_lat_p50_us = raw_p50;
    lat_profile = List.map (fun q -> (q, Stats.quantile lat q)) [ 0.5; 0.9; 0.95; 0.99 ];
    ops = log.n;
    exhausted = log.exhausted;
    heap_peak_mb = float_of_int (heap_words * (Sys.word_size / 8)) /. 1e6;
    attempted = traced_ops + log.n + checks;
    failed = traced_failed + log.failed + checks_failed;
    layers;
  }
