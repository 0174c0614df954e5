(* whatif-exact: the `mwct whatif --loadgen diurnal --exact` path. Set-up
   draws [nstreams] base streams with [Loadgen.generate] (the CLI's
   default 64 events, 4 tenants, capacity 4); each op is one
   [Branch.run] query with three branches — the straight line, a switch
   to DEQ, and tenant 1's load doubled — in a closed loop with one
   client. It is the workload that measures
   [Engine.snapshot]/[fork], branch replay and rational arithmetic on
   the generic engine path.

   Exact denominators grow at a rate that differs wildly between
   streams (one query can cost eight times another), so a run prices
   many streams: its figures then describe the pattern, not a few
   draws from it. *)

module F = Mwct_rational.Rational.Rat_field
module L = Mwct_runtime.Loadgen.Exact
module B = Mwct_runtime.Branch.Exact
module En = B.En
module P = Mwct_ncv.Policy.Make (F)

let events = 64
let tenants = 4
let nstreams = 512
let capacity = F.of_int 4

let k_run = 0
let k_fork = 1
let span_names = [| "branch.run"; "engine.fork" |]

let resolve name = Option.map P.engine_policy (P.of_name name)
let kinetic_for name = Option.bind (P.of_name name) P.engine_kinetic

let branches =
  List.map
    (fun s -> Result.get_ok (B.parse_spec s))
    [ "straight"; "policy-deq:policy=deq"; "scale-1-2:scale=1:2" ]

type ctx = {
  streams : En.event list array;
  forks : int array;  (* one fork point per stream *)
  generate_s : float;
}

let query ctx j =
  B.run ~resolve ~kinetic_for ~tenants ~capacity ~policy:"wdeq" ~events:ctx.streams.(j)
    ~fork_at:ctx.forks.(j) ~branches ()

(* [n] streams from [seed], with their fork points at the midpoints of
   eight strata of the stream, so every seed prices the same spread of
   prefix lengths *)
let draw seed n =
  let rng = Rng.create seed in
  let streams =
    Array.init n (fun _ ->
        L.generate ~pattern:L.Diurnal ~seed:(Rng.int rng 0 (1 lsl 30)) ~tenants ~events ())
  in
  let forks = Array.mapi (fun j s -> (((2 * (j mod 8)) + 1) * List.length s) / 16) streams in
  (streams, forks)

(* Warm-up streams come from a fixed seed: query costs vary a lot
   between streams, and seeded warm-up streams made set-up time a draw
   of the seed rather than a measure of the program. *)
let warm_seed = 0
let warm_queries = 16

let setup ~seed ~tick _tr =
  let t0 = Trace.now_ns () in
  let streams, forks = draw seed nstreams in
  let generate_s = float_of_int (Trace.now_ns () - t0) /. 1e9 in
  let warm =
    let streams, forks = draw warm_seed warm_queries in
    { streams; forks; generate_s }
  in
  for j = 0 to warm_queries - 1 do
    ignore (query warm j);
    tick ()
  done;
  { streams; forks; generate_s }

let op ctx tr j =
  Trace.enter tr k_run;
  let r = query ctx j in
  Trace.leave tr;
  Some r

(* Events applied across the baseline, prefix and branch engines; the
   straight-line branch must price ΔΣw·C = 0 exactly. *)
let verify ctx j (r : (B.report, string) result) =
  match r with
  | Ok rep ->
    let branch_events = List.fold_left (fun n (o : B.outcome) -> n + o.B.applied) 0 rep.B.branches in
    let straight_ok =
      match rep.B.branches with straight :: _ -> F.sign straight.B.d_wc = 0 | [] -> false
    in
    (List.length ctx.streams.(j) + ctx.forks.(j) + branch_events, straight_ok)
  | Error _ -> (0, false)

(* Snapshot + fork of an engine replayed to the query's fork point: the
   step of a query that [Branch.run] does not expose. Runs after the
   query, outside its timing; only the snapshot and fork are spanned. *)
let fork_probe ctx tr j =
  let eng =
    En.create ~capacity ~policy:(Option.get (resolve "wdeq")) ?kinetic:(kinetic_for "wdeq") ()
  in
  List.iteri (fun i ev -> if i < ctx.forks.(j) then ignore (En.apply eng ev)) ctx.streams.(j);
  Trace.enter tr k_fork;
  ignore (En.fork ?kinetic:(kinetic_for "wdeq") (En.snapshot eng));
  Trace.leave tr

let trace_hooks ctx tr =
  let replayed = ref 0 and repr_max = ref 0 in
  let on_op j r =
    replayed := !replayed + fst (verify ctx j r);
    (match r with
    | Ok rep ->
      List.iter
        (fun (o : B.outcome) -> repr_max := max !repr_max (String.length (F.repr o.B.sum_wc)))
        rep.B.branches;
      repr_max := max !repr_max (String.length (F.repr rep.B.baseline_wc))
    | Error _ -> ());
    fork_probe ctx tr j
  in
  let finish ~ops =
    [
      ("engine.fork_us", Trace.self_us_per tr k_fork ~per:ops);
      ("branch.run_busy_us", Trace.self_us_per tr k_run ~per:ops);
      ("branch.replayed_events", float_of_int !replayed /. float_of_int (max 1 ops));
      ("rational.repr_bytes_max", float_of_int !repr_max);
      ("loadgen.generate_s", ctx.generate_s);
    ]
  in
  (on_op, finish)

let spec ~seed ~out_dir : (ctx, (B.report, string) result) Harness.spec =
  {
    Harness.mode = Inputs nstreams;
    span_names;
    trace_file = Filename.concat out_dir "whatif-exact.trace.jsonl";
    tail_q = 0.90;
    setups = 5;
    heap_ops = 128;
    traced_ops = 64;
    setup = setup ~seed;
    release = ignore;
    op;
    verify;
    trace_hooks;
    final_check = (fun _ -> (0, 0));
  }
