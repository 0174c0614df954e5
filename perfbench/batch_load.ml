(* batch-solve: the `mwct solve` path, one [Driver.run] of the registry's
   wdeq solver per op on seeded [Generator.uniform] instances, float
   field, in a closed loop with one client. It runs no runtime layer:
   it is the control for serve-only changes.

   The pool holds [per_size] instances of each entry of [sizes], so
   every seed runs the same size mix and only instance contents vary;
   512 holds more than half of the pool, so the median sits inside one
   size class rather than on the boundary between two, and the p90 tail
   inside the 1024 class. *)

module G = Mwct_workload.Generator
module O = Mwct_check.Differential.Of
module Dr = Mwct_solver.Driver.Make (O.F)

let sizes = [| 128; 512; 256; 512; 1024; 512; 512 |]
let per_size = 16
let procs = 16

let span_names = [| "driver.run" |]

type ctx = { solver : Dr.S.t; insts : Dr.E.Types.instance array }

let setup ~seed ~tick _tr =
  let rng = Mwct_util.Rng.create seed in
  let insts =
    Array.init (per_size * Array.length sizes) (fun i ->
        tick ();
        Dr.E.Instance.of_spec (G.uniform rng ~procs ~n:sizes.(i mod Array.length sizes) ()))
  in
  let solver = Option.get (Dr.S.find "wdeq") in
  (* warm-up: one run of each size *)
  Array.iteri
    (fun i inst ->
      if i < Array.length sizes then begin
        ignore (Dr.run solver inst);
        tick ()
      end)
    insts;
  { solver; insts }

let op ctx tr j =
  Trace.enter tr 0;
  let r = Dr.run ctx.solver ctx.insts.(j) in
  Trace.leave tr;
  Some r

(* Verdict Ok, and the objective within Theorem 4's bound. *)
let verify ctx j (r : Dr.report) =
  let inst = ctx.insts.(j) in
  let thm4 =
    match O.thm4.O.check { O.solver = ctx.solver; inst; schedule = r.Dr.schedule; meta = r.Dr.meta } with
    | Mwct_check.Oracle.Pass -> true
    | Skip _ | Fail _ -> false
  in
  (Array.length inst.Dr.E.Types.tasks, Dr.valid r && thm4)

(* The report's own solve timing splits [Driver.run] into the solve
   ([Wdeq.simulate]) and the rest ([Schedule.check], [Lower_bounds]). *)
let trace_hooks _ctx tr =
  let solve_s = ref 0. and entries = ref 0 in
  let on_op _ (r : Dr.report) =
    solve_s := !solve_s +. r.Dr.elapsed_s;
    entries :=
      Array.fold_left (fun n col -> n + List.length col) !entries r.Dr.schedule.Dr.E.Types.columns
  in
  let finish ~ops =
    let per_op x = x /. float_of_int (max 1 ops) in
    let solve_us = per_op (!solve_s *. 1e6) in
    [
      ("solver.solve_busy_us", solve_us);
      ("schedule.check_busy_us", Trace.self_us_per tr 0 ~per:ops -. solve_us);
      ("schedule.column_entries", per_op (float_of_int !entries));
    ]
  in
  (on_op, finish)

let spec ~seed ~out_dir : (ctx, Dr.report) Harness.spec =
  {
    Harness.mode = Inputs (per_size * Array.length sizes);
    span_names;
    trace_file = Filename.concat out_dir "batch-solve.trace.jsonl";
    tail_q = 0.90;
    setups = 5;
    heap_ops = per_size * Array.length sizes;
    traced_ops = 2 * Array.length sizes;
    setup = setup ~seed;
    release = ignore;
    op;
    verify;
    trace_hooks;
    final_check = (fun _ -> (0, 0));
  }
