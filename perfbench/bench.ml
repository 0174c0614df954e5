(* Repo benchmark: one seeded workload per process.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints a summary line per metric, then, as the last line, one JSON
   object {"correct", "attempted", "failed", "metrics"}. With --trace 0
   the metrics are the end-to-end ones, measured untraced; with
   --trace 1 they are the per-layer ones from a traced phase of fixed
   length, followed by an untraced phase of half the run that serves as
   the baseline of the trace overhead. Workload files (rendered streams,
   sink outputs, span logs) go to .bench_out/ under the working
   directory. See METRICS.md for what each workload and metric means. *)

let serve shape ~seed ~out_dir = Harness.run (Serve_load.spec shape ~seed ~out_dir)

let workloads =
  [
    ( "serve-wide",
      serve
        {
          Serve_load.name = "serve-wide";
          nshards = 1;
          tenants = 256;
          long_alive = 4000;
          (* capped by the float drain defect; see [Serve_load.shape] *)
          long_volume = 1024;
          curved_every = 0;
          record_journal = false;
          metrics_every = 0;
          steady_lines = 160_000;
          warm_lines = 2_000;
          traced_lines = 10_000;
          heap_lines = 40_000;
          tail_q = 0.99;
        } );
    ( "serve-tenants",
      serve
        {
          Serve_load.name = "serve-tenants";
          nshards = 4;
          tenants = 64;
          long_alive = 256;
          long_volume = 32768;
          curved_every = 4;
          record_journal = true;
          metrics_every = 1000;
          steady_lines = 1_000_000;
          warm_lines = 4_000;
          traced_lines = 50_000;
          heap_lines = 150_000;
          (* p95, not p99: every advance line wakes the Par worker domain,
             and the p99 of those wake-ups moved by 38% between hours of
             this shared host with the code unchanged *)
          tail_q = 0.95;
        } );
    ("batch-solve", fun ~seed ~out_dir -> Harness.run (Batch_load.spec ~seed ~out_dir));
    ("whatif-exact", fun ~seed ~out_dir -> Harness.run (Whatif_load.spec ~seed ~out_dir));
  ]

(* Per-layer metrics and their units; a layer a workload does not run
   reports 0. *)
let per_layer =
  [
    ("ingest.busy_us", "us");
    ("ingest.lines", "count");
    ("journal.parse_busy_us", "us");
    ("journal.out_lines", "count");
    ("journal.out_bytes", "bytes");
    ("output.busy_us", "us");
    ("shard.apply_busy_us", "us");
    ("shard.apply_p99_us", "us");
    ("shard.budget_lines", "count");
    ("engine.reshares", "count");
    ("engine.alloc_changes", "count");
    ("engine.reshares_per_event", "count");
    ("engine.alive_mean", "count");
    ("engine.fork_us", "us");
    ("branch.run_busy_us", "us");
    ("branch.replayed_events", "count");
    ("rational.repr_bytes_max", "bytes");
    ("loadgen.generate_s", "s");
    ("metrics.json_busy_us", "us");
    ("solver.solve_busy_us", "us");
    ("schedule.check_busy_us", "us");
    ("schedule.column_entries", "count");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections", "count");
    ("host.factor", "ratio");
    ("host.raw_events_per_s", "1/s");
    ("host.raw_lat_p50_us", "us");
    ("trace.overhead_pct", "%");
  ]

let usage () =
  prerr_endline
    ("usage: bench.exe --workload ("
    ^ String.concat "|" (List.map fst workloads)
    ^ ") --seed N --seconds S --trace 0|1");
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := Some v;
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      go rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      go rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some s, Some traced when s > 0. -> (
    match List.assoc_opt w workloads with
    | Some run -> (w, run, seed, s, traced)
    | None -> usage ())
  | _ -> usage ()

let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let () =
  let name, run, seed, seconds, traced = parse_args () in
  let out_dir = ".bench_out" in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let r : Harness.result = run ~seed ~out_dir ~seconds ~traced in
  let metrics =
    if traced then
      List.map
        (fun (m, unit) -> (m, Option.value (List.assoc_opt m r.layers) ~default:0., unit))
        per_layer
    else begin
      let fail_ratio = float_of_int r.failed /. float_of_int (max 1 r.attempted) in
      Printf.printf "# %s seed=%d: %d ops; lat_tail_us is the p%.0f of %d samples; fail_ratio %s\n"
        name seed r.ops (r.tail_q *. 100.) r.ops (json_num fail_ratio);
      Printf.printf "# mean host factor %s (times below are at full host speed); raw events_per_s %s, raw lat_p50_us %s\n"
        (json_num r.host_factor) (json_num r.raw_events_per_s) (json_num r.raw_lat_p50_us);
      if r.exhausted then
        Printf.printf "# the stream ran out before --seconds: the timed phase ended early\n";
      Printf.printf "# set-ups: raw s / host factor:%s\n"
        (String.concat ""
           (Array.to_list (Array.map2 (Printf.sprintf " %.4f/%.3f") r.raw_setup_s r.setup_factors)));
      Printf.printf "# latency profile (us at full host speed):%s\n"
        (String.concat ""
           (List.map (fun (q, v) -> Printf.sprintf " p%g %.1f" (q *. 100.) v) r.lat_profile));
      [
        ("setup_s", r.setup_s, "s");
        ("events_per_s", r.events_per_s, "1/s");
        ("lat_p50_us", r.lat_p50_us, "us");
        ("lat_tail_us", r.lat_tail_us, "us");
        ("heap_peak_mb", r.heap_peak_mb, "MB");
        ("ok_ratio", 1. -. fail_ratio, "ratio");
      ]
    end
  in
  List.iter (fun (m, v, unit) -> Printf.printf "# %-28s %s %s\n" m (json_num v) unit) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.failed = 0) (max 1 r.attempted) r.failed
    (String.concat ", "
       (List.map
          (fun (m, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m (json_num v) unit)
          metrics))
