(* Tests for the sharded store (lib/runtime/shard.ml) and its support
   modules: the replay oracles of Mwct_check.Shard_check on random
   tenant streams (both fields, both routings), the single-shard
   byte-identity shim, engine set_capacity/next_eta/Advance_to, the Par
   fork-join shim, the Ingest chunked reader, and the metrics latency
   histogram. *)

module Rng = Mwct_util.Rng

let seeds = [ 1; 7; 42; 1234; 20120515 ]

let run_oracle name check =
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let draw lo hi = Rng.int_in rng lo hi in
      match check draw with
      | Ok () -> ()
      | Error msg -> Alcotest.fail (Printf.sprintf "%s (seed %d): %s" name seed msg))
    seeds

(* ---------- replay oracles, both fields ---------- *)

module CF = Mwct_check.Shard_check.Float
module CX = Mwct_check.Shard_check.Exact

let test_single_identity_float () =
  run_oracle "single-identity float" (fun draw -> CF.check_single_identity draw ~len:60)

let test_single_identity_exact () =
  run_oracle "single-identity exact" (fun draw -> CX.check_single_identity draw ~len:40)

let test_shard_replay_float_mod () =
  run_oracle "shard-replay float mod" (fun draw ->
      CF.check_shard_replay draw ~nshards:3 ~route:CF.St.Mod ~len:60)

let test_shard_replay_float_hash () =
  run_oracle "shard-replay float hash" (fun draw ->
      CF.check_shard_replay draw ~nshards:4 ~route:CF.St.Hash ~len:60)

let test_shard_replay_exact () =
  run_oracle "shard-replay exact" (fun draw ->
      CX.check_shard_replay draw ~nshards:3 ~route:CX.St.Mod ~len:40)

let test_merged_determinism_float () =
  run_oracle "merged-determinism float" (fun draw ->
      CF.check_merged_determinism draw ~nshards:3 ~route:CF.St.Hash ~len:60)

let test_merged_determinism_exact () =
  run_oracle "merged-determinism exact" (fun draw ->
      CX.check_merged_determinism draw ~nshards:2 ~route:CX.St.Mod ~len:30)

let test_flat_agreement_float () =
  run_oracle "flat-agreement float" (fun draw ->
      CF.check_flat_agreement draw ~nshards:4 ~route:CF.St.Mod ~len:60)

let test_flat_agreement_exact () =
  run_oracle "flat-agreement exact" (fun draw ->
      CX.check_flat_agreement draw ~nshards:3 ~route:CX.St.Hash ~len:30)

(* Same oracles over dependency streams: dormant routing (a dependent
   lands on its first parent's shard), activation on completion
   notifications, and cascade cancels must all keep the journals
   byte-replayable. *)
let test_dag_single_identity_float () =
  run_oracle "dag single-identity float" (fun draw ->
      CF.check_single_identity ~deps:true draw ~len:60)

let test_dag_shard_replay_float () =
  run_oracle "dag shard-replay float" (fun draw ->
      CF.check_shard_replay ~deps:true draw ~nshards:3 ~route:CF.St.Mod ~len:60)

let test_dag_shard_replay_exact () =
  run_oracle "dag shard-replay exact" (fun draw ->
      CX.check_shard_replay ~deps:true draw ~nshards:3 ~route:CX.St.Hash ~len:40)

let test_dag_merged_determinism_float () =
  run_oracle "dag merged-determinism float" (fun draw ->
      CF.check_merged_determinism ~deps:true draw ~nshards:4 ~route:CF.St.Hash ~len:60)

let test_dag_flat_agreement_float () =
  run_oracle "dag flat-agreement float" (fun draw ->
      CF.check_flat_agreement ~deps:true draw ~nshards:4 ~route:CF.St.Mod ~len:60)

(* ---------- engine: set_capacity / next_eta / Advance_to ---------- *)

module En = Mwct_runtime.Engine.Float
module P = Mwct_ncv.Policy.Make (Mwct_field.Field.Float_field)

let wdeq = P.engine_policy P.Wdeq
let ok = function Ok x -> x | Error e -> Alcotest.fail (En.error_to_string e)

let submit eng ~id ~volume ~weight ~cap =
  ignore
    (ok (En.apply eng (En.Submit { id; volume; weight; cap; speedup = None; deps = [] })))

let test_set_capacity () =
  let eng = En.create ~capacity:4. ~policy:wdeq () in
  Alcotest.(check bool) "same capacity is a no-op" false (En.set_capacity eng 4.);
  Alcotest.(check bool) "change reported" true (En.set_capacity eng 2.5);
  Alcotest.(check (float 0.)) "capacity updated" 2.5 (En.capacity eng);
  Alcotest.(check bool) "zero is legal" true (En.set_capacity eng 0.);
  (match En.set_capacity eng (-1.) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative capacity accepted");
  (* a starved engine reports no next completion, and drain deadlocks *)
  submit eng ~id:0 ~volume:2. ~weight:1. ~cap:1.;
  Alcotest.(check bool) "starved: no eta" true (En.next_eta eng = None);
  (match En.apply eng En.Drain with
  | Error (En.Invalid _) -> ()
  | _ -> Alcotest.fail "drain under zero capacity should deadlock");
  ignore (En.set_capacity eng 4.);
  Alcotest.(check bool) "re-budgeted: eta back" true (En.next_eta eng <> None)

let test_advance_to () =
  let mk () =
    let eng = En.create ~capacity:4. ~policy:wdeq () in
    submit eng ~id:0 ~volume:2. ~weight:1. ~cap:1.;
    submit eng ~id:1 ~volume:8. ~weight:2. ~cap:4.;
    eng
  in
  let a = mk () and b = mk () in
  let notes_a = ok (En.apply a (En.Advance 1.5)) in
  let notes_b = ok (En.apply b (En.Advance_to 1.5)) in
  Alcotest.(check bool) "same completions" true (notes_a = notes_b);
  Alcotest.(check string) "same state" (En.dump a) (En.dump b);
  (match En.apply a (En.Advance_to 1.0) with
  | Error (En.Invalid _) -> ()
  | _ -> Alcotest.fail "advance_to into the past accepted");
  (* landing exactly on the target, not accumulating *)
  ignore (ok (En.apply a (En.Advance_to 1.5)));
  Alcotest.(check (float 0.)) "idempotent target" 1.5 (En.now a)

(* ---------- Par ---------- *)

module Par = Mwct_runtime.Par

let test_par_run () =
  let pool = Par.create 8 in
  let hits = Array.make 8 0 in
  Par.run pool (fun i -> hits.(i) <- hits.(i) + 1);
  Alcotest.(check (list int)) "each index once" (List.init 8 (fun _ -> 1)) (Array.to_list hits);
  (* exceptions surface after the barrier and the pool survives *)
  (match Par.run pool (fun i -> if i = 3 then failwith "boom") with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "exception swallowed");
  Par.run pool (fun i -> hits.(i) <- hits.(i) + 1);
  Alcotest.(check int) "pool usable after exception" 2 hits.(0);
  Par.shutdown pool;
  Par.shutdown pool;
  (* idempotent *)
  Par.run pool (fun i -> hits.(i) <- hits.(i) + 1);
  Alcotest.(check int) "sequential fallback after shutdown" 3 hits.(7)

(* ---------- Ingest ---------- *)

module Ingest = Mwct_runtime.Ingest

let with_temp_file content f =
  let path = Filename.temp_file "mwct_ingest" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc content);
      In_channel.with_open_bin path (fun ic -> f (Ingest.create ic)))

let read_all r =
  let rec go acc = match Ingest.next_line r with None -> List.rev acc | Some l -> go (l :: acc) in
  go []

let test_ingest_lines () =
  with_temp_file "a\nbb\n\nccc\n" (fun r ->
      Alcotest.(check (list string)) "terminated lines" [ "a"; "bb"; ""; "ccc" ] (read_all r));
  with_temp_file "tail without newline" (fun r ->
      Alcotest.(check (list string)) "unterminated tail" [ "tail without newline" ] (read_all r));
  with_temp_file "" (fun r -> Alcotest.(check (list string)) "empty stream" [] (read_all r));
  (* lines crossing the 64KiB chunk boundary *)
  let long = String.make 100_000 'x' in
  let content = long ^ "\nshort\n" ^ long in
  with_temp_file content (fun r ->
      Alcotest.(check (list string)) "chunk-crossing lines" [ long; "short"; long ] (read_all r))

(* ---------- metrics latency histogram ---------- *)

module M = Mwct_runtime.Metrics.Make (Mwct_field.Field.Float_field)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_latency_histogram () =
  let m = M.create () in
  Alcotest.(check bool) "no data: no quantile" true (M.latency_quantile m 0.5 = None);
  let json_no_lat = M.to_json ~alive:0 ~now:0. m in
  Alcotest.(check bool) "no data: no lat fields" false (contains json_no_lat "lat_p50_us");
  (* 100 observations at ~1us, 10 at ~1ms, 1 at ~1s *)
  for _ = 1 to 100 do
    M.observe_latency m 1e-6
  done;
  for _ = 1 to 10 do
    M.observe_latency m 1e-3
  done;
  M.observe_latency m 1.0;
  let q p = match M.latency_quantile m p with Some v -> v | None -> Alcotest.fail "no quantile" in
  Alcotest.(check bool) "p50 ~ 1us" true (q 0.5 >= 1. && q 0.5 <= 4.);
  Alcotest.(check bool) "p99 ~ 1ms" true (q 0.99 >= 500. && q 0.99 <= 4000.);
  Alcotest.(check bool) "p999 ~ 1s" true (q 0.999 >= 500_000.);
  Alcotest.(check bool) "quantiles monotone" true (q 0.5 <= q 0.9 && q 0.9 <= q 0.99);
  let json = M.to_json ~alive:0 ~now:0. m in
  Alcotest.(check bool) "lat fields present" true (contains json "lat_p50_us");
  Alcotest.(check bool) "lat count present" true (contains json "\"lat_events\":111");
  (* lat_count keys the snapshot memo: a fresh observation must change
     equality, so the memoized json is invalidated *)
  let before = M.copy m in
  Alcotest.(check bool) "copy equal" true (M.equal before m);
  M.observe_latency m 1e-6;
  Alcotest.(check bool) "observation breaks equality" false (M.equal before m)

(* A copy owns its histogram: observations on it (a forked engine's
   metrics) leave the source's count and quantiles as they were. The
   copy's observations land in lower buckets than the source's, so a
   shared bucket array would drag the source's quantiles down. *)
let test_copy_isolates_latency () =
  let m = M.create () in
  for _ = 1 to 10 do
    M.observe_latency m 1.0
  done;
  let quantiles m = List.map (M.latency_quantile m) [ 0.5; 0.9; 0.99 ] in
  let count0 = m.M.lat_count and q0 = quantiles m in
  let c = M.copy m in
  for _ = 1 to 100 do
    M.observe_latency c 1e-6
  done;
  Alcotest.(check int) "source lat_count unchanged" count0 m.M.lat_count;
  Alcotest.(check bool) "source quantiles unchanged" true (quantiles m = q0);
  Alcotest.(check int) "copy counts its own" (count0 + 100) c.M.lat_count;
  Alcotest.(check bool) "copy's median moved" true (M.latency_quantile c 0.5 < List.hd q0)

(* ---------- store smoke: zero-capacity shard rides along ---------- *)

module St = Mwct_runtime.Shard.Float

let test_starved_shard () =
  (* Two shards, all weight in shard 0: WDEQ may starve shard 1 only if
     its weight is zero, which cannot happen with alive tasks — but a
     shard with no tasks must ride advance ticks and keep its clock. *)
  let st =
    St.create ~nshards:2 ~route:St.Mod ~capacity:4. ~allocator:wdeq ~policy:wdeq
      ~kinetic:(fun () -> P.engine_kinetic P.Wdeq)
      ~policy_label:"wdeq" ()
  in
  ignore
    (match St.apply st (St.En.Submit { id = 0; volume = 4.; weight = 1.; cap = 2.; speedup = None; deps = [] }) with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (St.En.error_to_string e));
  (match St.apply st (St.En.Advance 1.0) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (St.En.error_to_string e));
  let engines = St.engines st in
  (* lazy clock sync: an empty shard skips the tick entirely... *)
  Alcotest.(check (float 0.)) "empty shard skipped the tick" 0.0 (St.En.now engines.(1));
  (* ...and is caught up right before its next submit, so the task
     still starts at store time now=1 *)
  ignore
    (match St.apply st (St.En.Submit { id = 1; volume = 2.; weight = 1.; cap = 1.; speedup = None; deps = [] }) with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (St.En.error_to_string e));
  Alcotest.(check (float 0.)) "lagging shard caught up on submit" 1.0 (St.En.now engines.(1));
  (match St.apply st St.En.Drain with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (St.En.error_to_string e));
  (match St.find_closed st 1 with
  | Some c ->
    Alcotest.(check (float 0.)) "submitted_at respects store clock" 1.0 c.St.En.submitted_at
  | None -> Alcotest.fail "task 1 not closed");
  Alcotest.(check int) "all completed" 2 (St.completed_count st);
  St.shutdown st

let () =
  Alcotest.run "shard"
    [
      ( "oracles",
        [
          Alcotest.test_case "single-shard identity (float)" `Quick test_single_identity_float;
          Alcotest.test_case "single-shard identity (exact)" `Quick test_single_identity_exact;
          Alcotest.test_case "per-shard replay (float, mod)" `Quick test_shard_replay_float_mod;
          Alcotest.test_case "per-shard replay (float, hash)" `Quick test_shard_replay_float_hash;
          Alcotest.test_case "per-shard replay (exact)" `Quick test_shard_replay_exact;
          Alcotest.test_case "merged determinism (float)" `Quick test_merged_determinism_float;
          Alcotest.test_case "merged determinism (exact)" `Quick test_merged_determinism_exact;
          Alcotest.test_case "flat completion-set agreement (float)" `Quick test_flat_agreement_float;
          Alcotest.test_case "flat completion-set agreement (exact)" `Quick test_flat_agreement_exact;
        ] );
      ( "dag-oracles",
        [
          Alcotest.test_case "single-shard identity (float)" `Quick test_dag_single_identity_float;
          Alcotest.test_case "per-shard replay (float)" `Quick test_dag_shard_replay_float;
          Alcotest.test_case "per-shard replay (exact)" `Quick test_dag_shard_replay_exact;
          Alcotest.test_case "merged determinism (float)" `Quick test_dag_merged_determinism_float;
          Alcotest.test_case "flat completion-set agreement (float)" `Quick test_dag_flat_agreement_float;
        ] );
      ( "engine",
        [
          Alcotest.test_case "set_capacity" `Quick test_set_capacity;
          Alcotest.test_case "advance_to" `Quick test_advance_to;
        ] );
      ( "par", [ Alcotest.test_case "fork-join pool" `Quick test_par_run ] );
      ( "ingest", [ Alcotest.test_case "chunked line reader" `Quick test_ingest_lines ] );
      ( "metrics",
        [
          Alcotest.test_case "latency histogram" `Quick test_latency_histogram;
          Alcotest.test_case "copy owns its histogram" `Quick test_copy_isolates_latency;
        ] );
      ( "store", [ Alcotest.test_case "idle shard rides ticks" `Quick test_starved_shard ] );
    ]
