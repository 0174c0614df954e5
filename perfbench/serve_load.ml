(* The serve workloads: the calls `mwct serve` makes per input line —
   [Ingest.next_line] → [Journal.of_line] → [Shard.apply], decision
   lines (and, when recorded, the merged journal) flushed to their sinks
   line by line — in a closed loop with one client. Serve's clock is
   virtual (advance events carry time), so the next line is read only
   after the previous one is handled.

   Streams hold a steady alive set: a warm-up prefix submits
   [long_alive] long-lived tasks (volumes far beyond the stream's time
   horizon, so they only leave by cancel), then a four-line churn cycle
   repeats: submit a short task, cancel a random long-lived one, submit
   its replacement, advance. Short tasks complete within a few cycles,
   so decisions flow while the alive set stays near [long_alive].
   Weights are a per-tenant constant ([id mod tenants]), so the output
   check can recompute Σw·C from the decision lines alone. *)

module F = Mwct_field.Field.Float_field
module St = Mwct_runtime.Shard.Make (F)
module En = St.En
module J = St.J
module M = St.M
module P = Mwct_ncv.Policy.Make (F)
module Ingest = Mwct_runtime.Ingest

type shape = {
  name : string;
  nshards : int;
  tenants : int;
  long_alive : int;
  long_volume : int;
      (* far beyond what a long-lived task can run in the stream's
         horizon. Capped by a known engine defect, not by the workload:
         near 2^20 the float engine's final [Drain] fails with "completion
         estimate does not converge" (see METRICS.md). Raise serve-wide's
         back to that range once the engine is fixed, so the drain check
         covers the case. *)
  curved_every : int;  (* every k-th submit carries a speedup curve; 0 = never *)
  record_journal : bool;  (* merged journal to its own sink *)
  metrics_every : int;  (* a metrics line after every k-th input; 0 = never *)
  steady_lines : int;  (* churn lines rendered after the warm-up prefix *)
  warm_lines : int;  (* churn lines applied during set-up *)
  traced_lines : int;  (* traced-phase length *)
  heap_lines : int;  (* lines after which heap_peak_mb is read *)
  tail_q : float;  (* the tail percentile lat_tail_us reports *)
}

(* processors of every serve stream *)
let capacity = 64

(* --- seeded stream --- *)

type gen = {
  shape : shape;
  rng : Rng.t;
  base : F.t array;  (* per-tenant weight *)
  pool : int array;  (* ids of the long-lived tasks *)
  mutable next_id : int;
  mutable submits : int;
}

let weight_of base tenants id = base.(id mod tenants)

let gen_create shape seed =
  let rng = Rng.create seed in
  let base = Array.init shape.tenants (fun _ -> F.of_q (Rng.int rng 1 32) 4) in
  { shape; rng; base; pool = Array.make shape.long_alive 0; next_id = 0; submits = 0 }

let submit g ~long =
  let r = g.rng in
  let id = g.next_id in
  g.next_id <- id + 1;
  g.submits <- g.submits + 1;
  let cap = F.of_q (1 lsl Rng.int r 0 10) 256 in
  let volume =
    if long then F.of_int (g.shape.long_volume + Rng.int r 0 1023) else F.of_q (Rng.int r 1 16) 64
  in
  let speedup =
    let k = g.shape.curved_every in
    if k > 0 && g.submits mod k = 0 then
      (* concave, slopes 1, 1/2, 1/4 *)
      let half = F.div cap (F.of_int 2) in
      Some
        ( [| half; cap; F.mul cap (F.of_int 2) |],
          [| half; F.mul cap (F.of_q 3 4); F.mul cap (F.of_q 7 8) |] )
    else None
  in
  ( id,
    En.Submit
      { id; volume; weight = weight_of g.base g.shape.tenants id; cap; speedup; deps = [] } )

(* Renders init, the warm-up prefix and [steady_lines] churn lines;
   returns the number of prefix lines (init included). *)
let render g ~tick path =
  let oc = open_out_bin path in
  let seq = ref 0 in
  let emit e =
    output_string oc (J.to_line ~seq:!seq e);
    output_char oc '\n';
    incr seq;
    tick ()
  in
  emit (J.Init { capacity = F.of_int capacity; policy = "wdeq" });
  for k = 0 to g.shape.long_alive - 1 do
    let id, ev = submit g ~long:true in
    g.pool.(k) <- id;
    emit (J.Input ev)
  done;
  emit (J.Input (En.Advance (F.of_q 1 16)));
  let prefix = !seq in
  let slot = ref 0 in
  for i = 0 to g.shape.steady_lines - 1 do
    match i land 3 with
    | 0 -> emit (J.Input (snd (submit g ~long:false)))
    | 1 ->
      slot := Rng.int g.rng 0 (g.shape.long_alive - 1);
      emit (J.Input (En.Cancel g.pool.(!slot)))
    | 2 ->
      let id, ev = submit g ~long:true in
      g.pool.(!slot) <- id;
      emit (J.Input ev)
    | _ -> emit (J.Input (En.Advance (F.of_q (Rng.int g.rng 1 4) 16)))
  done;
  close_out oc;
  prefix

(* --- the store, its sinks and the per-line op --- *)

(* span kinds *)
let k_op = 0
let k_ingest = 1
let k_parse = 2
let k_apply = 3
let k_output = 4
let k_metrics = 5
let span_names = [| "op"; "ingest"; "journal.parse"; "shard.apply"; "output"; "metrics.json" |]

(* traced-phase counters of the sinks *)
type counters = { mutable out_lines : int; mutable out_bytes : int; mutable budget_lines : int }

let has_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* A sink line, written and flushed as serve does. *)
let sink tr c oc line =
  Trace.enter tr k_output;
  output_string oc line;
  output_char oc '\n';
  flush oc;
  Trace.leave tr;
  if tr.Trace.on then begin
    c.out_lines <- c.out_lines + 1;
    c.out_bytes <- c.out_bytes + String.length line + 1;
    if has_sub line "\"type\":\"budget\"" then c.budget_lines <- c.budget_lines + 1
  end

type ctx = {
  shape : shape;
  base : F.t array;
  tr : Trace.t;
  store : St.t;
  reader : Ingest.t;
  ic : in_channel;
  out : out_channel;  (* decision, metrics and error lines *)
  out_path : string;
  journal : out_channel option;
  counts : counters;
  mutable inputs : int;
  mutable metrics_calls : int;
}

(* one set of files per workload, overwritten by each run *)
let file out_dir shape what = Filename.concat out_dir (Printf.sprintf "%s.%s" shape.name what)

let release ctx =
  St.shutdown ctx.store;
  close_in ctx.ic;
  close_out ctx.out;
  Option.iter close_out ctx.journal

let error_line msg = Printf.sprintf "{\"type\":\"error\",\"msg\":%S}" msg

(* One input line, from [Ingest.next_line] until its output lines are
   flushed: [Some ok], or [None] once the stream is exhausted. *)
let step ctx =
  let tr = ctx.tr in
  Trace.enter tr k_op;
  Trace.enter tr k_ingest;
  let line = Ingest.next_line ctx.reader in
  Trace.leave tr;
  let r =
    match line with
    | None -> None
    | Some line ->
      Trace.enter tr k_parse;
      let trimmed = String.trim line in
      let parsed =
        if String.length trimmed > 0 && trimmed.[0] = '{' then J.of_line trimmed
        else Error "not a journal line"
      in
      Trace.leave tr;
      let fail msg =
        sink tr ctx.counts ctx.out (error_line msg);
        false
      in
      let ok =
        match parsed with
        | Ok (_, J.Input ev) -> (
          Trace.enter tr k_apply;
          let r = St.apply ctx.store ev in
          Trace.leave tr;
          match r with Ok _ -> true | Error e -> fail (En.error_to_string e))
        | Ok (_, J.Init _) -> fail "init after events; line ignored"
        | Ok (_, (J.Output _ | J.Budget _ | J.Policy _)) -> true
        | Error msg -> fail ("bad journal line: " ^ msg)
      in
      ctx.inputs <- ctx.inputs + 1;
      if ctx.shape.metrics_every > 0 && ctx.inputs mod ctx.shape.metrics_every = 0 then begin
        Trace.enter tr k_metrics;
        let m = St.metrics_json ctx.store in
        Trace.leave tr;
        if tr.Trace.on then ctx.metrics_calls <- ctx.metrics_calls + 1;
        sink tr ctx.counts ctx.out m
      end;
      Some ok
  in
  Trace.leave tr;
  r

(* Set-up: render the seeded stream, open the store on its init line
   as serve does, and apply the warm-up prefix plus [warm_lines] churn
   lines. *)
let setup shape ~seed ~out_dir ~tick ~tr () =
  let g = gen_create shape seed in
  let stream = file out_dir shape "stream.jsonl" in
  let prefix = render g ~tick stream in
  let out_path = file out_dir shape "out.jsonl" in
  let out = open_out_bin out_path in
  let journal =
    if shape.record_journal then Some (open_out_bin (file out_dir shape "journal.jsonl"))
    else None
  in
  let counts = { out_lines = 0; out_bytes = 0; budget_lines = 0 } in
  let ic = open_in_bin stream in
  let reader = Ingest.create ic in
  let capacity, policy_label =
    match Option.map J.of_line (Ingest.next_line reader) with
    | Some (Ok (_, J.Init { capacity; policy })) -> (capacity, policy)
    | _ -> failwith "stream does not start with an init line"
  in
  let policy = Option.get (P.of_name policy_label) in
  let store =
    St.create ~record_segments:false
      ?merged_sink:(Option.map (sink tr counts) journal)
      ~decision_sink:(sink tr counts out) ~nshards:shape.nshards ~route:St.Hash ~capacity
      ~allocator:(P.engine_policy P.Wdeq) ~policy:(P.engine_policy policy)
      ~kinetic:(fun () -> P.engine_kinetic policy)
      ~policy_label ()
  in
  let ctx =
    { shape; base = g.base; tr; store; reader; ic; out; out_path; journal; counts; inputs = 0; metrics_calls = 0 }
  in
  for _ = 1 to prefix - 1 + shape.warm_lines do
    ignore (step ctx);
    tick ()
  done;
  ctx

(* After a final drain: nothing alive, every submit accounted for, no
   error lines, and Σw·C recomputed from the decision lines and the
   generated weights equal to the store's. *)
let final_check ctx =
  let failed = ref 0 in
  let expect ok = if not ok then incr failed in
  expect (match St.apply ctx.store En.Drain with Ok _ -> true | Error _ -> false);
  let store_wc = St.weighted_completion ctx.store in
  let m = St.metrics ctx.store in
  expect (St.alive_count ctx.store = 0 && m.M.submitted = m.M.completed + m.M.cancelled);
  release ctx;
  let per_shard = Array.make ctx.shape.nshards F.zero in
  let errors = ref 0 in
  In_channel.with_open_bin ctx.out_path (fun ic ->
      let reader = Ingest.create ic in
      let rec loop () =
        match Ingest.next_line reader with
        | None -> ()
        | Some line ->
          (if not (has_sub line "\"type\":\"metrics\"") then
             match J.of_line_tagged line with
             | Ok (_, shard, J.Output { id; at }) ->
               let k = Option.value shard ~default:0 in
               per_shard.(k) <- F.add per_shard.(k) (F.mul (weight_of ctx.base ctx.shape.tenants id) at)
             | _ -> incr errors);
          loop ()
      in
      loop ());
  expect (!errors = 0);
  (* shard sums in shard order, as the store aggregates them *)
  expect (F.equal (Array.fold_left F.add F.zero per_shard) store_wc);
  (4, !failed)

(* Per-layer metrics of the traced phase: span self times per line,
   sink counters, and the store's engine counters over the phase. *)
let trace_hooks ctx tr =
  ignore (St.weighted_completion ctx.store);
  let m = St.metrics ctx.store in
  let reshares0 = m.M.reshares and changes0 = m.M.alloc_changes in
  let alive_sum = ref 0 in
  let on_op _ _ = alive_sum := !alive_sum + St.alive_count ctx.store in
  let finish ~ops =
    ignore (St.weighted_completion ctx.store);
    let per_op x = if ops = 0 then 0. else float_of_int x /. float_of_int ops in
    let reshares = m.M.reshares - reshares0 in
    [
      ("ingest.busy_us", Trace.self_us_per tr k_ingest ~per:ops);
      ("ingest.lines", float_of_int ops);
      ("journal.parse_busy_us", Trace.self_us_per tr k_parse ~per:ops);
      ("journal.out_lines", float_of_int ctx.counts.out_lines);
      ("journal.out_bytes", float_of_int ctx.counts.out_bytes);
      ("output.busy_us", Trace.self_us_per tr k_output ~per:ops);
      ("shard.apply_busy_us", Trace.self_us_per tr k_apply ~per:ops);
      ("shard.apply_p99_us", Stats.quantile (Stats.sorted_copy (Trace.self_us tr k_apply)) 0.99);
      ("shard.budget_lines", float_of_int ctx.counts.budget_lines);
      ("engine.reshares", float_of_int reshares);
      ("engine.alloc_changes", float_of_int (m.M.alloc_changes - changes0));
      ("engine.reshares_per_event", per_op reshares);
      ("engine.alive_mean", per_op !alive_sum);
      ("metrics.json_busy_us", Trace.self_us_per tr k_metrics ~per:ctx.metrics_calls);
    ]
  in
  (on_op, finish)

let spec shape ~seed ~out_dir : (ctx, bool) Harness.spec =
  {
    Harness.mode = Stream;
    span_names;
    trace_file = file out_dir shape "trace.jsonl";
    tail_q = shape.tail_q;
    setups = 3;
    heap_ops = shape.heap_lines;
    traced_ops = shape.traced_lines;
    setup = (fun ~tick tr -> setup shape ~seed ~out_dir ~tick ~tr ());
    release;
    op = (fun ctx _ _ -> step ctx);
    verify = (fun _ _ ok -> (1, ok));
    trace_hooks;
    final_check;
  }
