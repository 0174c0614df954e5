(* Allocation budget for the engine's float hot path, and differential
   tests for the WDEQ share kernel: a persistent [Wdeq.Incremental]
   state driven through random add/remove streams with engine-style
   slot reuse must reproduce a fresh one-shot of the same kernel and
   the core reference fixpoint after every mutation, on both fields. *)

module Rng = Mwct_util.Rng
module FF = Mwct_field.Field.Float_field
module QF = Mwct_rational.Rational.Rat_field
module Q = Mwct_rational.Rational

(* ---------- zero-allocation steady-state Advance (float) ---------- *)

module En = Mwct_runtime.Engine.Make (FF)
module PF = Mwct_ncv.Policy.Make (FF)

(* In steady state (no completions, no reshares pending) an [Advance]
   on the float engine with [record_segments:false] must not allocate:
   the sweep runs entirely on the struct-of-arrays columns. The window
   is measured against an identically-shaped empty window so the float
   boxes allocated by [Gc.minor_words] itself cancel out. *)
let steady_engine () =
  let eng =
    En.create ~record_segments:false
      ?kinetic:(PF.engine_kinetic PF.Wdeq)
      ~capacity:64. ~policy:(PF.engine_policy PF.Wdeq) ()
  in
  for i = 0 to 49 do
    match En.submit eng ~id:i ~volume:1e9 ~weight:(float_of_int (1 + (i mod 7))) ~cap:2. () with
    | Ok () -> ()
    | Error e -> Alcotest.fail (En.error_to_string e)
  done;
  eng

let check_advance_budget eng =
  let ev = En.Advance 0.25 in
  let apply () =
    match En.apply eng ev with
    | Ok [] -> ()
    | Ok _ -> Alcotest.fail "unexpected completion (volumes are effectively infinite)"
    | Error e -> Alcotest.fail (En.error_to_string e)
  in
  (* Warm up: the first advance commits the pending reshare. *)
  for _ = 1 to 8 do
    apply ()
  done;
  let iters = 1000 in
  let b0 = Gc.minor_words () in
  for _ = 1 to iters do
    ()
  done;
  let b1 = Gc.minor_words () in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    apply ()
  done;
  let w1 = Gc.minor_words () in
  let delta = w1 -. w0 -. (b1 -. b0) in
  if delta >= float_of_int iters then
    Alcotest.failf "steady-state Advance allocates: %.0f minor words over %d advances" delta iters

let test_advance_zero_alloc () = check_advance_budget (steady_engine ())

(* An [Advance] that reshares must not allocate either: the float
   kinetic kernel ([Wdeq.Incremental.shares_into]) and the engine's
   commit sweep run over flat float columns. Toggling the capacity
   between two budgets dirties the share cache before every advance,
   at n = 1000 alive tasks with caps spread wide enough that every
   reshare clips tasks. *)
let test_reshare_advance_zero_alloc () =
  let n = 1000 in
  let eng =
    En.create ~record_segments:false
      ?kinetic:(PF.engine_kinetic PF.Wdeq)
      ~capacity:600. ~policy:(PF.engine_policy PF.Wdeq) ()
  in
  for i = 0 to n - 1 do
    match
      En.submit eng ~id:i ~volume:1e9
        ~weight:(float_of_int (1 + (i mod 7)))
        ~cap:(float_of_int (1 lsl (i mod 5)) /. 4.)
        ()
    with
    | Ok () -> ()
    | Error e -> Alcotest.fail (En.error_to_string e)
  done;
  let ev = En.Advance 0.25 in
  (* boxed once here: a float read out of a flat array would be
     re-boxed on every [set_capacity] call, charging the test's own
     allocation to the engine *)
  let budgets = [| Some 600.; Some 450. |] in
  let reshares () = (En.metrics eng).En.M.reshares in
  let step k =
    (match budgets.(k land 1) with Some c -> ignore (En.set_capacity eng c) | None -> ());
    match En.apply eng ev with
    | Ok [] -> ()
    | Ok _ -> Alcotest.fail "unexpected completion (volumes are effectively infinite)"
    | Error e -> Alcotest.fail (En.error_to_string e)
  in
  for k = 1 to 8 do
    step k
  done;
  let iters = 200 in
  let r0 = reshares () in
  let b0 = Gc.minor_words () in
  for _ = 1 to iters do
    ()
  done;
  let b1 = Gc.minor_words () in
  let w0 = Gc.minor_words () in
  for k = 1 to iters do
    step k
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check int) "every advance reshared" iters (reshares () - r0);
  let delta = w1 -. w0 -. (b1 -. b0) in
  if delta >= float_of_int iters then
    Alcotest.failf "resharing Advance allocates: %.0f minor words over %d advances" delta iters

(* A forked engine must keep the same budget: the snapshot/fork copy
   rebuilds the SoA columns and the kinetic frontier, so the steady
   state it resumes in is the parent's — no lazy rebuilding, no
   hidden allocation on the Advance path (DESIGN.md §16). *)
let test_forked_advance_zero_alloc () =
  let parent = steady_engine () in
  let forked = En.fork ?kinetic:(PF.engine_kinetic PF.Wdeq) (En.snapshot parent) in
  check_advance_budget forked

(* ---------- incremental frontier vs list kernel vs reference ---------- *)

module DH (F : Mwct_field.Field.S) = struct
  module P = Mwct_ncv.Policy.Make (F)
  module E = Mwct_core.Engine.Make (F)
  module K = E.Wdeq.Incremental

  (* Drive one persistent [Incremental.state] through [rounds] rounds
     of random adds/removes (slots reused through a free list, exactly
     as the engine does) and check the reshare after every round:
     - [shares_into] output (order and values) = [P.shares] (a fresh
       one-shot of the kernel) on the same views in ascending-id
       order, bit-for-bit ([F.equal]);
     - values match the core [shares_reference] fixpoint up to [eq]
       (exact on rationals, 1e-9 on floats, as in test_kernels). *)
  let check_stream ~eq ~use_weights ~seed ~rounds =
    let pol = if use_weights then P.Wdeq else P.Deq in
    let st = K.create ~use_weights () in
    let rng = Rng.create seed in
    let capacity = F.of_q (1 + Rng.int rng 16) 1 in
    let alive = ref [] (* (slot, view), unordered *)
    and free = ref []
    and used = ref 0
    and next_id = ref 0 in
    let ok = ref true in
    let check () =
      let by_id_views =
        List.sort (fun (_, (a : P.view)) (_, b) -> Stdlib.compare a.P.id b.P.id) !alive
      in
      let views = List.map snd by_id_views in
      let n = List.length views in
      let by_id = Array.of_list (List.map fst by_id_views) in
      (* [share] is slot-indexed (slots can exceed [n] once the free
         list recycles); [order] is position-indexed. *)
      let share = Array.make (Stdlib.max !used 1) F.zero in
      let order = Array.make (Stdlib.max n 1) 0 in
      K.shares_into st ~capacity ~n ~by_id ~share ~order;
      let id_of_slot s = (snd (List.find (fun (sl, _) -> sl = s) !alive)).P.id in
      let got = List.init n (fun k -> (id_of_slot order.(k), share.(order.(k)))) in
      let expected = P.shares pol ~capacity views in
      let same_list a b =
        List.length a = List.length b
        && List.for_all2 (fun (i, x) (j, y) -> i = j && F.equal x y) a b
      in
      if not (same_list got expected) then ok := false;
      let sorted = List.sort (fun (a, _) (b, _) -> Stdlib.compare a b) in
      let reference =
        sorted
          (E.Wdeq.shares_reference ~p:capacity
             (List.map
                (fun (v : P.view) -> (v.P.id, (if use_weights then v.P.weight else F.one), v.P.cap))
                views))
      in
      let got_sorted = sorted got in
      if
        not
          (List.length got_sorted = List.length reference
          && List.for_all2 (fun (i, x) (j, y) -> i = j && eq x y) got_sorted reference)
      then ok := false
    in
    for _ = 1 to rounds do
      for _ = 1 to 1 + Rng.int rng 3 do
        let slot =
          match !free with
          | s :: rest ->
            free := rest;
            s
          | [] ->
            let s = !used in
            incr used;
            s
        in
        let v =
          {
            P.id = !next_id;
            weight = F.of_q (1 + Rng.int rng 10) 2;
            cap = F.of_q (1 + Rng.int rng 24) 4;
          }
        in
        incr next_id;
        K.add st ~slot ~id:v.P.id ~weight:v.P.weight ~cap:v.P.cap;
        alive := (slot, v) :: !alive
      done;
      if Rng.int rng 3 = 0 then begin
        match !alive with
        | [] -> ()
        | l ->
          let k = Rng.int rng (List.length l) in
          let slot, _ = List.nth l k in
          K.remove st ~slot;
          alive := List.filter (fun (s, _) -> s <> slot) l;
          free := slot :: !free
      end;
      check ()
    done;
    !ok
end

module DF = DH (FF)
module DQ = DH (QF)

let prop_incremental_float =
  QCheck2.Test.make ~count:100 ~name:"incremental WDEQ/DEQ = list kernel = reference (float)"
    ~print:string_of_int
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      DF.check_stream
        ~eq:(fun a b -> Float.abs (a -. b) < 1e-9)
        ~use_weights:(seed mod 2 = 0) ~seed ~rounds:25)

let prop_incremental_exact =
  QCheck2.Test.make ~count:40 ~name:"incremental WDEQ/DEQ = list kernel = reference (exact)"
    ~print:string_of_int
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      DQ.check_stream ~eq:Q.Rat_field.equal ~use_weights:(seed mod 2 = 0) ~seed ~rounds:12)

(* ---------- float kernel vs generic kernel (float field) ---------- *)

(* [Incremental.shares_into] runs the monomorphic float kernel on this
   field; [generic_shares_into] is the field-generic oracle. Over random
   add/remove streams with free-list slot reuse, both must fill the same
   [order] and bit-identical shares. Caps are spread over 2^-4..2^3 and
   capacities drawn small, so streams hit every branch: no clip, a
   settled round 2, and the cascade that reaches the binary-searched
   frontier. Returns whether all reshares agreed and how many cascaded. *)
module PK = Mwct_core.Engine.Float.Wdeq.Incremental

let bits = Int64.bits_of_float

let cascades ~capacity (views : (float * float) list) =
  let w0 = List.fold_left (fun a (w, _) -> a +. w) 0. views in
  let v1, rest = List.partition (fun (w, d) -> Float.compare (d *. w0) (w *. capacity) < 0) views in
  let r1 = List.fold_left (fun a (_, d) -> a -. d) capacity v1 in
  let w1 = List.fold_left (fun a (w, _) -> a -. w) w0 v1 in
  v1 <> [] && List.exists (fun (w, d) -> Float.compare (d *. w1) (w *. r1) < 0) rest

let kernel_stream ~use_weights ~seed ~rounds =
  let st = PK.create ~use_weights () in
  let rng = Rng.create seed in
  let capacity = float_of_int (1 + Rng.int rng 32) /. 4. in
  let alive = ref [] (* (slot, id, weight, cap) *)
  and free = ref []
  and used = ref 0
  and next_id = ref 0 in
  let ok = ref true and ncascade = ref 0 in
  for _ = 1 to rounds do
    for _ = 1 to 1 + Rng.int rng 4 do
      let slot =
        match !free with
        | s :: rest ->
          free := rest;
          s
        | [] ->
          let s = !used in
          incr used;
          s
      in
      let id = !next_id in
      incr next_id;
      let weight = float_of_int (1 + Rng.int rng 16) /. 4. in
      let cap = ldexp (float_of_int (1 + Rng.int rng 3)) (Rng.int rng 8 - 5) in
      PK.add st ~slot ~id ~weight ~cap;
      alive := (slot, id, weight, cap) :: !alive
    done;
    (if Rng.int rng 3 = 0 then
       match !alive with
       | [] -> ()
       | l ->
         let slot, _, _, _ = List.nth l (Rng.int rng (List.length l)) in
         PK.remove st ~slot;
         alive := List.filter (fun (s, _, _, _) -> s <> slot) l;
         free := slot :: !free);
    let by_id_l = List.sort (fun (_, a, _, _) (_, b, _, _) -> Stdlib.compare a b) !alive in
    let n = List.length by_id_l in
    let by_id = Array.of_list (List.map (fun (s, _, _, _) -> s) by_id_l) in
    let run kernel =
      let share = Array.make (Stdlib.max !used 1) Float.nan in
      let order = Array.make (Stdlib.max n 1) (-1) in
      kernel st ~capacity ~n ~by_id ~share ~order;
      (share, order)
    in
    let fs, fo = run PK.shares_into and gs, go = run PK.generic_shares_into in
    for k = 0 to n - 1 do
      if fo.(k) <> go.(k) || not (Int64.equal (bits fs.(fo.(k))) (bits gs.(go.(k)))) then
        ok := false
    done;
    let views = List.map (fun (_, _, w, d) -> ((if use_weights then w else 1.), d)) by_id_l in
    if cascades ~capacity views then incr ncascade
  done;
  (!ok, !ncascade)

let prop_float_kernel =
  QCheck2.Test.make ~count:200 ~name:"float kernel = generic kernel, bit for bit (float)"
    ~print:string_of_int
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed -> fst (kernel_stream ~use_weights:(seed mod 2 = 0) ~seed ~rounds:30))

(* The random streams must actually reach the frontier fallback. *)
let test_float_kernel_cascades () =
  let total = ref 0 in
  for seed = 1 to 40 do
    let ok, nc = kernel_stream ~use_weights:(seed mod 2 = 0) ~seed ~rounds:30 in
    if not ok then Alcotest.failf "float kernel diverges from the generic kernel (seed %d)" seed;
    total := !total + nc
  done;
  if !total = 0 then Alcotest.fail "no stream cascaded to the frontier"

let () =
  let p = QCheck_alcotest.to_alcotest in
  Alcotest.run "alloc"
    [
      ( "advance-budget",
        [
          Alcotest.test_case "steady-state Advance is allocation-free" `Quick
            test_advance_zero_alloc;
          Alcotest.test_case "forked-engine Advance is allocation-free" `Quick
            test_forked_advance_zero_alloc;
          Alcotest.test_case "resharing Advance is allocation-free" `Quick
            test_reshare_advance_zero_alloc;
        ] );
      ("incremental-frontier", [ p prop_incremental_float; p prop_incremental_exact ]);
      ( "float-kernel",
        [
          p prop_float_kernel;
          Alcotest.test_case "streams reach the frontier" `Quick test_float_kernel_cascades;
        ] );
    ]
