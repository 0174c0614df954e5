(** WDEQ — Weighted Dynamic EQuipartition (Algorithm 1, Section III).

    The non-clairvoyant policy: at every instant the platform is shared
    between alive tasks in proportion to their weights; a task whose
    proportional share exceeds its cap [δ_i] is clipped to [δ_i] and
    the surplus redistributed among the others, repeatedly, until a
    fixpoint. Shares are recomputed whenever a task completes.

    {b Share computation.} The fixpoint of Algorithm 1 is a monotone
    threshold in the saturation ratio [ρ_i = δ_i / w_i]: a task is
    clipped at its cap iff [ρ_i < r/w] where [r]/[w] are the residual
    processors/weight of the unclipped pool. Sorting the alive tasks by
    [ρ] once, the clipped set is a prefix of that order and the
    frontier is found by binary search over prefix sums of caps and
    weights — [O(log n)] per event after an [O(n log n)] sort — instead
    of the seed's repeated [List.partition] fixpoint ([O(n²)] per
    event). See DESIGN.md §6 for the monotonicity argument.

    The module {e simulates} the policy on a clairvoyant instance
    (volumes are used only to find the next completion event, exactly
    as a real execution would reveal it) and records the diagnostics
    needed to check Lemma 2's bound
    [TC_WD(I) <= 2·(A(I[VF̄]) + H(I[VF]))]. Since [ρ] never changes
    during a run, {!simulate} sorts once and replays the frontier
    search per completion event: a full run is [O(n²)], dominated by
    emitting the (sparse) per-column shares. *)

module Make (F : Mwct_field.Field.S) = struct
  module T = Types.Make (F)
  module I = Instance.Make (F)
  module S = Schedule.Make (F)
  open T

  (** Per-run diagnostics: for each task, the volume it processed while
      running at its full allocation [δ_i] ([full_volume], the paper's
      [VF_i]) and while limited by equipartition ([limited_volume], the
      paper's [VF̄_i]). The two sum to [V_i]. *)
  type diagnostics = { full_volume : F.t array; limited_volume : F.t array }

  (** Reference implementation of one round of Algorithm 1, kept
      verbatim from the iterative [List.partition] fixpoint: saturate
      every currently-violating task, redistribute, repeat. [O(n²)]
      worst case. Used as ground truth by the cross-engine equivalence
      tests; production code goes through {!shares}. *)
  let shares_reference ~p alive : (int * F.t) list =
    let rec go unsat saturated r w =
      (* r = remaining processors, w = remaining weight. *)
      let violating, rest =
        List.partition (fun (_, wi, di) -> F.compare (F.mul di w) (F.mul wi r) < 0) unsat
      in
      match violating with
      | [] ->
        let give =
          List.map (fun (i, wi, _) -> (i, if F.sign w > 0 then F.div (F.mul wi r) w else F.zero)) rest
        in
        saturated @ give
      | _ ->
        let r' = List.fold_left (fun acc (_, _, di) -> F.sub acc di) r violating in
        let w' = List.fold_left (fun acc (_, wi, _) -> F.sub acc wi) w violating in
        go rest (List.map (fun (i, _, di) -> (i, di)) violating @ saturated) r' w'
    in
    let w0 = List.fold_left (fun acc (_, wi, _) -> F.add acc wi) F.zero alive in
    go alive [] p w0

  (* Saturation-frontier kernel over parallel arrays already sorted by
     [δ/w] ascending: [ws]/[ds] hold the weights/caps of the [m] alive
     tasks, [pd]/[pw] are scratch of length >= m+1. Writes each task's
     share into [out] (indexed like [ws]/[ds]). *)
  let frontier_shares ~p ~m ws ds pd pw (out : F.t array) =
    pd.(0) <- F.zero;
    pw.(0) <- F.zero;
    for k = 0 to m - 1 do
      pd.(k + 1) <- F.add pd.(k) ds.(k);
      pw.(k + 1) <- F.add pw.(k) ws.(k)
    done;
    let total_w = pw.(m) in
    (* P(k): with the first k tasks clipped at their caps, the next
       task (if any) is unclipped — equivalently the fixpoint's clipped
       set has size <= k. P is monotone in k, so binary search finds
       the fixpoint (the smallest k with P(k)). *)
    let sat_ok k =
      k = m
      ||
      let r = F.sub p pd.(k) and w = F.sub total_w pw.(k) in
      F.sign w <= 0 || F.compare (F.mul ds.(k) w) (F.mul ws.(k) r) >= 0
    in
    let lo = ref 0 and hi = ref m in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if sat_ok mid then hi := mid else lo := mid + 1
    done;
    let ksat = !lo in
    let r = F.sub p pd.(ksat) and w = F.sub total_w pw.(ksat) in
    let positive_w = F.sign w > 0 in
    for k = 0 to m - 1 do
      out.(k) <-
        (if k < ksat then ds.(k)
         else if positive_w then F.div (F.mul ws.(k) r) w
         else F.zero)
    done

  (** One round of Algorithm 1: shares for the alive tasks.
      [alive] gives (index, weight, delta); the result maps each alive
      index to its share. Total shares never exceed [p].
      [O(n log n)] — sort by saturation ratio, then one binary-searched
      threshold. Agrees with {!shares_reference} (exactly over exact
      fields). *)
  let shares ~p alive : (int * F.t) list =
    let arr = Array.of_list alive in
    Array.sort
      (fun (a, wa, da) (b, wb, db) ->
        let c = F.compare (F.mul da wb) (F.mul db wa) in
        if c <> 0 then c else Stdlib.compare a b)
      arr;
    let m = Array.length arr in
    let ws = Array.make m F.zero and ds = Array.make m F.zero in
    Array.iteri
      (fun k (_, w, d) ->
        ws.(k) <- w;
        ds.(k) <- d)
      arr;
    let pd = Array.make (m + 1) F.zero and pw = Array.make (m + 1) F.zero in
    let out = Array.make m F.zero in
    frontier_shares ~p ~m ws ds pd pw out;
    List.init m (fun k ->
        let i, _, _ = arr.(k) in
        (i, out.(k)))

  (** Field-generic simulation loop — the semantic source of truth for
      {!simulate}, which dispatches to a monomorphic float kernel when
      the field witness allows it. Exposed for the differential tests
      pinning the kernel bit-for-bit. *)
  let simulate_reference ?(use_weights = true) (inst : instance) : column_schedule * diagnostics =
    let n = I.num_tasks inst in
    let weight = if use_weights then fun i -> inst.tasks.(i).weight else fun _ -> F.one in
    let delta = Array.init n (fun i -> I.effective_delta inst i) in
    let remaining = Array.map (fun t -> t.volume) inst.tasks in
    let alive = Array.make n true in
    let full_volume = Array.make n F.zero in
    let limited_volume = Array.make n F.zero in
    let order = Array.make n 0 in
    let finish = Array.make n F.zero in
    let columns = Array.make n [] in
    (* The saturation ratio δ_i/w_i is static, so one sort serves every
       completion event. [by_ratio] and [by_index] hold the alive tasks
       (ρ-ascending and index-ascending respectively); completed tasks
       are compacted out after each event, so every per-event loop is
       O(alive), not O(n). *)
    let by_ratio = Array.init n (fun i -> i) in
    Array.sort
      (fun a b ->
        let c = F.compare (F.mul delta.(a) (weight b)) (F.mul delta.(b) (weight a)) in
        if c <> 0 then c else Stdlib.compare a b)
      by_ratio;
    let by_index = Array.init n (fun i -> i) in
    (* Reused scratch for the per-event frontier computation. *)
    let ws = Array.make n F.zero and ds = Array.make n F.zero in
    let pd = Array.make (n + 1) F.zero and pw = Array.make (n + 1) F.zero in
    let out = Array.make n F.zero in
    let share = Array.make n F.zero in
    (* Progress rate of each alive task at its current share; equals
       the share itself under the linear law, so every linear-instance
       value below is the historical one bit-for-bit. *)
    let rate = Array.make n F.zero in
    let t_now = ref F.zero in
    let col = ref 0 in
    let m = ref n in
    while !col < n do
      let m0 = !m in
      for k = 0 to m0 - 1 do
        let i = by_ratio.(k) in
        ws.(k) <- weight i;
        ds.(k) <- delta.(i)
      done;
      frontier_shares ~p:inst.procs ~m:m0 ws ds pd pw out;
      (* Time to the next completion, and the first task reaching it
         ([best < 0] encodes "none yet"). *)
      let t_best = ref F.zero in
      let best = ref (-1) in
      for k = 0 to m0 - 1 do
        let i = by_ratio.(k) in
        share.(i) <- out.(k);
        rate.(i) <- I.rate_at inst i out.(k);
        if F.sign rate.(i) > 0 then begin
          let ti = F.div remaining.(i) rate.(i) in
          if !best < 0 || F.compare ti !t_best < 0 then begin
            t_best := ti;
            best := i
          end
        end
      done;
      if !best < 0 then invalid_arg "Wdeq.simulate: no task can progress";
      let dt = !t_best in
      let t_end = F.add !t_now dt in
      (* Advance volumes; split them into full-allocation vs limited
         volume for the Lemma 2 diagnostics; collect completions. *)
      let finished = ref [] in
      for k = 0 to m0 - 1 do
        let i = by_ratio.(k) in
        let s = out.(k) in
        let processed = F.mul rate.(i) dt in
        remaining.(i) <- F.sub remaining.(i) processed;
        let saturated = F.equal_approx s delta.(i) in
        if saturated then full_volume.(i) <- F.add full_volume.(i) processed
        else limited_volume.(i) <- F.add limited_volume.(i) processed;
        if F.leq_approx remaining.(i) F.zero then finished := i :: !finished
      done;
      (* A large volume can leave the task the step was sized for a
         float residue above the completion tolerance ([rem - r·(rem/r)]
         is off by up to an ulp of [rem]); that first-min task completes
         regardless. Only runs that used to fail reach this case, so no
         successful schedule changes. *)
      let finished = match !finished with [] -> [ !best ] | l -> List.sort Stdlib.compare l in
      (* The sparse column: alive tasks with positive shares, by
         ascending task index. *)
      let column = ref [] in
      for k = m0 - 1 downto 0 do
        let i = by_index.(k) in
        if F.sign share.(i) > 0 then column := (i, share.(i)) :: !column
      done;
      (* One column per completed task: the first carries the duration,
         simultaneous completions give zero-length columns. *)
      List.iteri
        (fun k i ->
          let j = !col + k in
          order.(j) <- i;
          finish.(j) <- t_end;
          alive.(i) <- false;
          if k = 0 then columns.(j) <- !column)
        finished;
      col := !col + List.length finished;
      t_now := t_end;
      (* Compact the completed tasks out of both alive orders. *)
      let keep = ref 0 in
      for k = 0 to m0 - 1 do
        let i = by_ratio.(k) in
        if alive.(i) then begin
          by_ratio.(!keep) <- i;
          incr keep
        end
      done;
      let keep2 = ref 0 in
      for k = 0 to m0 - 1 do
        let i = by_index.(k) in
        if alive.(i) then begin
          by_index.(!keep2) <- i;
          incr keep2
        end
      done;
      m := !keep
    done;
    ({ instance = inst; order; finish; columns }, { full_volume; limited_volume })

  (* Monomorphic replica of {!simulate_reference} for [F.t = float],
     recovered through the field witness: flat float arrays, unboxed
     arithmetic, no per-event closure or option traffic. The arithmetic
     is kept literally the generic loop's — [Float.compare] selections,
     [remaining /. s] event horizons, [rem <= eps] completion and
     [abs (s -. delta) <= eps] saturation tolerances (the [leq_approx]
     / [equal_approx] of {!Mwct_field.Field.Float_field}, the witness's
     single float inhabitant), no FMA contraction — so the schedules
     are bit-identical, which the kernel equivalence tests pin. *)
  let simulate_float_opt :
      (use_weights:bool -> instance -> column_schedule * diagnostics) option =
    match F.witness with
    | Mwct_field.Field.Any -> None
    | Mwct_field.Field.Float ->
      let eps = Mwct_field.Field.Float_field.epsilon in
      Some
        (fun ~use_weights (inst : instance) ->
          let n = I.num_tasks inst in
          let p = inst.procs in
          let weight =
            Array.init n (fun i -> if use_weights then inst.tasks.(i).weight else 1.)
          in
          let delta = Array.init n (fun i -> I.effective_delta inst i) in
          let remaining = Array.map (fun t -> t.volume) inst.tasks in
          let alive = Array.make n true in
          let full_volume = Array.make n 0. in
          let limited_volume = Array.make n 0. in
          let order = Array.make n 0 in
          let finish = Array.make n 0. in
          let columns : (int * float) list array = Array.make n [] in
          let by_ratio = Array.init n (fun i -> i) in
          Array.sort
            (fun a b ->
              let c = Float.compare (delta.(a) *. weight.(b)) (delta.(b) *. weight.(a)) in
              if c <> 0 then c else Stdlib.compare a b)
            by_ratio;
          let by_index = Array.init n (fun i -> i) in
          let ws = Array.make n 0. and ds = Array.make n 0. in
          let pd = Array.make (n + 1) 0. and pw = Array.make (n + 1) 0. in
          let out = Array.make n 0. in
          let share = Array.make n 0. in
          let finished_buf = Array.make n 0 in
          let t_now = ref 0. in
          let col = ref 0 in
          let m = ref n in
          while !col < n do
            let m0 = !m in
            for k = 0 to m0 - 1 do
              let i = Array.unsafe_get by_ratio k in
              Array.unsafe_set ws k (Array.unsafe_get weight i);
              Array.unsafe_set ds k (Array.unsafe_get delta i)
            done;
            (* frontier_shares, monomorphic *)
            pd.(0) <- 0.;
            pw.(0) <- 0.;
            for k = 0 to m0 - 1 do
              Array.unsafe_set pd (k + 1) (Array.unsafe_get pd k +. Array.unsafe_get ds k);
              Array.unsafe_set pw (k + 1) (Array.unsafe_get pw k +. Array.unsafe_get ws k)
            done;
            let total_w = pw.(m0) in
            let sat_ok k =
              k = m0
              ||
              let r = p -. pd.(k) and w = total_w -. pw.(k) in
              w <= 0. || Float.compare (ds.(k) *. w) (ws.(k) *. r) >= 0
            in
            let lo = ref 0 and hi = ref m0 in
            while !lo < !hi do
              let mid = (!lo + !hi) / 2 in
              if sat_ok mid then hi := mid else lo := mid + 1
            done;
            let ksat = !lo in
            let r = p -. pd.(ksat) and w = total_w -. pw.(ksat) in
            let positive_w = w > 0. in
            for k = 0 to m0 - 1 do
              Array.unsafe_set out k
                (if k < ksat then Array.unsafe_get ds k
                 else if positive_w then Array.unsafe_get ws k *. r /. w
                 else 0.)
            done;
            (* time to the next completion *)
            let t_best = ref 0. in
            let best = ref (-1) in
            for k = 0 to m0 - 1 do
              let i = Array.unsafe_get by_ratio k in
              let s = Array.unsafe_get out k in
              Array.unsafe_set share i s;
              if s > 0. then begin
                let ti = Array.unsafe_get remaining i /. s in
                if !best < 0 || Float.compare ti !t_best < 0 then begin
                  t_best := ti;
                  best := i
                end
              end
            done;
            if !best < 0 then invalid_arg "Wdeq.simulate: no task can progress";
            let dt = !t_best in
            let t_end = !t_now +. dt in
            let nfin = ref 0 in
            for k = 0 to m0 - 1 do
              let i = Array.unsafe_get by_ratio k in
              let s = Array.unsafe_get out k in
              let processed = s *. dt in
              let rem = Array.unsafe_get remaining i -. processed in
              Array.unsafe_set remaining i rem;
              let saturated = Float.abs (s -. Array.unsafe_get delta i) <= eps in
              if saturated then
                Array.unsafe_set full_volume i (Array.unsafe_get full_volume i +. processed)
              else Array.unsafe_set limited_volume i (Array.unsafe_get limited_volume i +. processed);
              if rem <= eps then begin
                finished_buf.(!nfin) <- i;
                incr nfin
              end
            done;
            if !nfin = 0 then begin
              (* the first-min task's residue, as in the reference *)
              finished_buf.(0) <- !best;
              nfin := 1
            end;
            (* finished tasks ascending, like the reference's List.sort *)
            let fin = Array.sub finished_buf 0 !nfin in
            Array.sort Stdlib.compare fin;
            let column = ref [] in
            for k = m0 - 1 downto 0 do
              let i = by_index.(k) in
              if share.(i) > 0. then column := (i, share.(i)) :: !column
            done;
            Array.iteri
              (fun k i ->
                let j = !col + k in
                order.(j) <- i;
                finish.(j) <- t_end;
                alive.(i) <- false;
                if k = 0 then columns.(j) <- !column)
              fin;
            col := !col + !nfin;
            t_now := t_end;
            let keep = ref 0 in
            for k = 0 to m0 - 1 do
              let i = by_ratio.(k) in
              if alive.(i) then begin
                by_ratio.(!keep) <- i;
                incr keep
              end
            done;
            let keep2 = ref 0 in
            for k = 0 to m0 - 1 do
              let i = by_index.(k) in
              if alive.(i) then begin
                by_index.(!keep2) <- i;
                incr keep2
              end
            done;
            m := !keep
          done;
          ({ instance = inst; order; finish; columns }, { full_volume; limited_volume }))

  (** Simulate a dynamic-equipartition run. [use_weights = false] gives
      plain DEQ (Deng et al.), the unweighted special case. On the
      float field with the linear rate law this runs the monomorphic
      kernel (bit-identical to {!simulate_reference}, several times
      faster at scale); speedup-curve instances take the generic
      path. *)
  let simulate ?(use_weights = true) (inst : instance) : column_schedule * diagnostics =
    match simulate_float_opt with
    | Some f when not (I.has_curves inst) -> f ~use_weights inst
    | _ -> simulate_reference ~use_weights inst

  (** WDEQ schedule of an instance. *)
  let wdeq inst = simulate ~use_weights:true inst

  (** DEQ (unweighted dynamic equipartition) on the same instance; the
      schedule ignores weights but the objective can still be evaluated
      with them. *)
  let deq inst = simulate ~use_weights:false inst
end
