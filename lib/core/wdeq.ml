(** WDEQ — Weighted Dynamic EQuipartition (Algorithm 1, Section III).

    The non-clairvoyant policy: at every instant the platform is shared
    between alive tasks in proportion to their weights; a task whose
    proportional share exceeds its cap [δ_i] is clipped to [δ_i] and
    the surplus redistributed among the others, repeatedly, until a
    fixpoint. Shares are recomputed whenever a task completes.

    {b Share computation.} The fixpoint of Algorithm 1 is a monotone
    threshold in the saturation ratio [ρ_i = δ_i / w_i]: a task is
    clipped at its cap iff [ρ_i < r/w] where [r]/[w] are the residual
    processors/weight of the unclipped pool, so the clipped set is a
    prefix of the [ρ] order (DESIGN.md §6.1). {!Incremental} is the
    library's one share kernel: it keeps the alive tasks sorted by [ρ]
    across arrivals and departures, runs two clipping rounds in id
    order (which settle almost every real fixpoint), and only when
    clipping cascades binary-searches the frontier over prefix sums
    of the maintained order. The batch simulator, the online engine
    and the non-clairvoyant policies all run it; {!shares_reference},
    the seed's [List.partition] fixpoint, is kept as the test oracle.

    The module {e simulates} the policy on a clairvoyant instance
    (volumes are used only to find the next completion event, exactly
    as a real execution would reveal it) and records the diagnostics
    needed to check Lemma 2's bound
    [TC_WD(I) <= 2·(A(I[VF̄]) + H(I[VF]))]. One kinetic state holds
    the ready tasks: they join when their last parent completes (at
    [t = 0] on an instance without edges) and leave on completion, so
    a full run is [O(n²)], dominated by emitting the (sparse)
    per-column shares. *)

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
      worst case. The test oracle for {!Incremental}; production code
      goes through the kernel. *)
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

  (** Incremental (kinetic) WDEQ/DEQ: the saturation-ratio frontier
      maintained across events instead of rebuilt per reshare.

      A reshare is two [List.partition]-style clipping rounds in id
      order plus — only when clipping cascades — a frontier over the
      residual pool in saturation-ratio order [cap/weight]. Sorting
      that pool afresh would be the O(n log n) term of every reshare.
      Here the ratio order is {e kinetic} state: a slot-indexed sorted
      array updated by binary-search insert/remove as tasks arrive and
      leave (O(n) blit per event), so a reshare is pure linear sweeps
      — the frontier order is read off the maintained array (the
      comparator is a strict total order, ids breaking ties, so the
      maintained order restricted to any subset {e is} the fresh sort
      of that subset).

      The float kernel behind {!shares_into} and the field-generic
      {!generic_shares_into} compute the same predicates in the same
      id order, the same sequential residual folds, the same prefix
      sums and binary-searched clipping frontier — verified bit for
      bit by the differential tests. *)
  module Incremental = struct
    type state = {
      use_weights : bool;  (** [false] maps every weight to [F.one] (DEQ) *)
      (* slot-indexed task attributes, mirroring the engine's columns *)
      mutable w : F.t array;
      mutable d : F.t array;
      mutable ids : int array;
      (* the kinetic frontier: alive slots sorted by [d/w] ratio, id tie-break *)
      mutable rank : int array;
      mutable n : int;
      (* reshare scratch (no allocation per call once grown) *)
      mutable status : int array;  (* 0 unsaturated, 1 round-1 clip, 2 round-2 clip *)
      mutable rest2 : int array;  (* residual pool in rank order *)
      mutable pd : F.t array;  (* prefix caps over [rest2] *)
      mutable pw : F.t array;  (* prefix weights over [rest2] *)
    }

    (* An empty state with room for [n] slots before it grows. *)
    let sized ~use_weights n =
      {
        use_weights;
        w = Array.make n F.zero;
        d = Array.make n F.zero;
        ids = Array.make n 0;
        rank = Array.make n 0;
        n = 0;
        status = Array.make n 0;
        rest2 = Array.make n 0;
        pd = Array.make (n + 1) F.zero;
        pw = Array.make (n + 1) F.zero;
      }

    let create ~use_weights () = sized ~use_weights 64

    let ensure st slot =
      let len = Array.length st.w in
      if slot >= len then begin
        let m = Stdlib.max (2 * len) (slot + 1) in
        let g z a = let b = Array.make m z in Array.blit a 0 b 0 len; b in
        st.w <- g F.zero st.w;
        st.d <- g F.zero st.d;
        st.ids <- g 0 st.ids;
        st.rank <- g 0 st.rank;
        st.status <- g 0 st.status;
        st.rest2 <- g 0 st.rest2;
        st.pd <- (let b = Array.make (m + 1) F.zero in Array.blit st.pd 0 b 0 (len + 1); b);
        st.pw <- (let b = Array.make (m + 1) F.zero in Array.blit st.pw 0 b 0 (len + 1); b)
      end

    (* The frontier order: strict total (ids are unique while alive).
       On the float field the same comparison runs unboxed
       ([F.compare] is [Float.compare]). *)
    let cmp_generic st a b =
      let c = F.compare (F.mul st.d.(a) st.w.(b)) (F.mul st.d.(b) st.w.(a)) in
      if c <> 0 then c else Stdlib.compare st.ids.(a) st.ids.(b)

    let cmp_float : (state -> int -> int -> int) option =
      match F.witness with
      | Mwct_field.Field.Any -> None
      | Mwct_field.Field.Float ->
        Some
          (fun st a b ->
            let c = Float.compare (st.d.(a) *. st.w.(b)) (st.d.(b) *. st.w.(a)) in
            if c <> 0 then c else Stdlib.compare st.ids.(a) st.ids.(b))

    let cmp st a b = match cmp_float with Some f -> f st a b | None -> cmp_generic st a b

    let add st ~slot ~id ~weight ~cap =
      ensure st slot;
      st.w.(slot) <- (if st.use_weights then weight else F.one);
      st.d.(slot) <- cap;
      st.ids.(slot) <- id;
      let lo = ref 0 and hi = ref st.n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cmp st st.rank.(mid) slot < 0 then lo := mid + 1 else hi := mid
      done;
      let pos = !lo in
      Array.blit st.rank pos st.rank (pos + 1) (st.n - pos);
      st.rank.(pos) <- slot;
      st.n <- st.n + 1

    let remove st ~slot =
      let lo = ref 0 and hi = ref (st.n - 1) in
      let pos = ref (-1) in
      while !pos < 0 && !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        let c = cmp st st.rank.(mid) slot in
        if c = 0 then pos := mid else if c < 0 then lo := mid + 1 else hi := mid - 1
      done;
      let pos = !pos in
      if pos >= 0 then begin
        Array.blit st.rank (pos + 1) st.rank pos (st.n - 1 - pos);
        st.n <- st.n - 1
      end

    (* The reshare over the [n] slots of [by_id] (ascending id): fills
       [share] (slot-indexed) and [order] (output order — clipped
       round 1 in id order, then clipped round 2 in id order, then the
       frontier pool in ratio order). *)
    let generic_shares_into st ~capacity ~n ~(by_id : int array) ~(share : F.t array)
        ~(order : int array) =
      if n > 0 then begin
        let w0 = ref F.zero in
        for i = 0 to n - 1 do
          w0 := F.add !w0 st.w.(by_id.(i))
        done;
        let w0 = !w0 in
        (* round 1: who clips at the fair share r0/w0? *)
        let nv1 = ref 0 in
        for i = 0 to n - 1 do
          let s = by_id.(i) in
          if F.compare (F.mul st.d.(s) w0) (F.mul st.w.(s) capacity) < 0 then begin
            st.status.(s) <- 1;
            incr nv1
          end
          else st.status.(s) <- 0
        done;
        if !nv1 = 0 then begin
          (* nobody clips: plain weighted equipartition, id order *)
          let pos = F.sign w0 > 0 in
          for i = 0 to n - 1 do
            let s = by_id.(i) in
            order.(i) <- s;
            share.(s) <- (if pos then F.div (F.mul st.w.(s) capacity) w0 else F.zero)
          done
        end
        else begin
          let r1 = ref capacity and w1 = ref w0 in
          for i = 0 to n - 1 do
            let s = by_id.(i) in
            if st.status.(s) = 1 then begin
              r1 := F.sub !r1 st.d.(s);
              w1 := F.sub !w1 st.w.(s)
            end
          done;
          let r1 = !r1 and w1 = !w1 in
          (* round 2 over the survivors *)
          let nv2 = ref 0 in
          for i = 0 to n - 1 do
            let s = by_id.(i) in
            if st.status.(s) = 0 && F.compare (F.mul st.d.(s) w1) (F.mul st.w.(s) r1) < 0 then begin
              st.status.(s) <- 2;
              incr nv2
            end
          done;
          let j = ref 0 in
          for i = 0 to n - 1 do
            let s = by_id.(i) in
            if st.status.(s) = 1 then begin
              order.(!j) <- s;
              incr j;
              share.(s) <- st.d.(s)
            end
          done;
          if !nv2 = 0 then begin
            (* round 2 settles: survivors share the residual, id order *)
            let pos = F.sign w1 > 0 in
            for i = 0 to n - 1 do
              let s = by_id.(i) in
              if st.status.(s) = 0 then begin
                order.(!j) <- s;
                incr j;
                share.(s) <- (if pos then F.div (F.mul st.w.(s) r1) w1 else F.zero)
              end
            done
          end
          else begin
            (* cascade: clip round 2 (id order), frontier on the rest *)
            let r2 = ref r1 and w2 = ref w1 in
            for i = 0 to n - 1 do
              let s = by_id.(i) in
              if st.status.(s) = 2 then begin
                r2 := F.sub !r2 st.d.(s);
                w2 := F.sub !w2 st.w.(s)
              end
            done;
            let r2 = !r2 and w2 = !w2 in
            for i = 0 to n - 1 do
              let s = by_id.(i) in
              if st.status.(s) = 2 then begin
                order.(!j) <- s;
                incr j;
                share.(s) <- st.d.(s)
              end
            done;
            (* the residual pool in ratio order, read off the kinetic
               array instead of sorted afresh *)
            let m = ref 0 in
            for k = 0 to st.n - 1 do
              let s = st.rank.(k) in
              if st.status.(s) = 0 then begin
                st.rest2.(!m) <- s;
                incr m
              end
            done;
            let m = !m in
            st.pd.(0) <- F.zero;
            st.pw.(0) <- F.zero;
            for k = 0 to m - 1 do
              let s = st.rest2.(k) in
              st.pd.(k + 1) <- F.add st.pd.(k) st.d.(s);
              st.pw.(k + 1) <- F.add st.pw.(k) st.w.(s)
            done;
            let sat_ok k =
              k = m
              ||
              let s = st.rest2.(k) in
              let r' = F.sub r2 st.pd.(k) and w' = F.sub w2 st.pw.(k) in
              F.sign w' <= 0 || F.compare (F.mul st.d.(s) w') (F.mul st.w.(s) r') >= 0
            in
            let lo = ref 0 and hi = ref m in
            while !lo < !hi do
              let mid = (!lo + !hi) / 2 in
              if sat_ok mid then hi := mid else lo := mid + 1
            done;
            let ksat = !lo in
            let r' = F.sub r2 st.pd.(ksat) and w' = F.sub w2 st.pw.(ksat) in
            let pos = F.sign w' > 0 in
            for k = 0 to m - 1 do
              let s = st.rest2.(k) in
              order.(!j) <- s;
              incr j;
              share.(s) <-
                (if k < ksat then st.d.(s)
                 else if pos then F.div (F.mul st.w.(s) r') w'
                 else F.zero)
            done
          end
        end
      end

    (* Monomorphic replica of {!generic_shares_into} for [F.t = float],
       recovered through the field witness (as the engine's advance
       kernel is, DESIGN.md §12). Every column is then a flat float
       array and every intermediate an unboxed float, so a reshare
       allocates nothing; without flambda the generic kernel boxes each
       [F.mul]/[F.compare] operand and each column read.

       The arithmetic is the generic kernel's term for term: the same
       predicates ([F.compare] is [Float.compare], [F.sign x > 0] is
       [x > 0.]), the same id-order folds, the same prefix sums and
       binary-searched frontier, [(w·r)/W] never reassociated. Sweeps
       are fused only where the fold order is unchanged: round 1
       accumulates the residual [r1]/[w1] while it classifies, round 2
       accumulates [r2]/[w2] while it emits the round-1 clips, and the
       residual pool's prefix sums are taken as it is gathered. The
       frontier test is written inline — a [sat_ok] closure would box
       the floats it captures. The differential tests pin this kernel
       against the generic one bit for bit. *)
    let float_shares_into :
        (state -> F.t -> int -> int array -> F.t array -> int array -> unit) option =
      match F.witness with
      | Mwct_field.Field.Any -> None
      | Mwct_field.Field.Float ->
        Some
          (fun st capacity n by_id share order ->
            if n > 0 then begin
              let w = st.w and d = st.d and status = st.status in
              let w0 = ref 0. in
              for i = 0 to n - 1 do
                w0 := !w0 +. w.(by_id.(i))
              done;
              let w0 = !w0 in
              (* round 1: who clips at the fair share r0/w0? *)
              let nv1 = ref 0 and r1 = ref capacity and w1 = ref w0 in
              for i = 0 to n - 1 do
                let s = by_id.(i) in
                if Float.compare (d.(s) *. w0) (w.(s) *. capacity) < 0 then begin
                  status.(s) <- 1;
                  incr nv1;
                  r1 := !r1 -. d.(s);
                  w1 := !w1 -. w.(s)
                end
                else status.(s) <- 0
              done;
              if !nv1 = 0 then begin
                let pos = w0 > 0. in
                for i = 0 to n - 1 do
                  let s = by_id.(i) in
                  order.(i) <- s;
                  share.(s) <- (if pos then w.(s) *. capacity /. w0 else 0.)
                done
              end
              else begin
                let r1 = !r1 and w1 = !w1 in
                (* round 2 over the survivors; round-1 clips go out first *)
                let nv2 = ref 0 and r2 = ref r1 and w2 = ref w1 and j = ref 0 in
                for i = 0 to n - 1 do
                  let s = by_id.(i) in
                  let st_s = status.(s) in
                  if st_s = 1 then begin
                    order.(!j) <- s;
                    incr j;
                    share.(s) <- d.(s)
                  end
                  else if st_s = 0 && Float.compare (d.(s) *. w1) (w.(s) *. r1) < 0 then begin
                    status.(s) <- 2;
                    incr nv2;
                    r2 := !r2 -. d.(s);
                    w2 := !w2 -. w.(s)
                  end
                done;
                if !nv2 = 0 then begin
                  let pos = w1 > 0. in
                  for i = 0 to n - 1 do
                    let s = by_id.(i) in
                    if status.(s) = 0 then begin
                      order.(!j) <- s;
                      incr j;
                      share.(s) <- (if pos then w.(s) *. r1 /. w1 else 0.)
                    end
                  done
                end
                else begin
                  let r2 = !r2 and w2 = !w2 in
                  for i = 0 to n - 1 do
                    let s = by_id.(i) in
                    if status.(s) = 2 then begin
                      order.(!j) <- s;
                      incr j;
                      share.(s) <- d.(s)
                    end
                  done;
                  (* the residual pool in ratio order with its prefix sums *)
                  let rank = st.rank and rest2 = st.rest2 and pd = st.pd and pw = st.pw in
                  let m = ref 0 in
                  pd.(0) <- 0.;
                  pw.(0) <- 0.;
                  for k = 0 to st.n - 1 do
                    let s = rank.(k) in
                    if status.(s) = 0 then begin
                      let m' = !m in
                      rest2.(m') <- s;
                      pd.(m' + 1) <- pd.(m') +. d.(s);
                      pw.(m' + 1) <- pw.(m') +. w.(s);
                      m := m' + 1
                    end
                  done;
                  let m = !m in
                  let lo = ref 0 and hi = ref m in
                  while !lo < !hi do
                    let mid = (!lo + !hi) / 2 in
                    let s = rest2.(mid) in
                    let w' = w2 -. pw.(mid) in
                    if
                      (not (w' > 0.))
                      || Float.compare (d.(s) *. w') (w.(s) *. (r2 -. pd.(mid))) >= 0
                    then hi := mid
                    else lo := mid + 1
                  done;
                  let ksat = !lo in
                  let r' = r2 -. pd.(ksat) and w' = w2 -. pw.(ksat) in
                  let pos = w' > 0. in
                  for k = 0 to m - 1 do
                    let s = rest2.(k) in
                    order.(!j) <- s;
                    incr j;
                    share.(s) <-
                      (if k < ksat then d.(s) else if pos then w.(s) *. r' /. w' else 0.)
                  done
                end
              end
            end)

    (* The one reshare entry point: the float kernel when the field is
       float, the generic kernel (the exact-field path) otherwise. *)
    let shares_into st ~capacity ~n ~by_id ~share ~order =
      match float_shares_into with
      | Some k -> k st capacity n by_id share order
      | None -> generic_shares_into st ~capacity ~n ~by_id ~share ~order
  end

  (** The kernel's one-shot: a fresh kinetic state over [alive]
      ([(id, weight, cap)] triples), one reshare, returned in the
      kernel's output order. The tasks are reshared in ascending id,
      the order the engine and the batch loop feed. *)
  let kinetic_shares ~p alive : (int * F.t) list =
    let n = List.length alive in
    (* sized to the call: the list policy runs this per reshare (the
       shard allocator once per tick), so a default-sized state would
       dominate its allocation *)
    let st = Incremental.sized ~use_weights:true (Stdlib.max n 1) in
    List.iteri (fun slot (id, weight, cap) -> Incremental.add st ~slot ~id ~weight ~cap) alive;
    let ids = st.Incremental.ids in
    let by_id = Array.init n (fun i -> i) in
    (* callers mostly pass ascending ids already; sort only if not *)
    let sorted = ref true in
    for k = 1 to n - 1 do
      if ids.(k - 1) > ids.(k) then sorted := false
    done;
    if not !sorted then Array.sort (fun a b -> Int.compare ids.(a) ids.(b)) by_id;
    let share = Array.make (Stdlib.max n 1) F.zero in
    let order = Array.make (Stdlib.max n 1) 0 in
    Incremental.shares_into st ~capacity:p ~n ~by_id ~share ~order;
    List.init n (fun k ->
        let s = order.(k) in
        (ids.(s), share.(s)))

  (* Insert [i] into the ascending prefix [a.(0..m-1)]. *)
  let insert_sorted (a : int array) m i =
    let lo = ref 0 and hi = ref m in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if a.(mid) < i then lo := mid + 1 else hi := mid
    done;
    Array.blit a !lo a (!lo + 1) (m - !lo);
    a.(!lo) <- i

  (* The batch loop, field-generic — the semantic source of truth for
     {!simulate}. One kinetic state (slot = id = task index) holds the
     [ready] tasks, kept in ascending index: a task joins when its last
     parent completes (every task of a zero-edge instance joins at
     t = 0) and leaves when it completes. [weight ~remaining i] is its
     share weight; when [moving], that weight depends on [remaining],
     so the ratio order moves too and the state is rebuilt at every
     event. *)
  let run ~moving ~(weight : remaining:F.t array -> int -> F.t) (inst : instance) :
      column_schedule * diagnostics =
    let n = I.num_tasks inst in
    let delta = Array.init n (fun i -> I.effective_delta inst i) in
    let remaining = Array.map (fun t -> t.volume) inst.tasks in
    let children = I.dep_children inst in
    let unmet = Array.init n (fun i -> Array.length inst.tasks.(i).deps) in
    let full_volume = Array.make n F.zero in
    let limited_volume = Array.make n F.zero in
    let order = Array.make n 0 in
    let finish = Array.make n F.zero in
    let columns = Array.make n [] in
    let share = Array.make n F.zero in
    (* Progress rate of each ready task at its current share; equals
       the share itself under the linear law. *)
    let rate = Array.make n F.zero in
    let out_order = Array.make n 0 in
    let st = ref (Incremental.create ~use_weights:true ()) in
    let join i = Incremental.add !st ~slot:i ~id:i ~weight:(weight ~remaining i) ~cap:delta.(i) in
    let ready = Array.make n 0 in
    let m = ref 0 in
    for i = 0 to n - 1 do
      if unmet.(i) = 0 then begin
        ready.(!m) <- i;
        incr m;
        if not moving then join i
      end
    done;
    let t_now = ref F.zero in
    let col = ref 0 in
    while !col < n do
      let m0 = !m in
      if moving then begin
        st := Incremental.create ~use_weights:true ();
        for k = 0 to m0 - 1 do
          join ready.(k)
        done
      end;
      Incremental.generic_shares_into !st ~capacity:inst.procs ~n:m0 ~by_id:ready ~share
        ~order:out_order;
      (* Time to the next completion, and the first task reaching it
         ([best < 0] encodes "none yet"). *)
      let t_best = ref F.zero in
      let best = ref (-1) in
      for k = 0 to m0 - 1 do
        let i = ready.(k) in
        rate.(i) <- I.rate_at inst i share.(i);
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
         volume for the Lemma 2 diagnostics; collect completions in
         ascending index. *)
      let finished = ref [] in
      for k = m0 - 1 downto 0 do
        let i = ready.(k) in
        let processed = F.mul rate.(i) dt in
        remaining.(i) <- F.sub remaining.(i) processed;
        if F.equal_approx share.(i) delta.(i) then full_volume.(i) <- F.add full_volume.(i) processed
        else limited_volume.(i) <- F.add limited_volume.(i) processed;
        if F.leq_approx remaining.(i) F.zero then finished := i :: !finished
      done;
      (* A large volume can leave the task the step was sized for a
         float residue above the completion tolerance ([rem - r·(rem/r)]
         is off by up to an ulp of [rem]); that first-min task completes
         regardless. Only runs that used to fail reach this case, so no
         successful schedule changes. *)
      let finished = match !finished with [] -> [ !best ] | l -> l in
      (* The sparse column: ready tasks with positive shares, by
         ascending task index. *)
      let column = ref [] in
      for k = m0 - 1 downto 0 do
        let i = ready.(k) in
        if F.sign share.(i) > 0 then column := (i, share.(i)) :: !column
      done;
      (* One column per completed task: the first carries the duration,
         simultaneous completions give zero-length columns. *)
      List.iteri
        (fun k i ->
          let j = !col + k in
          order.(j) <- i;
          finish.(j) <- t_end;
          unmet.(i) <- -1;
          if not moving then Incremental.remove !st ~slot:i;
          if k = 0 then columns.(j) <- !column)
        finished;
      col := !col + List.length finished;
      t_now := t_end;
      let keep = ref 0 in
      for k = 0 to m0 - 1 do
        let i = ready.(k) in
        if unmet.(i) = 0 then begin
          ready.(!keep) <- i;
          incr keep
        end
      done;
      m := !keep;
      (* Completions release the children whose last parent they were. *)
      List.iter
        (fun i ->
          List.iter
            (fun c ->
              unmet.(c) <- unmet.(c) - 1;
              if unmet.(c) = 0 then begin
                insert_sorted ready !m c;
                incr m;
                if not moving then join c
              end)
            children.(i))
        finished
    done;
    ({ instance = inst; order; finish; columns }, { full_volume; limited_volume })

  (** Field-generic simulation loop — the semantic source of truth for
      {!simulate}, which dispatches to a monomorphic float kernel when
      the field witness allows it. Exposed for the differential tests
      pinning the kernel bit-for-bit. *)
  let simulate_reference ?(use_weights = true) (inst : instance) : column_schedule * diagnostics =
    run ~moving:false
      ~weight:(fun ~remaining:_ i -> if use_weights then inst.tasks.(i).weight else F.one)
      inst

  (** The batch loop under a share weight that moves with the
      remaining volumes (the precedence module's transitive rule). *)
  let simulate_weighted ~weight (inst : instance) = run ~moving:true ~weight inst

  (* Monomorphic replica of {!simulate_reference} for [F.t = float] on
     linear instances without edges, recovered through the field
     witness: flat float arrays, unboxed arithmetic, the kinetic
     state's float kernel. The arithmetic is kept literally the generic
     loop's — [Float.compare] selections, [remaining /. s] event
     horizons, [rem <= eps] completion and [abs (s -. delta) <= eps]
     saturation tolerances (the [leq_approx] / [equal_approx] of
     {!Mwct_field.Field.Float_field}, the witness's single float
     inhabitant), no FMA contraction — and the float kernel is the
     generic one bit for bit, so the schedules are bit-identical,
     which the kernel equivalence tests pin. *)
  let simulate_float_opt :
      (use_weights:bool -> instance -> column_schedule * diagnostics) option =
    match (F.witness, Incremental.float_shares_into) with
    | Mwct_field.Field.Any, _ | _, None -> None
    | Mwct_field.Field.Float, Some kernel ->
      let eps = Mwct_field.Field.Float_field.epsilon in
      Some
        (fun ~use_weights (inst : instance) ->
          let n = I.num_tasks inst in
          let p = inst.procs in
          let delta = Array.init n (fun i -> I.effective_delta inst i) in
          let remaining = Array.map (fun t -> t.volume) inst.tasks in
          let st = Incremental.create ~use_weights:true () in
          for i = 0 to n - 1 do
            let weight = if use_weights then inst.tasks.(i).weight else 1. in
            Incremental.add st ~slot:i ~id:i ~weight ~cap:delta.(i)
          done;
          let alive = Array.make n true in
          let full_volume = Array.make n 0. in
          let limited_volume = Array.make n 0. in
          let order = Array.make n 0 in
          let finish = Array.make n 0. in
          let columns : (int * float) list array = Array.make n [] in
          let ready = Array.init n (fun i -> i) in
          let share = Array.make n 0. in
          let out_order = Array.make n 0 in
          let finished_buf = Array.make n 0 in
          let t_now = ref 0. in
          let col = ref 0 in
          let m = ref n in
          while !col < n do
            let m0 = !m in
            kernel st p m0 ready share out_order;
            (* time to the next completion *)
            let t_best = ref 0. in
            let best = ref (-1) in
            for k = 0 to m0 - 1 do
              let i = Array.unsafe_get ready k in
              let s = Array.unsafe_get share i in
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
              let i = Array.unsafe_get ready k in
              let s = Array.unsafe_get share i in
              let processed = s *. dt in
              let rem = Array.unsafe_get remaining i -. processed in
              Array.unsafe_set remaining i rem;
              if Float.abs (s -. Array.unsafe_get delta i) <= eps then
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
            let column = ref [] in
            for k = m0 - 1 downto 0 do
              let i = ready.(k) in
              if share.(i) > 0. then column := (i, share.(i)) :: !column
            done;
            for k = 0 to !nfin - 1 do
              let i = finished_buf.(k) in
              let j = !col + k in
              order.(j) <- i;
              finish.(j) <- t_end;
              alive.(i) <- false;
              Incremental.remove st ~slot:i;
              if k = 0 then columns.(j) <- !column
            done;
            col := !col + !nfin;
            t_now := t_end;
            let keep = ref 0 in
            for k = 0 to m0 - 1 do
              let i = ready.(k) in
              if alive.(i) then begin
                ready.(!keep) <- i;
                incr keep
              end
            done;
            m := !keep
          done;
          ({ instance = inst; order; finish; columns }, { full_volume; limited_volume }))

  (** Simulate a dynamic-equipartition run. [use_weights = false] gives
      plain DEQ (Deng et al.), the unweighted special case. On the
      float field with the linear rate law and no precedence edges
      this runs the monomorphic kernel (bit-identical to
      {!simulate_reference}, several times faster at scale); curved or
      precedence-constrained instances take the generic path. *)
  let simulate ?(use_weights = true) (inst : instance) : column_schedule * diagnostics =
    match simulate_float_opt with
    | Some f when not (I.has_curves inst || I.has_deps inst) -> f ~use_weights inst
    | _ -> simulate_reference ~use_weights inst

  (** WDEQ schedule of an instance. *)
  let wdeq inst = simulate ~use_weights:true inst

  (** DEQ (unweighted dynamic equipartition) on the same instance; the
      schedule ignores weights but the objective can still be evaluated
      with them. *)
  let deq inst = simulate ~use_weights:false inst
end
