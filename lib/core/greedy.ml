(** Algorithm Greedy(σ) (Algorithm 3 of the paper).

    Tasks are inserted one by one in the order [σ]; each takes as much
    resource as possible, as early as possible: at every instant it
    runs at rate [min(δ_i, available(t))] until its volume is done.

    The availability profile is a non-decreasing step function of time
    whose breakpoints are completion times of previously inserted
    tasks, so the result is a genuine column schedule with respect to
    the sorted completion times of all tasks (see Section V). *)

module Make (F : Mwct_field.Field.S) = struct
  module T = Types.Make (F)
  module I = Instance.Make (F)
  module S = Schedule.Make (F)
  open T

  (* Availability profile: [(start, avail)] segments sorted by start;
     each extends to the next start; the last extends to infinity.
     Invariant: avail values are non-decreasing along the list and the
     last equals P. *)
  type profile = (num * num) list

  let initial_profile (inst : instance) : profile = [ (F.zero, inst.procs) ]

  (* Allocation of one task piecewise over the profile, and its
     completion time. Returns the allocation segments [(t0, t1, alloc)]
     with positive allocation and the completion time. [?speedup] is
     the task's rate law: progress accrues at [s(alloc)] — the
     allocation itself under the linear law ([None]), so the linear
     arithmetic is the historical one bit-for-bit. *)
  let place ?speedup (profile : profile) ~delta ~volume =
    let rate_of alloc = match speedup with None -> alloc | Some (bx, by) -> I.eval_curve bx by alloc in
    let rec go acc remaining = function
      | [] -> invalid_arg "Greedy.place: profile exhausted (broken invariant)"
      | (t0, avail) :: rest ->
        let alloc = F.min delta avail in
        let rate = rate_of alloc in
        let seg_end = match rest with (t1, _) :: _ -> Some t1 | [] -> None in
        let finish_here =
          (* Time to finish the remaining volume at [rate], if it fits
             in this segment. *)
          if F.sign rate <= 0 then None
          else begin
            let t_fin = F.add t0 (F.div remaining rate) in
            match seg_end with
            | Some t1 when F.compare t_fin t1 > 0 -> None
            | _ -> Some t_fin
          end
        in
        match finish_here with
        | Some t_fin ->
          let acc = if F.sign alloc > 0 then (t0, t_fin, alloc) :: acc else acc in
          (List.rev acc, t_fin)
        | None ->
          let t1 = match seg_end with Some t1 -> t1 | None -> assert false in
          let processed = F.mul rate (F.sub t1 t0) in
          let acc = if F.sign alloc > 0 then (t0, t1, alloc) :: acc else acc in
          go acc (F.sub remaining processed) rest
    in
    go [] volume profile

  (* Subtract the task's rate segments from the profile. Rate segments
     share breakpoints with the profile except for the final completion
     time, which may split a profile segment. *)
  let consume (profile : profile) (segs : (num * num * num) list) : profile =
    (* Collect all breakpoints: profile starts + segment bounds. *)
    let points =
      List.sort_uniq F.compare
        (List.map fst profile @ List.concat_map (fun (a, b, _) -> [ a; b ]) segs)
    in
    let avail_at t =
      (* Last profile entry with start <= t. *)
      let rec go last = function
        | (s, a) :: rest when F.compare s t <= 0 -> go a rest
        | _ -> last
      in
      match profile with
      | [] -> invalid_arg "Greedy.consume: empty profile"
      | (_, a0) :: rest -> go a0 rest
    in
    let rate_at t =
      let rec go = function
        | (a, b, r) :: rest -> if F.compare a t <= 0 && F.compare t b < 0 then r else go rest
        | [] -> F.zero
      in
      go segs
    in
    let raw = List.map (fun t -> (t, F.sub (avail_at t) (rate_at t))) points in
    (* Merge consecutive entries with equal availability. *)
    let rec dedup = function
      | (t1, a1) :: (_, a2) :: rest when F.equal a1 a2 -> dedup ((t1, a1) :: rest)
      | x :: rest -> x :: dedup rest
      | [] -> []
    in
    dedup raw

  (** [run inst sigma] inserts tasks in order [sigma] and returns the
      resulting column schedule. [sigma] must be a permutation of the
      task indices. *)
  let run (inst : instance) (sigma : int array) : column_schedule =
    let n = I.num_tasks inst in
    if Array.length sigma <> n then invalid_arg "Greedy.run: order length mismatch";
    let seen = Array.make n false in
    Array.iter
      (fun i ->
        if i < 0 || i >= n || seen.(i) then invalid_arg "Greedy.run: order is not a permutation";
        seen.(i) <- true)
      sigma;
    let profile = ref (initial_profile inst) in
    let task_segs = Array.make n [] in
    let completion = Array.make n F.zero in
    Array.iter
      (fun i ->
        let delta = I.effective_delta inst i in
        let volume = inst.tasks.(i).volume in
        let segs, fin = place ?speedup:(I.speedup_arrays inst i) !profile ~delta ~volume in
        task_segs.(i) <- segs;
        completion.(i) <- fin;
        profile := consume !profile segs)
      sigma;
    (* Assemble the column schedule over sorted completion times. Each
       task's rate segments feed the sparse columns directly: the rate
       is constant within a column, so averaging is exact. *)
    let order = S.sorted_order completion in
    let finish = Array.map (fun i -> completion.(i)) order in
    let columns = S.columns_of_segments ~finish task_segs in
    { instance = inst; order; finish; columns }

  (** Objective of the greedy schedule for an order. *)
  let objective (inst : instance) (sigma : int array) =
    S.weighted_completion_time (run inst sigma)
end
