(** Non-clairvoyant allocation policies.

    A policy sees only what a real runtime would see: the set of
    currently-alive tasks with their weights and caps — never the
    remaining volumes. It returns a share (a fractional processor
    count) per alive task; the simulator guarantees the shares are
    clipped to the caps and to the total capacity before use, so a
    policy returning slightly-infeasible shares is still safe.

    [Wdeq] is Algorithm 1 of the paper; [Deq] its unweighted special
    case; [Equi] ignores caps in the fair share (then gets clipped) —
    the classical equipartition; [Priority_weight] gives everything to
    the heaviest alive tasks first (a greedy non-clairvoyant
    heuristic). *)

module Make (F : Mwct_field.Field.S) = struct
  module En = Mwct_runtime.Engine.Make (F)
  module W = Mwct_core.Wdeq.Make (F)

  (** What a policy may observe about one alive task. *)
  type view = { id : int; weight : F.t; cap : F.t }

  type t = Wdeq | Deq | Equi | Priority_weight

  let name = function
    | Wdeq -> "wdeq"
    | Deq -> "deq"
    | Equi -> "equi"
    | Priority_weight -> "priority-weight"

  let all = [ Wdeq; Deq; Equi; Priority_weight ]

  (** Lookup by {!name}; [None] for unknown names. *)
  let of_name s = List.find_opt (fun p -> String.equal (name p) s) all

  (** [shares policy ~capacity views] — the allocation for this
      instant. Always returns every alive id exactly once, with
      non-negative shares summing to at most [capacity]. [Wdeq]/[Deq]
      are the share kernel's one-shot ({!Mwct_core.Wdeq.Make.kinetic_shares}),
      which reshares the views in ascending id. *)
  let shares (policy : t) ~(capacity : F.t) (views : view list) : (int * F.t) list =
    match views with
    | [] -> []
    | _ -> (
      match policy with
      | Wdeq -> W.kinetic_shares ~p:capacity (List.map (fun v -> (v.id, v.weight, v.cap)) views)
      | Deq -> W.kinetic_shares ~p:capacity (List.map (fun v -> (v.id, F.one, v.cap)) views)
      | Equi ->
        (* Plain 1/n share clipped to the cap; surplus is wasted (the
           point of comparing against DEQ). *)
        let fair = F.div capacity (F.of_int (List.length views)) in
        List.map (fun v -> (v.id, F.min fair v.cap)) views
      | Priority_weight ->
        (* Heaviest first, each up to its cap, until capacity runs out. *)
        let sorted =
          List.sort (fun a b ->
              let c = F.compare b.weight a.weight in
              if c <> 0 then c else Stdlib.compare a.id b.id)
            views
        in
        let remaining = ref capacity in
        List.map
          (fun v ->
            let give = F.min v.cap !remaining in
            let give = F.max F.zero give in
            remaining := F.sub !remaining give;
            (v.id, give))
          sorted)

  (** The policy as the online runtime's share function — the bridge
      between this module's view records and
      {!Mwct_runtime.Engine.Make}. Applicative functors keep the field
      types shared, so no conversion beyond the record relabeling. *)
  let engine_policy (p : t) : En.policy =
   fun ~capacity views ->
    shares p ~capacity
      (List.map (fun (v : En.view) -> { id = v.En.id; weight = v.En.weight; cap = v.En.cap }) views)

  (* A fresh kernel state (states are per-engine) wrapped as the
     engine's kinetic interface. *)
  let kinetic ~use_weights : En.kinetic =
    let st = W.Incremental.create ~use_weights () in
    {
      En.k_add = (fun ~slot ~id ~weight ~cap -> W.Incremental.add st ~slot ~id ~weight ~cap);
      En.k_remove = (fun ~slot -> W.Incremental.remove st ~slot);
      En.k_shares =
        (fun ~capacity ~n ~by_id ~share ~order ->
          W.Incremental.shares_into st ~capacity ~n ~by_id ~share ~order);
    }

  (** The incremental counterpart of {!engine_policy}, for the engine's
      [?kinetic] slot: the share kernel {!Mwct_core.Wdeq.Make.Incremental}
      with a fresh state per call. Bit-identical to {!engine_policy} on
      the ascending-id views the engine feeds. [None] for policies
      without an incremental rule (they fall back to the list path). *)
  let engine_kinetic (p : t) : En.kinetic option =
    match p with
    | Wdeq -> Some (kinetic ~use_weights:true)
    | Deq -> Some (kinetic ~use_weights:false)
    | Equi | Priority_weight -> None
end
