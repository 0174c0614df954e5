(** Optimal schedules through linear programming (Corollary 1): for a
    fixed completion order the best schedule is an LP; the global
    optimum enumerates orders. Exact when instantiated with
    rationals — the ground truth of the Section V-A experiments. *)

module Make (F : Mwct_field.Field.S) : sig
  (** Best schedule whose completion order is [pi] ([pi.(j)] finishes
      [j]-th), as [(objective, schedule)]. [None] if the LP is
      infeasible (cannot happen for valid instances). *)
  val optimal_for_order :
    Types.Make(F).instance -> int array -> (F.t * Types.Make(F).column_schedule) option

  (** Global optimum by enumerating all [n!] completion orders;
      guarded to [n <= max_tasks] (default 8, raises
      [Invalid_argument] beyond).

      Ties: the incumbent is kept unless a later order is better by
      more than [F.leq_approx]'s tolerance — none on exact fields, an
      absolute [1e-9] ({!Mwct_field.Field.Float_field.epsilon}) in
      Σw·C on the float field. Orders whose objectives differ only by
      LP rounding noise therefore resolve to the earliest in
      enumeration order (Heap's algorithm from the identity), on both
      fields alike. *)
  val optimal : ?max_tasks:int -> Types.Make(F).instance -> F.t * Types.Make(F).column_schedule

  (** Best greedy objective and insertion order over all [n!] orders
      (the Section V-A quantity), same guard and the same tie rule as
      {!optimal}. *)
  val best_greedy : ?max_tasks:int -> Types.Make(F).instance -> F.t * int array
end
