(** Frontier equipartition for precedence-constrained (DAG) instances:
    WDEQ/DEQ shared over the ready frontier, after
    Garg–Gupta–Kumar–Singla (arXiv:1905.02133). *)

module Make (F : Mwct_field.Field.S) : sig
  (** Simulate a frontier-equipartition run: Algorithm 1's share rule
      over the tasks whose parents have all completed, resharing on
      every completion (which may release new tasks). The plain rule
      is {!Wdeq.Make.simulate} itself, whose batch loop honours edges,
      so instances without edges get bit-identical schedules.
      [~use_weights:false] is the unweighted policy;
      [~transitive:true] shares by remaining gated work — own weight
      times remaining height plus [Σ w_j·h_j] over the transitive
      descendants ({!Instance.Make.gated_work}), speedup-curve-aware. *)
  val simulate :
    ?use_weights:bool ->
    ?transitive:bool ->
    Types.Make(F).instance ->
    Types.Make(F).column_schedule * Wdeq.Make(F).diagnostics

  (** Frontier-WDEQ schedule (plain per-task weights by default). *)
  val wdeq :
    ?transitive:bool ->
    Types.Make(F).instance ->
    Types.Make(F).column_schedule * Wdeq.Make(F).diagnostics

  (** Frontier-DEQ (unweighted). *)
  val deq :
    ?transitive:bool ->
    Types.Make(F).instance ->
    Types.Make(F).column_schedule * Wdeq.Make(F).diagnostics
end
