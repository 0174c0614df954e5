(** Non-clairvoyant allocation policies: what a runtime that cannot see
    remaining volumes can decide at each instant. *)

module Make (F : Mwct_field.Field.S) : sig
  (** What a policy observes about one alive task. *)
  type view = { id : int; weight : F.t; cap : F.t }

  (** [Wdeq] — Algorithm 1 of the paper (weighted equipartition with
      cap clipping and surplus redistribution); [Deq] — its unweighted
      special case; [Equi] — plain [P/n] clipped to the cap, surplus
      wasted; [Priority_weight] — heaviest tasks first up to their
      caps. *)
  type t = Wdeq | Deq | Equi | Priority_weight

  val name : t -> string

  (** All policies, for sweeps. *)
  val all : t list

  (** Lookup by {!name}; [None] for unknown names. *)
  val of_name : string -> t option

  (** [shares policy ~capacity views]: one share per alive id;
      non-negative, within caps, summing to at most [capacity].
      [Wdeq]/[Deq] run the share kernel's one-shot
      ({!Mwct_core.Wdeq.Make.kinetic_shares}) over the views in
      ascending id. *)
  val shares : t -> capacity:F.t -> view list -> (int * F.t) list

  (** The policy as the online runtime's share function (the engine's
      pluggable policy slot). *)
  val engine_policy :
    t -> capacity:F.t -> Mwct_runtime.Engine.Make(F).view list -> (int * F.t) list

  (** The incremental counterpart of {!engine_policy} for the engine's
      [?kinetic] slot: the share kernel
      {!Mwct_core.Wdeq.Make.Incremental} with a fresh state per call
      (states are per-engine); [None] for policies without an
      incremental rule. *)
  val engine_kinetic : t -> Mwct_runtime.Engine.Make(F).kinetic option
end
