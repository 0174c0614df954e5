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
      non-negative, within caps, summing to at most [capacity]. *)
  val shares : t -> capacity:F.t -> view list -> (int * F.t) list

  (** The policy as the online runtime's share function (the engine's
      pluggable policy slot). *)
  val engine_policy :
    t -> capacity:F.t -> Mwct_runtime.Engine.Make(F).view list -> (int * F.t) list

  (** Incremental (kinetic) WDEQ/DEQ: the saturation-ratio order kept
      sorted across task arrivals/departures, making each reshare a set
      of linear sweeps. Bit-identical to {!shares} by contract; the
      full kernel stays the oracle in the differential tests. *)
  module Incremental : sig
    type state

    (** [create ~use_weights ()] — an empty kinetic state;
        [use_weights:false] is DEQ (every weight treated as [1]). *)
    val create : use_weights:bool -> unit -> state

    (** Track a task. [slot] is the caller's dense index (the engine's
        slot number); [id] breaks ratio ties, keeping the order total. *)
    val add : state -> slot:int -> id:int -> weight:F.t -> cap:F.t -> unit

    (** Forget a task. [slot]'s attributes must still be those of the
        matching {!add} (the engine removes before any slot reuse). *)
    val remove : state -> slot:int -> unit

    (** Fill [share] (slot-indexed) and [order] (output order) for the
        [n] tracked slots listed in [by_id] (ascending external id) —
        the exact shares and output order of
        [shares ~capacity (views in by_id order)]. On the float field
        this runs a monomorphic kernel that allocates nothing; on other
        fields it is {!generic_shares_into}. *)
    val shares_into :
      state ->
      capacity:F.t ->
      n:int ->
      by_id:int array ->
      share:F.t array ->
      order:int array ->
      unit

    (** The field-generic reshare kernel: the exact-field path, and the
        oracle the float kernel behind {!shares_into} is tested against
        bit for bit. *)
    val generic_shares_into :
      state ->
      capacity:F.t ->
      n:int ->
      by_id:int array ->
      share:F.t array ->
      order:int array ->
      unit

    (** A fresh state wrapped as the engine's kinetic interface. *)
    val kinetic : use_weights:bool -> unit -> Mwct_runtime.Engine.Make(F).kinetic
  end

  (** The incremental counterpart of {!engine_policy} for the engine's
      [?kinetic] slot (fresh state per call — states are per-engine);
      [None] for policies without an incremental rule. *)
  val engine_kinetic : t -> Mwct_runtime.Engine.Make(F).kinetic option

  (** One-shot incremental reshare over a view list, for differential
      testing against [shares] on the same views sorted by id (the
      order the engine feeds). [None] when the policy has no
      incremental rule. *)
  val shares_incremental : t -> capacity:F.t -> view list -> (int * F.t) list option
end
