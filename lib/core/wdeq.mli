(** WDEQ — Weighted Dynamic EQuipartition (Algorithm 1, Section III),
    the paper's non-clairvoyant 2-approximation (Theorem 4), simulated
    on clairvoyant instances (volumes are used only to locate the next
    completion event). *)

module Make (F : Mwct_field.Field.S) : sig
  (** Per-run diagnostics for the Lemma 2 bound: volume processed at
      full allocation ([full_volume], the paper's [VF]) and volume
      processed while limited by equipartition ([limited_volume],
      [VF̄]); the two sum to [V_i]. *)
  type diagnostics = { full_volume : F.t array; limited_volume : F.t array }

  (** The seed's iterative [List.partition] fixpoint ([O(n²)] worst
      case): one round of Algorithm 1 over [(index, weight, delta)]
      triples, kept as ground truth for equivalence tests. *)
  val shares_reference : p:F.t -> (int * F.t * F.t) list -> (int * F.t) list

  (** The share kernel — incremental (kinetic) WDEQ/DEQ: the
      saturation-ratio order kept sorted across task
      arrivals/departures, making each reshare a set of linear sweeps.
      The batch loop, the online engine and the non-clairvoyant
      policies all run it; {!shares_reference} is its oracle in the
      differential tests. *)
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
        the unique Algorithm 1 fixpoint. On the float field
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
  end

  (** The kernel's one-shot: a fresh {!Incremental} state over
      [(id, weight, cap)] triples, one reshare of them in ascending id,
      in the kernel's output order. Total shares never exceed [p]. *)
  val kinetic_shares : p:F.t -> (int * F.t * F.t) list -> (int * F.t) list

  (** Simulate a dynamic-equipartition run to completion.
      [~use_weights:false] gives DEQ (the unweighted policy of Deng et
      al.). Precedence edges are honoured: a task shares the platform
      from the completion of its last parent (the frontier rule of
      {!Dag}). On the float field, linear instances without edges
      dispatch (via the field witness) to a monomorphic loop,
      bit-identical to {!simulate_reference}. *)
  val simulate :
    ?use_weights:bool ->
    Types.Make(F).instance ->
    Types.Make(F).column_schedule * diagnostics

  (** The field-generic simulation loop, the semantic source of truth
      of {!simulate} — exposed so differential tests can pin the two
      bit-for-bit. *)
  val simulate_reference :
    ?use_weights:bool ->
    Types.Make(F).instance ->
    Types.Make(F).column_schedule * diagnostics

  (** The generic loop under a share weight [weight ~remaining i] that
      moves with the remaining volumes; the kinetic state is rebuilt
      at every event. {!Dag}'s transitive rule runs through it. *)
  val simulate_weighted :
    weight:(remaining:F.t array -> int -> F.t) ->
    Types.Make(F).instance ->
    Types.Make(F).column_schedule * diagnostics

  (** WDEQ (weighted shares). *)
  val wdeq : Types.Make(F).instance -> Types.Make(F).column_schedule * diagnostics

  (** DEQ: unweighted shares; the objective can still be evaluated with
      the instance's weights. *)
  val deq : Types.Make(F).instance -> Types.Make(F).column_schedule * diagnostics
end
