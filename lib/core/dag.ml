(** Frontier equipartition for precedence-constrained (DAG) instances —
    the WDEQ/DEQ port of Garg–Gupta–Kumar–Singla (arXiv:1905.02133) to
    the malleable-task model.

    The policy is Algorithm 1 restricted to the {e ready frontier}: at
    every instant the platform is shared (by the share kernel of
    {!Wdeq.Make.Incremental}) among the tasks whose parents have all
    completed; a completion may release new tasks into the frontier,
    which trigger a reshare exactly like a completion does in the
    independent setting. The time-stepping is {!Wdeq.Make.simulate}'s
    batch loop, which reads readiness from the instance's edges; this
    module supplies only the weight rule. Because dependency edges only
    ever point at earlier tasks of a validated instance
    ({!Instance.Make.validate} runs Kahn's algorithm), the frontier is
    nonempty until everything has completed — the loop cannot
    deadlock.

    Two weighting schemes:

    - {e plain} (the default): a ready task's share weight is its own
      [w_i]. This is the library's oracle for the precedence setting —
      the natural WDEQ generalization, and what the [wdeq-dag] /
      [deq-dag] registry entries run.
    - {e transitive} ([~transitive:true]): a ready task's share weight
      is the {e remaining gated work} behind it — its own weight times
      its remaining (speedup-curve-aware) height, plus [Σ w_j·h_j] over
      its transitive descendants — so a task gating a heavy subtree is
      served first, in proportion to the work it actually unlocks (the
      GGKS subtree weighting, refined from raw weight counts to
      remaining work). Exposed behind the flag for experiments; not a
      separate registry entry.

    Zero-edge instances run {!Wdeq.Make.simulate} unchanged, so their
    schedules are {e bit-identical} to the independent-bag path
    (including the monomorphic float kernel). *)

module Make (F : Mwct_field.Field.S) = struct
  module T = Types.Make (F)
  module I = Instance.Make (F)
  module W = Wdeq.Make (F)
  open T

  (* The transitive share weight prices *remaining gated work*,
     speedup-curve-aware: a ready task's own weight times its remaining
     height [remaining_i / s_i(min(δ_i, P))] plus the static Σ w_j·h_j
     over its transitive descendants ({!Instance.Make.gated_work} — a
     descendant cannot start before its ancestor completes, so that
     term never drains while counted). Unit weights under the
     unweighted policy, so DEQ-transitive ranks by remaining descendant
     work rather than raw descendant counts. *)
  let transitive_weight ~use_weights (inst : instance) : remaining:F.t array -> int -> F.t =
    let gated = I.gated_work ~use_weights inst in
    let w i = if use_weights then inst.tasks.(i).weight else F.one in
    fun ~remaining i -> F.add (F.mul (w i) (F.div remaining.(i) (I.max_rate inst i))) gated.(i)

  (** Simulate a frontier-equipartition run to completion.
      [~use_weights:false] gives the unweighted policy (frontier-DEQ);
      [~transitive:true] replaces each ready task's share weight with
      its transitive weight. Instances without edges take the
      independent-bag simulator verbatim ({!Wdeq.Make.simulate}) —
      same bits, same diagnostics. *)
  let simulate ?(use_weights = true) ?(transitive = false) (inst : instance) :
      column_schedule * W.diagnostics =
    if transitive && I.has_deps inst then
      W.simulate_weighted ~weight:(transitive_weight ~use_weights inst) inst
    else W.simulate ~use_weights inst

  (** Frontier-WDEQ schedule of a (possibly precedence-constrained)
      instance. *)
  let wdeq ?transitive inst = simulate ~use_weights:true ?transitive inst

  (** Frontier-DEQ (unweighted) on the same instance. *)
  let deq ?transitive inst = simulate ~use_weights:false ?transitive inst
end
