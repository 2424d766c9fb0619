(** Top-level planning facade: pick an algorithm, hand it training
    data (or any probability backend), get a conditional plan plus its
    expected training cost and the search effort spent producing it. This is
    the API the examples, the CLI, the sensor basestation, and the
    benchmark harness all build on.

    Every call creates a private {!Search.t} context and threads it
    through the whole planner stack, so calls are re-entrant: nothing
    is shared between invocations, and interleaved or repeated calls
    return identical plans with independent statistics. *)

type algorithm =
  | Naive  (** rank by cost/(1 - selectivity), correlation-blind *)
  | Corr_seq  (** best sequential plan (OptSeq or GreedySeq) *)
  | Heuristic  (** greedy conditional planner, Figure 7 *)
  | Exhaustive  (** optimal conditional planner, Figure 5 *)
  | Pac
      (** sampling-based PAC sequential planner ({!Pac}): plans
          against confidence intervals, refines samples only where
          order decisions are ambiguous, and attaches an
          (epsilon, delta) {!Search.certificate} to its stats. {!plan}
          builds it over the sampled backend
          ({!Acq_prob.Backend.default_sampled_kind}) unless
          [prob_model] already selects sampling parameters. *)

val algorithm_name : algorithm -> string

type options = {
  split_points_per_attr : int;
      (** equal-width candidate thresholds per attribute (plus each
          query predicate's boundaries); the SPSF knob *)
  max_splits : int;  (** Heuristic-k's k *)
  optseq_threshold : int;
      (** widest query OptSeq handles before falling back to
          GreedySeq *)
  candidate_attrs : int list option;
      (** restrict conditioning attributes (e.g. cheap ones only);
          [None] = all *)
  exhaustive_budget : int;
      (** search-node budget for {!Exhaustive} (subproblem expansions
          plus the nested sequential seeding) *)
  search_budget : int option;
      (** node budget applied to {e every} algorithm's {!Search.t}
          context — the knob adaptive replanning uses to bound one
          replan's effort regardless of planner. For {!Exhaustive} the
          effective budget is [min search_budget exhaustive_budget].
          The search raises {!Search.Budget_exceeded} past it.
          [None] = only [exhaustive_budget] applies *)
  deadline_ms : float option;
      (** wall-clock ceiling for any planner; the search raises
          {!Search.Deadline_exceeded} past it. [None] = no limit *)
  size_alpha : float;
      (** Section 2.4's joint objective [C(P) + alpha * zeta(P)]:
          discounts each Heuristic split by the bytes it adds; 0
          disables. Exhaustive bounds plan size via the split grid and
          ignores alpha (the paper's "we focus on limiting plan
          sizes"). *)
  cost_model : Acq_plan.Cost_model.t option;
      (** history-dependent acquisition pricing (Section 7's sensor
          boards); [None] uses the schema's per-attribute costs *)
  prob_model : Acq_prob.Backend.spec;
      (** which probability backend {!plan} builds from the training
          data; the [acqp --model] knob. Entry points that receive an
          already built backend ignore it. *)
  pac_epsilon : float;
      (** {!Pac}'s certified-gap target: the PAC arm refines its
          sample until the chosen order's upper-confidence cost is
          within [1 + pac_epsilon] of the best candidate's
          lower-confidence cost (or the sample is exhausted). Other
          algorithms ignore it. *)
  pac_interval : Pac.interval;
      (** which confidence interval {!Pac}'s cost walk consults:
          {!Pac.Hoeffding} (default — guaranteed coverage) or
          {!Pac.Wilson} (tighter at skewed selectivities, asymptotic
          coverage). Other algorithms ignore it. *)
}

val default_options : options
(** 8 split points, 5 splits, OptSeq up to 12 predicates, all
    attributes, 2M search nodes, no deadline, no size penalty, the
    empirical backend, a 5% PAC gap target with Hoeffding
    intervals. *)

type result = {
  plan : Acq_plan.Plan.t;
  est_cost : float;
      (** expected cost of [plan] on the planning distribution *)
  stats : Search.stats;
      (** search effort behind this plan: nodes solved, memo hits,
          estimator calls, encoded plan bytes, wall-clock ms *)
}

val plan :
  ?options:options ->
  ?telemetry:Acq_obs.Telemetry.t ->
  algorithm ->
  Acq_plan.Query.t ->
  train:Acq_data.Dataset.t ->
  result
(** Plan with the backend [options.prob_model] selects, built over
    [train] (default: the empirical backend — the seed behavior).

    [telemetry] (default noop) observes the whole call: a
    ["planner.plan"] span (attributes: algorithm, predicate count),
    per-algorithm counters [acqp_planner_{plans,nodes_solved,
    memo_hits,estimator_calls,pruned,plan_bytes}_total], the
    [acqp_planner_plan_ms] wall-clock histogram, and — for
    {!Exhaustive} — per-tier subproblem counters and the
    [acqp_planner_subproblem_ms] solve-time histogram. *)

val plan_with_backend :
  ?options:options ->
  ?telemetry:Acq_obs.Telemetry.t ->
  algorithm ->
  Acq_plan.Query.t ->
  costs:float array ->
  Acq_prob.Backend.t ->
  result
(** Same, against an arbitrary packed backend. The backend is wrapped
    by {!Search.wrap_backend} for the duration of the call — the
    caller's backend is untouched and reusable. [options.prob_model]
    is ignored (the backend is already built). *)
