(** Plan-regret accounting: replay the observed window under the
    plans the {e other} portfolio arms / probability backends would
    have chosen, and price everything with realized (executed) cost
    rather than the estimator's own opinion.

    [regret = realized(current plan) - realized(best arm's plan)] on
    the same window — positive when some other arm would have run
    cheaper on the data actually seen. The ratio form
    [current / best] is what the flight recorder alarms on and what
    the adaptive cost-regret trigger can consume through the
    audit-fed observed-cost source. *)

type arm = {
  name : string;
  algorithm : Acq_core.Planner.algorithm;
  spec : Acq_prob.Backend.spec;
}

val arm :
  ?spec:Acq_prob.Backend.spec ->
  name:string ->
  Acq_core.Planner.algorithm ->
  arm

val default_arms : arm list
(** The portfolio arms (Corr_seq / Heuristic / Exhaustive on the
    empirical backend) plus Heuristic under the independence and
    Chow-Liu models — the correlation ablation of the paper's
    Section 6 experiments. *)

type assessment = {
  arm : arm;
  planned : bool;  (** false when the arm's planner raised (budget, deadline, capability) *)
  est_cost : float;
  realized_cost : float;
  plan : Acq_plan.Plan.t option;
}

type outcome = {
  rows : int;
  current_realized : float;
  assessments : assessment list;
  best : assessment option;  (** cheapest realized among planned arms *)
  regret : float;
  regret_ratio : float;  (** [current / best]; 1.0 when no arm planned *)
}

val empty_outcome : outcome

val assess :
  ?telemetry:Acq_obs.Telemetry.t ->
  ?options:Acq_core.Planner.options ->
  ?model:Acq_plan.Cost_model.t ->
  ?arms:arm list ->
  current_plan:Acq_plan.Plan.t ->
  Acq_plan.Query.t ->
  costs:float array ->
  Acq_data.Dataset.t ->
  outcome
(** Replan every arm from the window (each arm builds its own backend
    from it) and execute every plan over the window under [model].
    Runs inside an ["audit.regret_assess"] span and emits
    [acqp_audit_regret], [acqp_audit_regret_ratio],
    [acqp_audit_current_realized_cost], per-arm
    [acqp_audit_arm_realized_cost{arm=...}] gauges and the
    [acqp_audit_regret_assessments_total] counter. Returns
    {!empty_outcome} on an empty window. *)

val to_json : outcome -> Acq_obs.Json.t
