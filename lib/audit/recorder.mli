(** Per-query calibration recorder: ties one executing plan to the
    estimator predictions it was chosen by, and folds the probe's raw
    counts into {!Calibration} cells across plan switches.

    A recorder owns, per installed plan: the lowered automaton, the
    per-node predicted band probabilities (computed once at install by
    walking the plan with the planning backend's restriction chain, in
    the exact {!Acq_exec.Compile} preorder), and an
    {!Acq_exec.Probe.t} the executors feed. Prediction [i] is
    P(node i's band | path to node i) — the same conditional the
    planner used at that node — so on the estimator's own training
    distribution, the empirical backend calibrates to ~0 gap. *)

type t

val predictions :
  Acq_plan.Query.t ->
  backend:Acq_prob.Backend.t ->
  Acq_plan.Plan.t ->
  n_nodes:int ->
  float array
(** The prediction walk, exposed for tests and post-mortems.
    Branches with no training support predict 0.5 and stop
    conditioning. @raise Invalid_argument when [n_nodes] does not
    match the plan's lowering. *)

val create :
  ?telemetry:Acq_obs.Telemetry.t ->
  Acq_plan.Query.t ->
  costs:float array ->
  plan:Acq_plan.Plan.t ->
  expected:float ->
  backend:Acq_prob.Backend.t ->
  t
(** [expected] is the planner's Eq.-4 estimate for [plan]; [backend]
    the (already conditioned/built) backend the plan was chosen by. *)

val install :
  t ->
  plan:Acq_plan.Plan.t ->
  expected:float ->
  backend:Acq_prob.Backend.t ->
  unit
(** Switch plans: absorb the outgoing plan's probe into the cumulative
    cells, then compile, predict, and arm a fresh probe. Increments
    {!plan_id}. *)

val query : t -> Acq_plan.Query.t
val costs : t -> float array
val plan : t -> Acq_plan.Plan.t
val plan_id : t -> int

val probe : t -> Acq_exec.Probe.t
(** The live probe for the currently installed plan — hand it to
    {!Acq_exec.Runner.run}[ ?probe] / [average_cost ?probe]. *)

val node_predictions : t -> float array
val predicted_cost : t -> float

val observed_cost : t -> (float * int) option
(** Mean realized cost and tuple count since the current plan was
    installed — the audit-fed observed-cost source for the adaptive
    cost-regret trigger. *)

val snapshot : t -> Calibration.t
(** Cumulative cells plus the live probe's contribution (fresh copy;
    the probe is not reset). *)

val export : t -> Calibration.t
(** {!snapshot}, also setting the [acqp_audit_*] gauges (plus
    [acqp_audit_plan_id]) on the recorder's telemetry. *)

val to_json : t -> Acq_obs.Json.t
