(** Prepared plans: one value that executes a conditional plan on the
    compiled automaton, so callers — motes, adaptive sessions, the
    workload harness — never mention the representation.

    [prepare] is where compilation happens (once per installed plan);
    re-prepare whenever the plan changes, exactly like a mote
    re-installing a disseminated plan or a session switching after a
    replan. The tree {!Acq_plan.Executor} is the reference oracle the
    differential tests hold this path byte-identical to. *)

type prepared
(** Mutable: it caches the executor instruments it last resolved. A
    prepared plan is owned by one session, mote or supervisor plan
    group and is never shared across domains. *)

val prepare :
  ?model:Acq_plan.Cost_model.t ->
  Acq_plan.Query.t ->
  costs:float array ->
  Acq_plan.Plan.t ->
  prepared

val plan : prepared -> Acq_plan.Plan.t

val run :
  ?obs:Acq_obs.Telemetry.t ->
  ?probe:Probe.t ->
  ?times:int ->
  prepared ->
  lookup:(int -> int) ->
  Acq_plan.Executor.outcome
(** Same contract as {!Acq_plan.Executor.run}: identical verdict, cost,
    acquisition order, and lookup call pattern. Instruments resolve
    once per prepared plan and registry: on the first run under a
    registry, and again only when a run comes under a different one
    (compared physically), so counters always land in the registry
    [obs] carries. Resolving at first use, not at {!prepare}, keeps
    registration order — and every dump — what per-call lookups
    produced. [probe] feeds the per-node / per-tuple audit cells
    without changing any outcome. [times] (default 1) credits the
    executor series as that many executions — see {!Batch.run}. *)

val step :
  ?obs:Acq_obs.Telemetry.t ->
  ?probe:Probe.t ->
  prepared ->
  lookup:(int -> int) ->
  bool
(** {!run} without an outcome, through {!Batch.step}: the verdict, with
    the cost and acquisition count left for {!cost} and {!n_acquired},
    and the same instruments and executor series as {!run}. Without a
    probe it allocates nothing per call; pass [?obs] an option built
    once, since [~obs] boxes a [Some] at every call. *)

val cost : prepared -> float
(** The last {!step}'s acquisition cost. *)

val n_acquired : prepared -> int
(** How many attributes the last {!step} acquired. *)

val run_tuple :
  ?obs:Acq_obs.Telemetry.t ->
  ?probe:Probe.t ->
  prepared ->
  int array ->
  Acq_plan.Executor.outcome

val average_cost_prepared :
  ?obs:Acq_obs.Telemetry.t ->
  ?probe:Probe.t ->
  prepared ->
  Acq_data.Dataset.t ->
  float
(** Eq.-4 mean over the dataset, [Float.equal] to
    {!Acq_plan.Executor.average_cost}. The sweep runs inside an
    ["executor.average_cost"] span with counter updates batched;
    instruments come from the same per-registry cache as {!run}. *)

val average_cost :
  ?model:Acq_plan.Cost_model.t ->
  ?obs:Acq_obs.Telemetry.t ->
  ?probe:Probe.t ->
  Acq_plan.Query.t ->
  costs:float array ->
  Acq_plan.Plan.t ->
  Acq_data.Dataset.t ->
  float
(** One-shot convenience: {!prepare} then {!average_cost_prepared}. *)
