(** End-to-end continuous-query execution: plan on the basestation,
    disseminate, replay a trace epoch by epoch on the motes, collect
    matching tuples, and account every unit of energy — the full
    Figure 4 loop. *)

type report = {
  plan : Acq_plan.Plan.t;
  plan_stats : Acq_core.Search.stats;
      (** search effort the basestation spent planning; its
          [plan_size] field is ζ(P), the single source for
          {!plan_bytes} *)
  epochs : int;
  matches : int;  (** tuples satisfying the WHERE clause *)
  acquisition_energy : float;
  radio_energy : float;  (** dissemination + result collection *)
  total_energy : float;
  avg_cost_per_epoch : float;
      (** acquisition energy / epochs — comparable to
          {!Acq_plan.Executor.average_cost} *)
  correct : bool;
      (** every verdict agreed with ground truth (audited against the
          replayed trace) *)
  metrics : Acq_obs.Metrics.snapshot;
      (** snapshot of the run's metrics registry — empty when
          telemetry was off *)
}

val plan_bytes : report -> int
(** ζ(P) shipped to each mote — read from [plan_stats.plan_size], the
    value the planner already computed, instead of re-deriving it. *)

val run :
  ?options:Acq_core.Planner.options ->
  ?radio:Radio.t ->
  ?n_motes:int ->
  ?telemetry:Acq_obs.Telemetry.t ->
  ?audit:Acq_audit.Audit.t ->
  ?audit_every:int ->
  algorithm:Acq_core.Planner.algorithm ->
  history:Acq_data.Dataset.t ->
  live:Acq_data.Dataset.t ->
  Acq_plan.Query.t ->
  report
(** Plan the query on [history], then execute it over the [live]
    trace. [n_motes] defaults to the number of distinct node ids in
    the schema's [nodeid] attribute (or 1 for wide schemas). Motes
    execute on the compiled automaton, differentially tested
    byte-identical to the tree {!Acq_plan.Executor}.

    With live [telemetry] the run records: planner spans/counters
    (via {!Basestation}), spans for dissemination and the epoch loop,
    per-attribute executor acquisition counters, and — per epoch —
    per-mote counters and Chrome counter-track samples
    ([mote<N>.energy]) of cumulative acquisition energy, radio
    energy, and transmitted bytes. The final registry snapshot is
    attached to the report.

    [audit] arms an {!Acq_audit.Audit} pipeline on the disseminated
    plan (predictions from the history backend under
    [options.prob_model]): every mote epoch feeds its calibration
    probe, and a checkpoint runs every [audit_every] epochs (default
    512, plus a final flush) with the live trace as the regret-replay
    window. Verdicts and energy are unchanged by auditing. *)

val pp_report : Format.formatter -> report -> unit

(** {2 Adaptive serving}

    The same Figure 4 loop, but continuous: plan from [history], then
    let an {!Acq_adapt.Session} watch the live stream's sliding-window
    statistics and replace the plan when its {!Acq_adapt.Policy}
    triggers fire. Every switch floods the new plan through the
    network (the mote-side dissemination cost of adaptivity), so the
    report's radio energy prices the replanning loop honestly. *)

type adaptive_report = {
  final_plan : Acq_plan.Plan.t;  (** plan serving when the trace ended *)
  initial_stats : Acq_core.Search.stats;
  a_epochs : int;
  a_matches : int;
  a_acquisition_energy : float;
  a_radio_energy : float;
      (** dissemination (initial + every switch) + result collection *)
  a_total_energy : float;
  a_correct : bool;
      (** every verdict — under whichever plan was installed at that
          epoch — agreed with ground truth *)
  switches : Acq_adapt.Session.switch list;  (** chronological *)
  a_replans : int;
  a_failed_replans : int;  (** budget- or deadline-exhausted passes *)
  final_drift : float;  (** window drift at the last trigger check *)
  cache_stats : Acq_adapt.Plan_cache.stats;
  a_metrics : Acq_obs.Metrics.snapshot;
}

val run_adaptive :
  ?options:Acq_core.Planner.options ->
  ?radio:Radio.t ->
  ?n_motes:int ->
  ?telemetry:Acq_obs.Telemetry.t ->
  ?policy:Acq_adapt.Policy.t ->
  ?window:int ->
  ?cache:Acq_adapt.Plan_cache.t ->
  ?replan_budget:int ->
  ?audit:Acq_audit.Audit.t ->
  algorithm:Acq_core.Planner.algorithm ->
  history:Acq_data.Dataset.t ->
  live:Acq_data.Dataset.t ->
  Acq_plan.Query.t ->
  adaptive_report
(** [policy] defaults to {!Acq_adapt.Policy.default} (drift-triggered
    with hysteresis); [window] (default 512 tuples) is the sliding
    window capacity; [cache] defaults to a fresh 8-entry
    {!Acq_adapt.Plan_cache} private to this run (with stale-epoch
    invalidation on). With live [telemetry] the run additionally
    records the [acqp_adapt_*] series: the drift gauge, replan/switch
    counters by trigger, cache counters, and a span per replan.
    [audit] is handed to the {!Acq_adapt.Session} (which installs
    every plan into it and checkpoints at its check cadence, window
    included); the motes feed its calibration probe each epoch, and a
    final flush checkpoint runs when the trace ends. *)

val pp_switch : Format.formatter -> Acq_adapt.Session.switch -> unit
(** One timeline line: epoch, trigger, old/new expected cost,
    dissemination bytes. *)

val pp_adaptive_report : Format.formatter -> adaptive_report -> unit
