(** Train/test experiment harness: plan each query on training data
    with several algorithms, measure real execution cost on disjoint
    test data, and summarize the per-query gain distribution the way
    the paper's figures do. *)

type algo_spec = {
  name : string;
  build : Acq_plan.Query.t -> Acq_core.Planner.result;
      (** planner closure; receives the query, returns the planner's
          full result (plan, estimated cost, search stats) *)
}

type query_run = {
  query : Acq_plan.Query.t;
  test_costs : float array;  (** per spec, same order *)
  train_costs : float array;
  est_costs : float array;  (** planner-reported expected costs *)
  plan_tests : int array;  (** conditioning-node counts per spec *)
  plan_stats : Acq_core.Search.stats array;
      (** per-spec search effort spent planning this query *)
  consistent : bool;  (** all plans agreed with ground truth on test *)
  metrics : Acq_obs.Metrics.snapshot;
      (** telemetry delta attributable to this query (planning plus
          cost measurement); empty when [obs] carried no registry *)
}

val run :
  ?obs:Acq_obs.Telemetry.t ->
  ?audit:Acq_audit.Audit.t ->
  ?audit_options:Acq_core.Planner.options ->
  specs:algo_spec list ->
  queries:Acq_plan.Query.t list ->
  train:Acq_data.Dataset.t ->
  test:Acq_data.Dataset.t ->
  unit ->
  query_run list
(** Plan and measure every query with every spec, in query order
    (parallel fan-out lives in [Acq_par.Parallel_experiment]). Cost
    sweeps run on the compiled executor ({!Acq_exec.Runner});
    consistency is audited on the tree interpreter.

    [audit] arms an {!Acq_audit.Audit} pipeline per query on the {e
    first} spec's plan: predictions come from a train-data backend
    under [audit_options.prob_model] (default
    {!Acq_core.Planner.default_options}), the plan's test sweep feeds
    the calibration probe, and a checkpoint (with the test set as the
    regret window) runs after each query. Measured costs are
    unchanged. *)

val gains : query_run list -> baseline:int -> target:int -> float array
(** Per-query ratio [cost baseline / cost target] (> 1 when the target
    is cheaper). Indices refer to spec order. *)

type gain_summary = {
  mean : float;
  median : float;
  max : float;
  min : float;
  frac_above : float -> float;
      (** fraction of queries with gain at least x *)
}

val summarize : float array -> gain_summary

val total_metrics : query_run list -> Acq_obs.Metrics.snapshot
(** Key-wise sum of every run's metrics delta, keys in first-seen
    order — the workload-level aggregate of planner and executor
    counters. *)

val total_stats : query_run list -> int -> Acq_core.Search.stats
(** Field-wise total of one spec's planning effort over all queries
    (wall time summed, plan bytes summed). *)

val mean_cost : query_run list -> int -> float
(** Average test cost of one spec over all queries. *)

val all_consistent : query_run list -> bool
