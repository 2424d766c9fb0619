type algorithm = Naive | Corr_seq | Heuristic | Exhaustive | Pac

let algorithm_name = function
  | Naive -> "Naive"
  | Corr_seq -> "CorrSeq"
  | Heuristic -> "Heuristic"
  | Exhaustive -> "Exhaustive"
  | Pac -> "Pac"

type options = {
  split_points_per_attr : int;
  max_splits : int;
  optseq_threshold : int;
  candidate_attrs : int list option;
  exhaustive_budget : int;
  search_budget : int option;
  deadline_ms : float option;
  size_alpha : float;
  cost_model : Acq_plan.Cost_model.t option;
  prob_model : Acq_prob.Backend.spec;
  pac_epsilon : float;
  pac_interval : Pac.interval;
}

let default_options =
  {
    split_points_per_attr = 8;
    max_splits = 5;
    optseq_threshold = Seq_planner.default_optseq_threshold;
    candidate_attrs = None;
    exhaustive_budget = 2_000_000;
    search_budget = None;
    deadline_ms = None;
    size_alpha = 0.0;
    cost_model = None;
    prob_model = Acq_prob.Backend.default_spec;
    pac_epsilon = Pac.default_epsilon_target;
    pac_interval = Pac.Hoeffding;
  }

type result = {
  plan : Acq_plan.Plan.t;
  est_cost : float;
  stats : Search.stats;
}

let plan_with_backend ?(options = default_options)
    ?(telemetry = Acq_obs.Telemetry.noop) algorithm q ~costs est =
  let domains = Acq_data.Schema.domains (Acq_plan.Query.schema q) in
  let grid =
    Spsf.for_query ~domains ~points_per_attr:options.split_points_per_attr q
  in
  let model = options.cost_model in
  let algo_labels = [ ("algorithm", algorithm_name algorithm) ] in
  (* One fresh context per call: the planners share its counters,
     memo table, and limits, and nothing outlives the call. *)
  let finish ?certificate search (plan, est_cost) =
    let stats =
      Search.stats ~plan_size:(Acq_plan.Serialize.size plan) ?certificate
        search
    in
    let module T = Acq_obs.Telemetry in
    if T.enabled telemetry then begin
      let addc name v = T.add telemetry ~labels:algo_labels name (float_of_int v) in
      addc "acqp_planner_plans_total" 1;
      addc "acqp_planner_nodes_solved_total" stats.Search.nodes_solved;
      addc "acqp_planner_memo_hits_total" stats.Search.memo_hits;
      addc "acqp_planner_estimator_calls_total" stats.Search.estimator_calls;
      addc "acqp_planner_pruned_total" (Search.pruned_branches search);
      addc "acqp_planner_plan_bytes_total" stats.Search.plan_size;
      T.observe telemetry ~labels:algo_labels "acqp_planner_plan_ms"
        stats.Search.wall_ms
    end;
    { plan; est_cost; stats }
  in
  Acq_obs.Telemetry.span telemetry ~cat:"planner"
    ~attrs:
      (("predicates", string_of_int (Acq_plan.Query.n_predicates q))
      :: algo_labels)
    "planner.plan"
  @@ fun () ->
  let context ?default_budget () =
    let budget =
      match (options.search_budget, default_budget) with
      | Some b, Some d -> Some (min b d)
      | Some b, None -> Some b
      | None, d -> d
    in
    Search.create ?budget ?deadline_ms:options.deadline_ms ~telemetry ()
  in
  match algorithm with
  | Naive ->
      let search = context () in
      let est = Search.wrap_backend search est in
      let p = Naive.plan ~search ?model q ~costs est in
      finish search (p, Expected_cost.of_plan ?model q ~costs est p)
  | Corr_seq ->
      let search = context () in
      let est = Search.wrap_backend search est in
      finish search
        (Seq_planner.plan ~search ~optseq_threshold:options.optseq_threshold
           ?model q ~costs est)
  | Heuristic ->
      let search = context () in
      let est = Search.wrap_backend search est in
      finish search
        (Greedy_plan.plan ~search ~optseq_threshold:options.optseq_threshold
           ?candidate_attrs:options.candidate_attrs
           ~size_alpha:options.size_alpha ?model q ~costs ~grid
           ~max_splits:options.max_splits est)
  | Exhaustive ->
      let search = context ~default_budget:options.exhaustive_budget () in
      (* Exhaustive wraps the backend itself, so the raw backend passes
         through. *)
      finish search (Exhaustive.plan ~search ?model q ~costs ~grid est)
  | Pac ->
      let search = context () in
      let est = Search.wrap_backend search est in
      let plan, est_cost, certificate =
        Pac.plan ~search ?model ~epsilon_target:options.pac_epsilon
          ~interval:options.pac_interval q ~costs est
      in
      finish ~certificate search (plan, est_cost)

let plan ?(options = default_options) ?(telemetry = Acq_obs.Telemetry.noop)
    algorithm q ~train =
  let costs = Acq_data.Schema.costs (Acq_plan.Query.schema q) in
  let spec =
    (* Pac plans against confidence intervals; every backend except
       the sampled one degenerates them to points, turning the arm
       into a slow Exhaustive. Substitute the default sampled kind
       (keeping the caller's memoize choice) unless the caller already
       picked sampling parameters. *)
    match (algorithm, options.prob_model.Acq_prob.Backend.kind) with
    | Pac, Acq_prob.Backend.Sampled _ -> options.prob_model
    | Pac, _ ->
        { options.prob_model with
          Acq_prob.Backend.kind = Acq_prob.Backend.default_sampled_kind
        }
    | _ -> options.prob_model
  in
  let est = Acq_prob.Backend.of_dataset ~telemetry ~spec train in
  plan_with_backend ~options ~telemetry algorithm q ~costs est
