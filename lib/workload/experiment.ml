type algo_spec = {
  name : string;
  build : Acq_plan.Query.t -> Acq_core.Planner.result;
}

type query_run = {
  query : Acq_plan.Query.t;
  test_costs : float array;
  train_costs : float array;
  est_costs : float array;
  plan_tests : int array;
  plan_stats : Acq_core.Search.stats array;
  consistent : bool;
  metrics : Acq_obs.Metrics.snapshot;
}

(* Everything about one query except its metrics delta. *)
let eval_query ?audit ~audit_options specs ~obs ~qi q ~train ~test =
  let costs = Acq_data.Schema.costs (Acq_plan.Query.schema q) in
  let results = Array.map (fun s -> s.build q) specs in
  let plans = Array.map (fun (r : Acq_core.Planner.result) -> r.plan) results in
  (* Audit the first spec's plan: predictions from the train backend,
     observations from its test sweep — the train/test calibration
     question the harness exists to ask. *)
  let probe =
    match audit with
    | None -> None
    | Some a ->
        let backend =
          Acq_prob.Backend.of_dataset
            ~spec:audit_options.Acq_core.Planner.prob_model train
        in
        Acq_audit.Audit.install
          ?model:audit_options.Acq_core.Planner.cost_model a q ~costs
          ~plan:plans.(0)
          ~expected:results.(0).Acq_core.Planner.est_cost ~backend ~epoch:qi;
        Acq_audit.Audit.probe a
  in
  let costs_on ?(probed = false) ds =
    Array.mapi
      (fun i p ->
        let probe = if probed && i = 0 then probe else None in
        Acq_exec.Runner.average_cost ~obs ?probe q ~costs p ds)
      plans
  in
  let test_costs = costs_on ~probed:true test in
  let train_costs = costs_on train in
  (match audit with
  | Some a ->
      Acq_audit.Audit.checkpoint a ~epoch:qi ~window:(fun () -> test) ()
  | None -> ());
  let plan_tests = Array.map Acq_plan.Plan.n_tests plans in
  let consistent =
    Array.for_all
      (fun p ->
        Acq_plan.Executor.consistent q ~costs p test
        && Acq_plan.Executor.consistent q ~costs p train)
      plans
  in
  {
    query = q;
    test_costs;
    train_costs;
    est_costs =
      Array.map (fun (r : Acq_core.Planner.result) -> r.est_cost) results;
    plan_tests;
    plan_stats =
      Array.map (fun (r : Acq_core.Planner.result) -> r.stats) results;
    consistent;
    metrics = [];
  }

let run ?(obs = Acq_obs.Telemetry.noop) ?audit
    ?(audit_options = Acq_core.Planner.default_options) ~specs ~queries
    ~train ~test () =
  let specs = Array.of_list specs in
  let snapshot () =
    match Acq_obs.Telemetry.metrics obs with
    | Some m -> Acq_obs.Metrics.snapshot m
    | None -> []
  in
  let before = ref (snapshot ()) in
  List.mapi
    (fun qi q ->
      let r = eval_query ?audit ~audit_options specs ~obs ~qi q ~train ~test in
      let after = snapshot () in
      let metrics = Acq_obs.Metrics.diff after !before in
      before := after;
      { r with metrics })
    queries

let gains runs ~baseline ~target =
  Array.of_list
    (List.map
       (fun r ->
         let b = r.test_costs.(baseline) and t = r.test_costs.(target) in
         if t <= 0.0 then 1.0 else b /. t)
       runs)

type gain_summary = {
  mean : float;
  median : float;
  max : float;
  min : float;
  frac_above : float -> float;
}

let summarize g =
  let module S = Acq_util.Stats in
  let lo, hi = S.min_max g in
  {
    mean = S.mean g;
    median = S.median g;
    max = hi;
    min = lo;
    frac_above =
      (fun x ->
        float_of_int (Acq_util.Array_util.count (fun v -> v >= x) g)
        /. float_of_int (Array.length g));
  }

let total_metrics runs =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun r ->
      List.iter
        (fun (k, v) ->
          match Hashtbl.find_opt tbl k with
          | Some v0 -> Hashtbl.replace tbl k (v0 +. v)
          | None ->
              Hashtbl.add tbl k v;
              order := k :: !order)
        r.metrics)
    runs;
  List.rev_map (fun k -> (k, Hashtbl.find tbl k)) !order

let total_stats runs i =
  List.fold_left
    (fun acc r -> Acq_core.Search.add_stats acc r.plan_stats.(i))
    Acq_core.Search.zero_stats runs

let mean_cost runs i =
  Acq_util.Stats.mean
    (Array.of_list (List.map (fun r -> r.test_costs.(i)) runs))

let all_consistent runs = List.for_all (fun r -> r.consistent) runs
