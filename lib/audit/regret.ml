module T = Acq_obs.Telemetry
module J = Acq_obs.Json
module B = Acq_prob.Backend
module P = Acq_core.Planner
module Runner = Acq_exec.Runner

type arm = { name : string; algorithm : P.algorithm; spec : B.spec }

let arm ?spec ~name algorithm =
  let spec = match spec with Some s -> s | None -> B.default_spec in
  { name; algorithm; spec }

(* The portfolio arms the adaptive layer races, plus the two
   correlation-model ablations: what would a correlation-blind (or
   tree-model) estimator have picked on this very window? *)
let default_arms =
  [
    arm ~name:"corr-seq" P.Corr_seq;
    arm ~name:"heuristic" P.Heuristic;
    arm ~name:"exhaustive" P.Exhaustive;
    arm ~name:"heuristic/independence"
      ~spec:{ B.kind = B.Independence; memoize = false }
      P.Heuristic;
    arm ~name:"heuristic/chow-liu"
      ~spec:{ B.kind = B.Chow_liu; memoize = false }
      P.Heuristic;
  ]

type assessment = {
  arm : arm;
  planned : bool;
  est_cost : float;
  realized_cost : float;
  plan : Acq_plan.Plan.t option;
}

type outcome = {
  rows : int;
  current_realized : float;
  assessments : assessment list;
  best : assessment option;
  regret : float;
  regret_ratio : float;
}

let empty_outcome =
  {
    rows = 0;
    current_realized = 0.0;
    assessments = [];
    best = None;
    regret = 0.0;
    regret_ratio = 1.0;
  }

let assess ?(telemetry = T.noop) ?(options = P.default_options) ?model
    ?(arms = default_arms) ~current_plan q ~costs window =
  let rows = Acq_data.Dataset.nrows window in
  if rows = 0 then empty_outcome
  else
    T.span telemetry ~cat:"audit"
      ~attrs:[ ("rows", string_of_int rows) ]
      "audit.regret_assess"
    @@ fun () ->
    let realized plan = Runner.average_cost ?model q ~costs plan window in
    let current_realized = realized current_plan in
    let assessments =
      List.map
        (fun a ->
          match
            let backend = B.of_dataset ~spec:a.spec window in
            let options = { options with P.prob_model = a.spec } in
            P.plan_with_backend ~options ~telemetry a.algorithm q ~costs
              backend
          with
          | r ->
              {
                arm = a;
                planned = true;
                est_cost = r.P.est_cost;
                realized_cost = realized r.P.plan;
                plan = Some r.P.plan;
              }
          | exception _ ->
              (* Budget / deadline / model-capability failures count
                 as an arm that produced no plan, not an audit
                 failure. *)
              {
                arm = a;
                planned = false;
                est_cost = 0.0;
                realized_cost = 0.0;
                plan = None;
              })
        arms
    in
    let best =
      List.fold_left
        (fun acc a ->
          if not a.planned then acc
          else
            match acc with
            | None -> Some a
            | Some b -> if a.realized_cost < b.realized_cost then Some a else acc)
        None assessments
    in
    let regret, regret_ratio =
      match best with
      | None -> (0.0, 1.0)
      | Some b ->
          ( current_realized -. b.realized_cost,
            if b.realized_cost > 0.0 then current_realized /. b.realized_cost
            else 1.0 )
    in
    T.incr telemetry "acqp_audit_regret_assessments_total";
    T.set telemetry "acqp_audit_current_realized_cost" current_realized;
    List.iter
      (fun a ->
        if a.planned then
          T.set telemetry
            ~labels:[ ("arm", a.arm.name) ]
            "acqp_audit_arm_realized_cost" a.realized_cost)
      assessments;
    T.set telemetry "acqp_audit_regret" regret;
    T.set telemetry "acqp_audit_regret_ratio" regret_ratio;
    { rows; current_realized; assessments; best; regret; regret_ratio }

let to_json o =
  J.Obj
    [
      ("rows", J.Num (float_of_int o.rows));
      ("current_realized_cost", J.Num o.current_realized);
      ("regret", J.Num o.regret);
      ("regret_ratio", J.Num o.regret_ratio);
      ( "best_arm",
        match o.best with Some a -> J.Str a.arm.name | None -> J.Null );
      ( "arms",
        J.Arr
          (List.map
             (fun a ->
               J.Obj
                 [
                   ("name", J.Str a.arm.name);
                   ("algorithm", J.Str (P.algorithm_name a.arm.algorithm));
                   ("model", J.Str (B.spec_to_string a.arm.spec));
                   ("planned", J.Bool a.planned);
                   ("est_cost", J.Num a.est_cost);
                   ("realized_cost", J.Num a.realized_cost);
                 ])
             o.assessments) );
    ]
