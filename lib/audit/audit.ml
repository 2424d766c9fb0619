module T = Acq_obs.Telemetry
module J = Acq_obs.Json

type t = {
  telemetry : T.t;
  flight : Flight_recorder.t;
  arms : Regret.arm list;
  regret_every : int;
  regret_options : Acq_core.Planner.options;
  mutable recorder : Recorder.t option;
  mutable model : Acq_plan.Cost_model.t option;
  mutable checkpoints : int;
  mutable last_regret : Regret.outcome option;
}

let create ?(telemetry = T.noop) ?capacity ?calibration_alarm ?regret_alarm
    ?on_dump ?(arms = Regret.default_arms) ?(regret_every = 4)
    ?(regret_options = Acq_core.Planner.default_options) () =
  if regret_every < 0 then invalid_arg "Audit.create: regret_every < 0";
  {
    telemetry;
    flight =
      Flight_recorder.create ?capacity ?calibration_alarm ?regret_alarm
        ?on_dump ();
    arms;
    regret_every;
    regret_options;
    recorder = None;
    model = None;
    checkpoints = 0;
    last_regret = None;
  }

let telemetry t = t.telemetry
let flight t = t.flight
let recorder t = t.recorder
let last_regret t = t.last_regret
let plan_id t = match t.recorder with Some r -> Recorder.plan_id r | None -> 0

let install ?model t q ~costs ~plan ~expected ~backend ~epoch =
  t.model <- model;
  (match t.recorder with
  | None ->
      t.recorder <-
        Some
          (Recorder.create ~telemetry:t.telemetry q ~costs ~plan ~expected
             ~backend)
  | Some r -> Recorder.install r ~plan ~expected ~backend);
  Flight_recorder.record t.flight ~epoch ~kind:Flight_recorder.Plan_installed
    ~plan_id:(plan_id t) ~value:expected
    ~detail:
      (Printf.sprintf "plan nodes=%d est_cost=%.4f"
         (Acq_plan.Plan.n_nodes plan) expected)

let probe t = Option.map Recorder.probe t.recorder

let observed_cost t =
  match t.recorder with None -> None | Some r -> Recorder.observed_cost r

let cost_source t () = observed_cost t

let note_drift t ~epoch drift =
  Flight_recorder.record t.flight ~epoch ~kind:Flight_recorder.Drift
    ~plan_id:(plan_id t) ~value:drift ~detail:"window drift"

let note_transition t ~epoch ?(value = 0.0) detail =
  Flight_recorder.record t.flight ~epoch ~kind:Flight_recorder.Transition
    ~plan_id:(plan_id t) ~value ~detail

let note t ~epoch ?(value = 0.0) detail =
  Flight_recorder.record t.flight ~epoch ~kind:Flight_recorder.Note
    ~plan_id:(plan_id t) ~value ~detail

let checkpoint t ~epoch ?window () =
  match t.recorder with
  | None -> ()
  | Some r ->
      t.checkpoints <- t.checkpoints + 1;
      let calib = Recorder.export r in
      let score = Calibration.calibration_error calib in
      Flight_recorder.note_calibration t.flight ~epoch ~plan_id:(plan_id t)
        score;
      (match window with
      | Some get_window
        when t.arms <> [] && t.regret_every > 0
             && t.checkpoints mod t.regret_every = 0 ->
          let w = get_window () in
          let o =
            Regret.assess ~telemetry:t.telemetry ~options:t.regret_options
              ?model:t.model ~arms:t.arms
              ~current_plan:(Recorder.plan r) (Recorder.query r)
              ~costs:(Recorder.costs r) w
          in
          t.last_regret <- Some o;
          Flight_recorder.note_regret t.flight ~epoch ~plan_id:(plan_id t)
            o.Regret.regret_ratio
      | _ -> ())

let report t =
  J.Obj
    [
      ("checkpoints", J.Num (float_of_int t.checkpoints));
      ( "recorder",
        match t.recorder with Some r -> Recorder.to_json r | None -> J.Null );
      ( "regret",
        match t.last_regret with Some o -> Regret.to_json o | None -> J.Null );
      ("flight", Flight_recorder.to_json t.flight);
    ]

let chrome_events t = Flight_recorder.to_chrome t.flight
