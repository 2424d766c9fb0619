module J = Acq_obs.Json

type kind =
  | Plan_installed
  | Drift
  | Transition
  | Calibration_alarm
  | Regret_alarm
  | Postmortem
  | Note

let kind_to_string = function
  | Plan_installed -> "plan_installed"
  | Drift -> "drift"
  | Transition -> "transition"
  | Calibration_alarm -> "calibration_alarm"
  | Regret_alarm -> "regret_alarm"
  | Postmortem -> "postmortem"
  | Note -> "note"

type event = {
  seq : int;
  epoch : int;
  kind : kind;
  plan_id : int;
  value : float;
  detail : string;
}

type t = {
  capacity : int;
  buf : event array;
  mutable recorded : int;  (* total ever recorded = next seq *)
  calibration_alarm : float;
  regret_alarm : float;
  mutable calib_latched : bool;
  mutable regret_latched : bool;
  mutable anomalies : int;
  on_dump : (t -> reason:string -> unit) option;
}

let dummy =
  { seq = -1; epoch = 0; kind = Note; plan_id = 0; value = 0.0; detail = "" }

let create ?(capacity = 256) ?(calibration_alarm = 0.15)
    ?(regret_alarm = 1.25) ?on_dump () =
  if capacity < 1 then invalid_arg "Flight_recorder.create: capacity < 1";
  {
    capacity;
    buf = Array.make capacity dummy;
    recorded = 0;
    calibration_alarm;
    regret_alarm;
    calib_latched = false;
    regret_latched = false;
    anomalies = 0;
    on_dump;
  }

let capacity t = t.capacity
let recorded t = t.recorded
let dropped t = max 0 (t.recorded - t.capacity)
let anomalies t = t.anomalies
let calibration_alarm t = t.calibration_alarm
let regret_alarm t = t.regret_alarm

let record t ~epoch ~kind ~plan_id ~value ~detail =
  let seq = t.recorded in
  t.buf.(seq mod t.capacity) <- { seq; epoch; kind; plan_id; value; detail };
  t.recorded <- seq + 1

let events t =
  let n = min t.recorded t.capacity in
  let first = t.recorded - n in
  List.init n (fun i ->
      let seq = first + i in
      t.buf.(seq mod t.capacity))

(* Anomalies latch: one post-mortem per excursion, re-armed only once
   the score falls back to half the alarm level (same hysteresis shape
   as the adaptive drift trigger). *)
let alarm t ~latched ~set_latched ~kind ~threshold ~epoch ~plan_id ~value
    ~reason =
  if value > threshold then begin
    if not latched then begin
      set_latched true;
      record t ~epoch ~kind ~plan_id ~value ~detail:reason;
      t.anomalies <- t.anomalies + 1;
      record t ~epoch ~kind:Postmortem ~plan_id ~value ~detail:reason;
      match t.on_dump with Some f -> f t ~reason | None -> ()
    end
  end
  else if latched && value <= threshold /. 2.0 then set_latched false

let note_calibration t ~epoch ~plan_id score =
  alarm t ~latched:t.calib_latched
    ~set_latched:(fun b -> t.calib_latched <- b)
    ~kind:Calibration_alarm ~threshold:t.calibration_alarm ~epoch ~plan_id
    ~value:score
    ~reason:
      (Printf.sprintf "calibration error %.4f > %.4f" score
         t.calibration_alarm)

let note_regret t ~epoch ~plan_id ratio =
  alarm t ~latched:t.regret_latched
    ~set_latched:(fun b -> t.regret_latched <- b)
    ~kind:Regret_alarm ~threshold:t.regret_alarm ~epoch ~plan_id ~value:ratio
    ~reason:
      (Printf.sprintf "realized regret ratio %.4f > %.4f" ratio t.regret_alarm)

let event_to_json e =
  J.Obj
    [
      ("seq", J.Num (float_of_int e.seq));
      ("epoch", J.Num (float_of_int e.epoch));
      ("kind", J.Str (kind_to_string e.kind));
      ("plan_id", J.Num (float_of_int e.plan_id));
      ("value", J.Num e.value);
      ("detail", J.Str e.detail);
    ]

let to_json t =
  J.Obj
    [
      ("capacity", J.Num (float_of_int t.capacity));
      ("recorded", J.Num (float_of_int t.recorded));
      ("dropped", J.Num (float_of_int (dropped t)));
      ("anomalies", J.Num (float_of_int t.anomalies));
      ("events", J.Arr (List.map event_to_json (events t)));
    ]

(* Chrome trace-event instants: seq as the microsecond clock so the
   viewer lays events out in recording order, epoch/plan/score in
   args. Same shape family as Acq_obs.Tracer's export. *)
let to_chrome t =
  J.Arr
    (List.map
       (fun e ->
         J.Obj
           [
             ("name", J.Str (kind_to_string e.kind));
             ("cat", J.Str "audit");
             ("ph", J.Str "i");
             ("ts", J.Num (float_of_int e.seq));
             ("pid", J.Num 0.0);
             ("tid", J.Num (float_of_int e.plan_id));
             ("s", J.Str "t");
             ( "args",
               J.Obj
                 [
                   ("epoch", J.Num (float_of_int e.epoch));
                   ("plan_id", J.Num (float_of_int e.plan_id));
                   ("value", J.Num e.value);
                   ("detail", J.Str e.detail);
                 ] );
           ])
       (events t))
