(** The query flight recorder: a fixed-size ring buffer of structured
    per-query events — plan installs, drift scores, session
    transitions, alarms — with an anomaly-triggered post-mortem hook.

    The buffer is allocated once at {!create} ([capacity] events,
    default 256) and overwrites oldest-first, so steady-state
    recording costs one array store per event and the memory bound is
    fixed regardless of flight length. Alarms latch: when the
    calibration error or realized-regret ratio crosses its threshold
    the recorder logs the alarm plus a [Postmortem] marker, invokes
    [on_dump] (where callers write the Chrome-trace / JSON dump), and
    stays quiet until the score recovers to half the threshold —
    one dump per excursion, not per checkpoint. *)

type kind =
  | Plan_installed
  | Drift
  | Transition
  | Calibration_alarm
  | Regret_alarm
  | Postmortem
  | Note

val kind_to_string : kind -> string

type event = {
  seq : int;  (** monotone record index, never wraps *)
  epoch : int;
  kind : kind;
  plan_id : int;
  value : float;  (** kind-specific scalar: drift, score, cost, ... *)
  detail : string;
}

type t

val create :
  ?capacity:int ->
  ?calibration_alarm:float ->
  ?regret_alarm:float ->
  ?on_dump:(t -> reason:string -> unit) ->
  unit ->
  t
(** Defaults: capacity 256, calibration-error alarm 0.15,
    regret-ratio alarm 1.25. @raise Invalid_argument on
    [capacity < 1]. *)

val capacity : t -> int
val recorded : t -> int
val dropped : t -> int
val anomalies : t -> int
val calibration_alarm : t -> float
val regret_alarm : t -> float

val record :
  t ->
  epoch:int ->
  kind:kind ->
  plan_id:int ->
  value:float ->
  detail:string ->
  unit

val events : t -> event list
(** Surviving events, oldest first. *)

val note_calibration : t -> epoch:int -> plan_id:int -> float -> unit
(** Feed a checkpoint's calibration error through the latched alarm. *)

val note_regret : t -> epoch:int -> plan_id:int -> float -> unit
(** Feed a realized-regret ratio through the latched alarm. *)

val event_to_json : event -> Acq_obs.Json.t
val to_json : t -> Acq_obs.Json.t

val to_chrome : t -> Acq_obs.Json.t
(** Chrome trace-event instants ([ph = "i"]), sequenced on [seq],
    loadable in [chrome://tracing] next to {!Acq_obs.Tracer} spans. *)
