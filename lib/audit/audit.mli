(** The audit pipeline handle the execution layers thread — one value
    bundling the calibration {!Recorder}, the {!Flight_recorder}, and
    periodic {!Regret} assessment, in the same explicit-handle style
    as {!Acq_obs.Telemetry}.

    Lifecycle: {!install} at plan choice (and again on every adaptive
    switch), hand {!probe} to the executors, {!checkpoint} at whatever
    cadence the caller observes (per check for sessions, per epoch for
    the sensor runtime, per query for the workload harness).
    Checkpoints export the [acqp_audit_*] gauges, run the latched
    calibration alarm, and — every [regret_every]-th checkpoint, when
    given a window — replay the window under the other arms. *)

type t

val create :
  ?telemetry:Acq_obs.Telemetry.t ->
  ?capacity:int ->
  ?calibration_alarm:float ->
  ?regret_alarm:float ->
  ?on_dump:(Flight_recorder.t -> reason:string -> unit) ->
  ?arms:Regret.arm list ->
  ?regret_every:int ->
  ?regret_options:Acq_core.Planner.options ->
  unit ->
  t
(** [regret_every] (default 4): assess regret every n-th checkpoint
    that carries a window; 0 disables. [arms = []] also disables.
    Flight-recorder knobs are passed through to
    {!Flight_recorder.create}. *)

val telemetry : t -> Acq_obs.Telemetry.t
val flight : t -> Flight_recorder.t
val recorder : t -> Recorder.t option
val plan_id : t -> int
val last_regret : t -> Regret.outcome option

val install :
  ?model:Acq_plan.Cost_model.t ->
  t ->
  Acq_plan.Query.t ->
  costs:float array ->
  plan:Acq_plan.Plan.t ->
  expected:float ->
  backend:Acq_prob.Backend.t ->
  epoch:int ->
  unit
(** Arm the recorder for a newly chosen plan (folding the previous
    plan's observations first) and log a [Plan_installed] flight
    event. [model] is remembered for regret replays. *)

val probe : t -> Acq_exec.Probe.t option
(** The live probe to pass to {!Acq_exec.Runner.run}[ ?probe]; [None]
    before the first {!install}. *)

val observed_cost : t -> (float * int) option
(** Mean realized cost and tuple count since the current plan was
    installed. *)

val cost_source : t -> unit -> (float * int) option
(** {!observed_cost} as a handle — plug it into
    {!Acq_adapt.Policy.with_cost_source} so the cost-regret trigger
    runs on audited rather than re-estimated cost. *)

val note_drift : t -> epoch:int -> float -> unit
val note_transition : t -> epoch:int -> ?value:float -> string -> unit
val note : t -> epoch:int -> ?value:float -> string -> unit

val checkpoint :
  t -> epoch:int -> ?window:(unit -> Acq_data.Dataset.t) -> unit -> unit
(** Export gauges, feed the calibration alarm, and (cadence + window
    permitting) assess regret. [window] is a thunk so callers don't
    materialize their sliding window on checkpoints that skip the
    regret replay. No-op before the first {!install}. *)

val report : t -> Acq_obs.Json.t
(** Recorder + regret + flight ring as one JSON document — what
    [acqp run --audit-out] writes. *)

val chrome_events : t -> Acq_obs.Json.t
(** The flight ring as Chrome trace instants. *)
