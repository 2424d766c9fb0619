(** The one-shot serving path, factored out of [bin/acqp.ml] so the
    CLI's [run] subcommand and the daemon's [RUN] request execute —
    and {e render} — a query identically. The daemon's byte-identity
    guarantee (a [RUN] response equals one-shot output for the same
    dataset spec, query, and options) holds because both sides call
    these functions. *)

val header :
  query:Acq_plan.Query.t ->
  algorithm:Acq_core.Planner.algorithm ->
  model:Acq_prob.Backend.spec ->
  string
(** The "query: ...\nalgorithm: ...\nmodel: ...\n\n" preamble the CLI
    prints before a plan/run/audit report. *)

val report_to_string : Acq_sensor.Runtime.report -> string
(** {!Acq_sensor.Runtime.pp_report} with the planner wall-clock
    scrubbed to zero, so the rendering is a deterministic function of
    the inputs (wall time varies run to run; it lives in telemetry
    instead). Ends with a newline, exactly as the CLI prints it. *)

val run_to_string :
  ?options:Acq_core.Planner.options ->
  ?exec:Acq_exec.Mode.t ->
  ?telemetry:Acq_obs.Telemetry.t ->
  ?audit:Acq_audit.Audit.t ->
  ?audit_every:int ->
  algorithm:Acq_core.Planner.algorithm ->
  history:Acq_data.Dataset.t ->
  live:Acq_data.Dataset.t ->
  Acq_plan.Query.t ->
  string * Acq_sensor.Runtime.report
(** Plan on [history], replay [live] ({!Acq_sensor.Runtime.run}), and
    return the full deterministic rendering ({!header} + report) along
    with the raw report. [exec] is ignored; see {!Acq_exec.Mode}. *)
