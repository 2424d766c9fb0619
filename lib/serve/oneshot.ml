module P = Acq_core.Planner
module Runtime = Acq_sensor.Runtime

let header ~query ~algorithm ~model =
  Printf.sprintf "query: %s\nalgorithm: %s\nmodel: %s\n\n"
    (Acq_plan.Query.describe query)
    (P.algorithm_name algorithm)
    (Acq_prob.Backend.spec_to_string model)

(* The report is rendered with the planner's wall-clock zeroed: every
   other field of the report is a deterministic function of
   (dataset spec, query, options), and scrubbing the one
   machine-speed-dependent number makes the whole rendering
   reproducible — which is what lets the daemon's RUN responses be
   checked byte-for-byte against a one-shot run of the same spec.
   Planning wall time is telemetry (acqp_planner_plan_ms,
   acqpd_request_ms), not report content. *)
let scrub (r : Runtime.report) =
  { r with Runtime.plan_stats = { r.Runtime.plan_stats with Acq_core.Search.wall_ms = 0.0 } }

let report_to_string (r : Runtime.report) =
  Format.asprintf "%a@." Runtime.pp_report (scrub r)

let run_to_string ?options ?exec:(_ : Acq_exec.Mode.t option) ?telemetry ?audit
    ?audit_every ~algorithm ~history ~live query =
  let model =
    match options with
    | Some o -> o.P.prob_model
    | None -> P.default_options.P.prob_model
  in
  let report =
    Runtime.run ?options ?telemetry ?audit ?audit_every ~algorithm
      ~history ~live query
  in
  (header ~query ~algorithm ~model ^ report_to_string report, report)
