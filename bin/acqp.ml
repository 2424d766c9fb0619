(* acqp — acquisitional query processing with correlated attributes.

   Subcommands:
     gen         generate a dataset and write it as CSV
     plan        optimize one query and print the conditional plan
                 (--portfolio races planners across domains)
     run         simulate the full sensor-network loop for a query
                 (--audit attaches the calibration/regret pipeline)
     audit       serve a query audited and report estimator calibration,
                 plan regret, and the flight-recorder timeline
     bench       sequential vs multicore workload fan-out comparison
     experiment  reproduce the paper's tables/figures (see --list)
*)

open Cmdliner

type dataset_kind = Lab | Garden5 | Garden11 | Synthetic

let dataset_conv =
  let parse = function
    | "lab" -> Ok Lab
    | "garden5" -> Ok Garden5
    | "garden11" -> Ok Garden11
    | "synthetic" -> Ok Synthetic
    | s -> Error (`Msg ("unknown dataset: " ^ s))
  in
  let print fmt k =
    Format.pp_print_string fmt
      (match k with
      | Lab -> "lab"
      | Garden5 -> "garden5"
      | Garden11 -> "garden11"
      | Synthetic -> "synthetic")
  in
  Arg.conv (parse, print)

(* Dataset materialization lives in Acq_serve.Source so the daemon
   serves byte-identical data for the same (kind, rows, seed) spec. *)
let source_kind = function
  | Lab -> Acq_serve.Source.Lab
  | Garden5 -> Acq_serve.Source.Garden5
  | Garden11 -> Acq_serve.Source.Garden11
  | Synthetic -> Acq_serve.Source.Synthetic

let make_dataset kind ~rows ~seed =
  Acq_serve.Source.make { Acq_serve.Source.kind = source_kind kind; rows; seed }

(* Flush-on-signal: subcommands register the closures that write their
   --metrics-out/--trace-out/--audit-out artifacts; SIGINT/SIGTERM run
   them before exiting, so an interrupted run still leaves its
   observability files behind. *)
let signal_flushers : (unit -> unit) list ref = ref []

let register_flush f = signal_flushers := f :: !signal_flushers

let install_signal_flush () =
  List.iter
    (fun signum ->
      try
        Sys.set_signal signum
          (Sys.Signal_handle
             (fun _ ->
               List.iter
                 (fun f -> try f () with _ -> ())
                 !signal_flushers;
               exit (128 + (if signum = Sys.sigint then 2 else 15))))
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ]

let algo_conv =
  let parse = function
    | "naive" -> Ok Acq_core.Planner.Naive
    | "corrseq" -> Ok Acq_core.Planner.Corr_seq
    | "heuristic" -> Ok Acq_core.Planner.Heuristic
    | "exhaustive" -> Ok Acq_core.Planner.Exhaustive
    | "pac" -> Ok Acq_core.Planner.Pac
    | s -> Error (`Msg ("unknown algorithm: " ^ s))
  in
  let print fmt a =
    Format.pp_print_string fmt
      (String.lowercase_ascii (Acq_core.Planner.algorithm_name a))
  in
  Arg.conv (parse, print)

(* Common args *)

let dataset_arg =
  Arg.(
    value
    & opt dataset_conv Lab
    & info [ "dataset"; "d" ] ~docv:"NAME"
        ~doc:"Dataset: lab, garden5, garden11, or synthetic.")

let rows_arg =
  Arg.(
    value & opt int 20_000
    & info [ "rows" ] ~docv:"N" ~doc:"Number of tuples to generate.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed.")

let sql_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "sql"; "q" ] ~docv:"QUERY"
        ~doc:
          "Query, e.g. 'SELECT * WHERE light >= 300 AND temp <= 19'. \
           Defaults to a dataset-appropriate example.")

let splits_arg =
  Arg.(
    value & opt int 5
    & info [ "splits"; "k" ] ~docv:"K"
        ~doc:"Maximum conditioning splits for the heuristic planner.")

let points_arg =
  Arg.(
    value & opt int 8
    & info [ "points"; "r" ] ~docv:"R"
        ~doc:"Candidate split points per attribute (the SPSF knob).")

let algo_arg =
  Arg.(
    value
    & opt algo_conv Acq_core.Planner.Heuristic
    & info [ "algo"; "a" ] ~docv:"ALGO"
        ~doc:"Planner: naive, corrseq, heuristic, exhaustive, or pac.")

let model_conv =
  let parse s =
    match Acq_prob.Backend.spec_of_string s with
    | Ok spec -> Ok spec
    | Error e -> Error (`Msg (Acq_prob.Backend.spec_error_to_string e))
  in
  let print fmt spec =
    Format.pp_print_string fmt (Acq_prob.Backend.spec_to_string spec)
  in
  Arg.conv (parse, print)

(* A planner that runs out of its search budget or its --deadline-ms
   before finding a plan fails the command with the daemon's 429 texts;
   it is not an internal error. stdout is flushed first so the line
   follows the query header it belongs to. *)
let or_planning_failure f =
  let fail msg =
    flush stdout;
    prerr_endline ("acqp: " ^ msg);
    exit 1
  in
  try f () with
  | Acq_core.Search.Budget_exceeded ->
      fail "planning budget exhausted before a plan was found"
  | Acq_core.Search.Deadline_exceeded -> fail "planning deadline exceeded"

let model_arg =
  Arg.(
    value
    & opt model_conv Acq_prob.Backend.default_spec
    & info [ "model"; "m" ] ~docv:"MODEL"
        ~doc:
          "Probability backend the planner estimates selectivities with: \
           $(b,empirical) (raw training counts), $(b,chow-liu) \
           (smoothed dependency-tree model), $(b,independence) \
           (marginals only, the correlation-blind baseline), or \
           $(b,sampled) / 'sampled(n,delta)' (counts over a random sample \
           of n rows with a Hoeffding interval at confidence 1-delta; a \
           bare $(b,sampled) is 'sampled(256,0.05)'; the backend \
           $(b,--algo pac) plans with).")

(* Telemetry plumbing shared by plan/run: build a live handle only
   when an output file was requested, flush on completion. *)

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write a Prometheus text dump of every counter, gauge, and \
           histogram the run recorded to $(docv).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON array (planner and runtime \
           spans, per-mote energy counter tracks) to $(docv); load it in \
           chrome://tracing or Perfetto.")

let with_telemetry ~metrics_out ~trace_out f =
  let metrics =
    match metrics_out with
    | Some _ -> Some (Acq_obs.Metrics.create ())
    | None -> None
  in
  let tracer =
    match trace_out with
    | Some _ -> Some (Acq_obs.Tracer.create ())
    | None -> None
  in
  let obs = Acq_obs.Telemetry.create ?metrics ?tracer () in
  let dump path contents what =
    let oc = open_out path in
    output_string oc contents;
    close_out oc;
    Printf.printf "%s written to %s\n" what path
  in
  let flush () =
    (match (metrics_out, metrics) with
    | Some path, Some m ->
        dump path (Acq_obs.Metrics.to_prometheus m) "metrics"
    | _ -> ());
    match (trace_out, tracer) with
    | Some path, Some tr -> dump path (Acq_obs.Tracer.to_chrome tr) "trace"
    | _ -> ()
  in
  register_flush flush;
  f obs;
  flush ()

(* Audit plumbing shared by `run --audit` and the `audit` subcommand:
   build the pipeline, print the calibration / regret / flight
   summary, write the JSON artifacts. *)

let audit_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "audit-out" ] ~docv:"FILE"
        ~doc:
          "Write the full audit report (calibration cells, last regret \
           assessment, flight-recorder ring) as JSON to $(docv). Implies \
           $(b,--audit).")

let flight_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-out" ] ~docv:"FILE"
        ~doc:
          "Write the flight-recorder ring as Chrome trace-event instants \
           to $(docv) (loadable next to --trace-out spans). Implies \
           $(b,--audit).")

let write_json path j what =
  let oc = open_out path in
  output_string oc (Acq_obs.Json.to_string j);
  output_char oc '\n';
  close_out oc;
  Printf.printf "%s written to %s\n" what path

let print_audit_summary a =
  let module Au = Acq_audit.Audit in
  let module Cal = Acq_audit.Calibration in
  let module Fr = Acq_audit.Flight_recorder in
  (match Au.recorder a with
  | None -> print_endline "audit: no plan was ever installed"
  | Some r ->
      let c = Acq_audit.Recorder.snapshot r in
      Printf.printf
        "calibration: %d node observations, brier %.4f, gap %.4f\n"
        (Cal.observations c) (Cal.brier_score c) (Cal.calibration_error c);
      let names = Cal.names c in
      let t =
        Acq_util.Tbl.create
          [ "attribute"; "obs"; "brier"; "gap"; "mean err"; "max |err|" ]
      in
      Array.iteri
        (fun i name ->
          let cell = Cal.attr_cell c i in
          if cell.Cal.count > 0 then
            Acq_util.Tbl.add_row t
              [
                name;
                string_of_int cell.Cal.count;
                Printf.sprintf "%.4f" (Cal.brier cell);
                Printf.sprintf "%.4f" (Cal.gap cell);
                Printf.sprintf "%+.4f" (Cal.mean_err cell);
                Printf.sprintf "%.4f" cell.Cal.max_abs_err;
              ])
        names;
      Acq_util.Tbl.print t;
      let cc = Cal.cost_cell c in
      if cc.Cal.count > 0 then
        Printf.printf
          "cost: %d tuples, mean err %+.4f, mae %.4f, max |err| %.4f\n"
          cc.Cal.count (Cal.mean_err cc) (Cal.mean_abs_err cc)
          cc.Cal.max_abs_err);
  (match Au.last_regret a with
  | None -> ()
  | Some o ->
      let open Acq_audit.Regret in
      Printf.printf
        "\n\
         regret (window of %d rows): current realized %.2f, regret %.2f, \
         ratio %.3fx\n"
        o.rows o.current_realized o.regret o.regret_ratio;
      let t = Acq_util.Tbl.create [ "arm"; "planned"; "est cost"; "realized" ] in
      List.iter
        (fun asmt ->
          Acq_util.Tbl.add_row t
            [
              asmt.arm.name;
              (if asmt.planned then "yes" else "no");
              Printf.sprintf "%.2f" asmt.est_cost;
              (if asmt.planned then Printf.sprintf "%.2f" asmt.realized_cost
               else "-");
            ])
        o.assessments;
      Acq_util.Tbl.print t);
  let f = Au.flight a in
  Printf.printf
    "\nflight recorder: %d events (%d dropped), %d anomaly dumps\n"
    (Fr.recorded f) (Fr.dropped f) (Fr.anomalies f)

let finish_audit ~audit_out ~flight_out a =
  print_newline ();
  print_audit_summary a;
  (match audit_out with
  | Some path -> write_json path (Acq_audit.Audit.report a) "audit report"
  | None -> ());
  match flight_out with
  | Some path ->
      write_json path (Acq_audit.Audit.chrome_events a) "flight trace"
  | None -> ()

let default_sql kind = Acq_serve.Source.default_sql (source_kind kind)

let compile_query kind schema sql =
  let text = match sql with Some s -> s | None -> default_sql kind in
  (Acq_sql.Catalog.compile schema text).Acq_sql.Catalog.query

(* gen *)

let gen_cmd =
  let out_arg =
    Arg.(
      value & opt string "dataset.csv"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output CSV path.")
  in
  let raw_arg =
    Arg.(
      value & flag
      & info [ "raw" ]
          ~doc:"Write raw-unit values (bin midpoints) instead of bin ids.")
  in
  let run kind rows seed out raw =
    let ds = make_dataset kind ~rows ~seed in
    if raw then Acq_data.Csv_io.save_raw out ds else Acq_data.Csv_io.save out ds;
    Printf.printf "wrote %d rows x %d attributes to %s\n"
      (Acq_data.Dataset.nrows ds) (Acq_data.Dataset.ncols ds) out
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a dataset and write it as CSV.")
    Term.(const run $ dataset_arg $ rows_arg $ seed_arg $ out_arg $ raw_arg)

(* plan *)

let stats_flag =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print planner search statistics (nodes solved, memo hits, \
           estimator calls, plan bytes, wall-clock ms).")

let portfolio_flag =
  Arg.(
    value & flag
    & info [ "portfolio" ]
        ~doc:
          "Race Exhaustive, Heuristic, CorrSeq, and Pac in parallel domains \
           under one shared deadline and keep the cheapest finished plan \
           (deterministic: ties go to the earlier arm, never to the \
           faster one). Overrides --algo.")

let jobs_arg =
  Arg.(
    value & opt int 3
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Worker domains for --portfolio (>= 1).")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Shared wall-clock deadline for every planner; arms past it \
           lose the race (with --portfolio) or fail the plan.")

let print_plan_result ~obs ~costs ~test ~show_stats q
    (r : Acq_core.Planner.result) =
  let plan = r.Acq_core.Planner.plan in
  print_string (Acq_plan.Printer.to_string q plan);
  Printf.printf "\n%s\n" (Acq_plan.Printer.summary q plan);
  Printf.printf "plan size (zeta): %d bytes\n" (Acq_plan.Serialize.size plan);
  Printf.printf "expected cost on training distribution: %.2f\n"
    r.Acq_core.Planner.est_cost;
  Printf.printf "measured cost on held-out test data:    %.2f\n"
    (Acq_exec.Runner.average_cost ~obs q ~costs plan test);
  Printf.printf "correct on all test tuples: %b\n"
    (Acq_plan.Executor.consistent q ~costs plan test);
  if show_stats then
    Printf.printf "planner search: %s\n"
      (Acq_core.Search.stats_to_string r.Acq_core.Planner.stats)

let plan_cmd =
  let run kind rows seed sql algo model splits points portfolio jobs
      deadline_ms show_stats metrics_out trace_out =
    let ds = make_dataset kind ~rows ~seed in
    let train, test = Acq_data.Dataset.split_by_time ds ~train_fraction:0.5 in
    let schema = Acq_data.Dataset.schema ds in
    let q = compile_query kind schema sql in
    let costs = Acq_data.Schema.costs schema in
    let options =
      {
        Acq_core.Planner.default_options with
        max_splits = splits;
        split_points_per_attr = points;
        deadline_ms;
        prob_model = model;
      }
    in
    Printf.printf "query: %s\nalgorithm: %s\nmodel: %s\n\n"
      (Acq_plan.Query.describe q)
      (if portfolio then "portfolio (exhaustive / heuristic / corrseq / pac)"
       else Acq_core.Planner.algorithm_name algo)
      (Acq_prob.Backend.spec_to_string model);
    or_planning_failure @@ fun () ->
    with_telemetry ~metrics_out ~trace_out @@ fun obs ->
    if not portfolio then
      let r = Acq_core.Planner.plan ~options ~telemetry:obs algo q ~train in
      print_plan_result ~obs ~costs ~test ~show_stats q r
    else begin
      let module Pf = Acq_par.Portfolio in
      let outcome =
        Acq_par.Domain_pool.with_pool ~telemetry:obs ~domains:(max 1 jobs)
          (fun pool -> Pf.race ~options ~pool ~telemetry:obs q ~train)
      in
      let t =
        Acq_util.Tbl.create [ "arm"; "status"; "est cost"; "wall ms" ]
      in
      List.iter
        (fun (arm : Pf.arm) ->
          Acq_util.Tbl.add_row t
            [
              Acq_core.Planner.algorithm_name arm.Pf.algorithm;
              (match arm.Pf.status with
              | Pf.Failed msg -> "failed: " ^ msg
              | s -> Pf.status_name s);
              (match arm.Pf.result with
              | Some r -> Printf.sprintf "%.2f" r.Acq_core.Planner.est_cost
              | None -> "-");
              Printf.sprintf "%.2f" arm.Pf.wall_ms;
            ])
        outcome.Pf.arms;
      Acq_util.Tbl.print t;
      print_newline ();
      match outcome.Pf.winner with
      | None -> print_endline "no arm finished within the deadline/budget"
      | Some (algo, r) ->
          Printf.printf "winner: %s\n\n" (Acq_core.Planner.algorithm_name algo);
          print_plan_result ~obs ~costs ~test ~show_stats q r
    end
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Optimize one query and print the conditional plan.")
    Term.(
      const run $ dataset_arg $ rows_arg $ seed_arg $ sql_arg $ algo_arg
      $ model_arg $ splits_arg $ points_arg $ portfolio_flag
      $ jobs_arg $ deadline_arg $ stats_flag $ metrics_out_arg
      $ trace_out_arg)

(* run *)

let adaptive_arg =
  Arg.(
    value & flag
    & info [ "adaptive" ]
        ~doc:
          "Serve the query adaptively: watch the live stream's \
           sliding-window statistics and replan (through a plan cache) \
           when the replanning policy fires, re-disseminating each new \
           plan. Prints the plan-switch timeline.")

let drift_threshold_arg =
  Arg.(
    value & opt float 0.15
    & info [ "drift-threshold" ] ~docv:"T"
        ~doc:
          "High watermark on the window-vs-reference drift score for the \
           drift trigger (re-arms at $(docv)/2); 0 disables the drift \
           trigger.")

let replan_every_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "replan-every" ] ~docv:"K"
        ~doc:"Also replan unconditionally every $(docv) epochs.")

let cache_size_arg =
  Arg.(
    value & opt int 8
    & info [ "cache-size" ] ~docv:"N"
        ~doc:"Plan-cache capacity (LRU entries).")

let window_arg =
  Arg.(
    value & opt int 512
    & info [ "window" ] ~docv:"W"
        ~doc:"Sliding statistics window, in tuples.")

let drift_at_arg =
  Arg.(
    value
    & opt (list int) []
    & info [ "drift-at" ] ~docv:"ROWS"
        ~doc:
          "Synthetic dataset only: make the live trace piecewise- \
           stationary, flipping every cheap-expensive correlation at \
           these row indices (comma-separated, relative to the live \
           trace).")

let audit_flag =
  Arg.(
    value & flag
    & info [ "audit" ]
        ~doc:
          "Attach the estimator-calibration audit pipeline: per-node \
           predicted-vs-observed selectivity cells, realized-cost \
           tracking, cadenced plan-regret replay, and the query flight \
           recorder. Verdicts, costs, and acquisition order are \
           unchanged; a summary prints after the report.")

let run_cmd =
  let run kind rows seed sql algo model splits points adaptive
      drift_threshold replan_every cache_size window drift_at audit audit_out
      flight_out metrics_out trace_out =
    let history, live =
      if drift_at = [] then
        let ds = make_dataset kind ~rows ~seed in
        Acq_data.Dataset.split_by_time ds ~train_fraction:0.5
      else if kind <> Synthetic then
        failwith "--drift-at is only meaningful with --dataset synthetic"
      else
        (* sel <> 0.5 so the flip also moves the expensive marginals,
           making the drift visible to the window statistics. *)
        let params = { Acq_data.Synthetic_gen.n = 10; gamma = 1; sel = 0.25 } in
        let half = rows / 2 in
        ( Acq_data.Synthetic_gen.generate
            (Acq_util.Rng.create seed)
            params ~rows:half,
          Acq_data.Synthetic_gen.generate_drifting
            (Acq_util.Rng.create (seed + 1))
            params ~rows:half ~change_points:drift_at )
    in
    let schema = Acq_data.Dataset.schema history in
    let q = compile_query kind schema sql in
    let options =
      {
        Acq_core.Planner.default_options with
        max_splits = splits;
        split_points_per_attr = points;
        prob_model = model;
      }
    in
    Printf.printf "query: %s\nalgorithm: %s\nmodel: %s\n\n"
      (Acq_plan.Query.describe q)
      (Acq_core.Planner.algorithm_name algo)
      (Acq_prob.Backend.spec_to_string model);
    or_planning_failure @@ fun () ->
    with_telemetry ~metrics_out ~trace_out @@ fun obs ->
    let audit =
      if audit || audit_out <> None || flight_out <> None then
        Some (Acq_audit.Audit.create ~telemetry:obs ())
      else None
    in
    let flush_audit () =
      match audit with
      | Some a -> finish_audit ~audit_out ~flight_out a
      | None -> ()
    in
    (match audit with Some _ -> register_flush flush_audit | None -> ());
    if not adaptive then begin
      let report =
        Acq_sensor.Runtime.run ~options ~telemetry:obs ?audit
          ~algorithm:algo ~history ~live q
      in
      (* The shared serving renderer (planner wall-clock scrubbed), so
         this output is byte-identical to the daemon's RUN response on
         the same spec/query/options. *)
      print_string (Acq_serve.Oneshot.report_to_string report);
      flush_audit ()
    end
    else begin
      let policy =
        {
          Acq_adapt.Policy.default with
          drift_high =
            (if drift_threshold > 0.0 then Some drift_threshold else None);
          drift_low = drift_threshold /. 2.0;
          replan_every;
        }
      in
      let cache =
        Acq_adapt.Plan_cache.create ~telemetry:obs ~capacity:cache_size ()
      in
      let report =
        Acq_sensor.Runtime.run_adaptive ~options ~telemetry:obs ~policy
          ~window ~cache ?audit ~algorithm:algo ~history ~live q
      in
      (match report.Acq_sensor.Runtime.switches with
      | [] -> print_endline "no plan switches"
      | switches ->
          print_endline "plan-switch timeline:";
          List.iter
            (fun sw ->
              Format.printf "  %a@." Acq_sensor.Runtime.pp_switch sw)
            switches);
      Format.printf "%a@." Acq_sensor.Runtime.pp_adaptive_report report;
      flush_audit ()
    end
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Plan on the basestation, disseminate into the simulated network, \
          and replay a live trace epoch by epoch — optionally adaptively, \
          replanning when the stream drifts.")
    Term.(
      const run $ dataset_arg $ rows_arg $ seed_arg $ sql_arg $ algo_arg
      $ model_arg $ splits_arg $ points_arg $ adaptive_arg
      $ drift_threshold_arg $ replan_every_arg $ cache_size_arg $ window_arg
      $ drift_at_arg $ audit_flag $ audit_out_arg $ flight_out_arg
      $ metrics_out_arg $ trace_out_arg)

(* audit *)

let audit_cmd =
  let regret_every_arg =
    Arg.(
      value & opt int 4
      & info [ "regret-every" ] ~docv:"K"
          ~doc:
            "Assess plan regret every $(docv)-th audit checkpoint \
             (replaying the window under every portfolio arm); 0 \
             disables regret accounting.")
  in
  let audit_every_arg =
    Arg.(
      value & opt int 512
      & info [ "audit-every" ] ~docv:"N"
          ~doc:"Audit checkpoint cadence in epochs (fixed-plan serving).")
  in
  let run kind rows seed sql algo model splits points regret_every
      audit_every audit_out flight_out metrics_out trace_out =
    let ds = make_dataset kind ~rows ~seed in
    let history, live = Acq_data.Dataset.split_by_time ds ~train_fraction:0.5 in
    let schema = Acq_data.Dataset.schema ds in
    let q = compile_query kind schema sql in
    let options =
      {
        Acq_core.Planner.default_options with
        max_splits = splits;
        split_points_per_attr = points;
        prob_model = model;
      }
    in
    Printf.printf "query: %s\nalgorithm: %s\nmodel: %s\n\n"
      (Acq_plan.Query.describe q)
      (Acq_core.Planner.algorithm_name algo)
      (Acq_prob.Backend.spec_to_string model);
    or_planning_failure @@ fun () ->
    with_telemetry ~metrics_out ~trace_out @@ fun obs ->
    let audit =
      Acq_audit.Audit.create ~telemetry:obs ~regret_every
        ~arms:(if regret_every = 0 then [] else Acq_audit.Regret.default_arms)
        ()
    in
    let report =
      Acq_sensor.Runtime.run ~options ~telemetry:obs ~audit
        ~audit_every ~algorithm:algo ~history ~live q
    in
    Printf.printf "epochs: %d, matches: %d, avg cost/epoch %.2f\n"
      report.Acq_sensor.Runtime.epochs report.Acq_sensor.Runtime.matches
      report.Acq_sensor.Runtime.avg_cost_per_epoch;
    finish_audit ~audit_out ~flight_out audit
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Serve a query with the full audit pipeline on and report \
          estimator calibration (predicted vs observed selectivity per \
          attribute, predicted vs realized cost), plan regret against the \
          other portfolio arms, and the flight-recorder timeline.")
    Term.(
      const run $ dataset_arg $ rows_arg $ seed_arg $ sql_arg $ algo_arg
      $ model_arg $ splits_arg $ points_arg $ regret_every_arg
      $ audit_every_arg $ audit_out_arg $ flight_out_arg $ metrics_out_arg
      $ trace_out_arg)

(* stats *)

let stats_cmd =
  let top_arg =
    Arg.(
      value & opt int 8
      & info [ "top" ] ~docv:"N" ~doc:"How many correlated pairs to show.")
  in
  let run kind rows seed top =
    let ds = make_dataset kind ~rows ~seed in
    let schema = Acq_data.Dataset.schema ds in
    let n = Acq_data.Schema.arity schema in
    let names = Acq_data.Schema.names schema in
    let costs = Acq_data.Schema.costs schema in
    (* Per-attribute summary. *)
    let t = Acq_util.Tbl.create [ "attribute"; "cost"; "domain"; "entropy (bits)" ] in
    for a = 0 to n - 1 do
      let counts = Acq_prob.View.histogram (Acq_prob.View.of_dataset ds) ~attr:a in
      let total = float_of_int (Acq_data.Dataset.nrows ds) in
      let entropy =
        Array.fold_left
          (fun acc c ->
            if c = 0 then acc
            else
              let p = float_of_int c /. total in
              acc -. (p *. (log p /. log 2.0)))
          0.0 counts
      in
      Acq_util.Tbl.add_row t
        [
          names.(a);
          Printf.sprintf "%g" costs.(a);
          string_of_int (Acq_data.Schema.domains schema).(a);
          Printf.sprintf "%.2f" entropy;
        ]
    done;
    Acq_util.Tbl.print t;
    (* Most correlated (cheap, expensive) pairs: the raw material for
       conditional plans. *)
    let mi = Acq_prob.Mutual_info.matrix ds in
    let pairs = ref [] in
    for a = 0 to n - 1 do
      for b = a + 1 to n - 1 do
        pairs := (mi.(a).(b), a, b) :: !pairs
      done
    done;
    let sorted = List.sort (fun (x, _, _) (y, _, _) -> compare y x) !pairs in
    let t2 = Acq_util.Tbl.create [ "pair"; "mutual information (nats)"; "planner use" ] in
    List.iteri
      (fun i (v, a, b) ->
        if i < top then
          let use =
            if Acq_data.Attribute.is_expensive (Acq_data.Schema.attr schema a)
               <> Acq_data.Attribute.is_expensive (Acq_data.Schema.attr schema b)
            then "cheap attribute predicts expensive one"
            else "-"
          in
          Acq_util.Tbl.add_row t2
            [
              names.(a) ^ " / " ^ names.(b);
              Printf.sprintf "%.3f" v;
              use;
            ])
      sorted;
    print_newline ();
    Acq_util.Tbl.print t2
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Describe a dataset: per-attribute entropy and the most correlated \
          attribute pairs (the correlations conditional plans exploit).")
    Term.(const run $ dataset_arg $ rows_arg $ seed_arg $ top_arg)

(* experiment *)

let experiment_cmd =
  let ids_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ID" ~doc:"Experiment ids (default: all).")
  in
  let full_arg =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:"Paper-scale query counts and traces (slower).")
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List experiment ids and exit.")
  in
  let run ids full list =
    if list then
      List.iter
        (fun e ->
          Printf.printf "%-14s %s\n" e.Acq_workload.Registry.id
            e.Acq_workload.Registry.title)
        Acq_workload.Registry.all
    else
      Acq_workload.Registry.run_selected { Acq_workload.Figures.full } ids
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Reproduce the paper's tables and figures (see --list).")
    Term.(const run $ ids_arg $ full_arg $ list_arg)

(* bench *)

let bench_cmd =
  let queries_arg =
    Arg.(
      value & opt int 24
      & info [ "queries"; "n" ] ~docv:"N"
          ~doc:"Workload size: random queries to plan and measure.")
  in
  let bench_jobs_arg =
    Arg.(
      value & opt int 4
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Worker domains for the parallel run (>= 1).")
  in
  let run kind rows seed queries jobs splits points =
    let module Pe = Acq_par.Parallel_experiment in
    let ds = make_dataset kind ~rows ~seed in
    let train, test = Acq_data.Dataset.split_by_time ds ~train_fraction:0.5 in
    let schema = Acq_data.Dataset.schema ds in
    let options =
      {
        Acq_core.Planner.default_options with
        max_splits = splits;
        split_points_per_attr = points;
      }
    in
    let specs =
      [
        {
          Pe.name = "heuristic";
          build =
            (fun q ->
              Acq_core.Planner.plan ~options Acq_core.Planner.Heuristic q
                ~train);
        };
      ]
    in
    let gen_query =
      match kind with
      | Lab -> fun rng -> Acq_workload.Query_gen.lab_query rng ~train
      | Garden5 ->
          fun rng -> Acq_workload.Query_gen.garden_query rng ~schema ~n_motes:5
      | Garden11 ->
          fun rng ->
            Acq_workload.Query_gen.garden_query rng ~schema ~n_motes:11
      | Synthetic ->
          fun _rng ->
            Acq_workload.Query_gen.synthetic_query
              { Acq_data.Synthetic_gen.n = 10; gamma = 1; sel = 0.5 }
              ~schema
    in
    let fan pool =
      Pe.run ?pool ~seed ~specs ~gen_query ~n_queries:queries ~train ~test ()
    in
    Printf.printf "workload: %d queries, heuristic planner, %d domains\n\n"
      queries jobs;
    let seq = fan None in
    let par =
      Acq_par.Domain_pool.with_pool ~domains:(max 1 jobs) (fun pool ->
          fan (Some pool))
    in
    let t = Acq_util.Tbl.create [ "run"; "wall ms"; "work speedup" ] in
    Acq_util.Tbl.add_row t
      [
        "sequential";
        Printf.sprintf "%.1f" seq.Pe.wall_ms;
        Printf.sprintf "%.2f" (Pe.work_speedup seq);
      ];
    Acq_util.Tbl.add_row t
      [
        Printf.sprintf "%d domains" jobs;
        Printf.sprintf "%.1f" par.Pe.wall_ms;
        Printf.sprintf "%.2f" (Pe.work_speedup par);
      ];
    Acq_util.Tbl.print t;
    let identical =
      Pe.report_to_string seq.Pe.report = Pe.report_to_string par.Pe.report
    in
    Printf.printf "\nwall speedup: %.2fx\n"
      (if par.Pe.wall_ms > 0.0 then seq.Pe.wall_ms /. par.Pe.wall_ms else 0.0);
    Printf.printf "parallel report byte-identical to sequential: %b\n"
      identical;
    if not identical then exit 1
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Fan a random query workload across worker domains and compare \
          against the sequential run: wall time, deterministic work-balance \
          speedup, and a byte-identity check of the two reports.")
    Term.(
      const run $ dataset_arg $ rows_arg $ seed_arg $ queries_arg
      $ bench_jobs_arg $ splits_arg $ points_arg)

let main_cmd =
  let doc =
    "acquisitional query processing with correlated attributes (ICDE 2005 \
     reproduction)"
  in
  Cmd.group
    (Cmd.info "acqp" ~version:"1.0.0" ~doc)
    [ gen_cmd; plan_cmd; run_cmd; audit_cmd; stats_cmd; bench_cmd;
      experiment_cmd ]

let () =
  install_signal_flush ();
  exit (Cmd.eval main_cmd)
