(* The end-to-end acqpd benchmark. One run:

     main.exe --workload run-lab --seed 1 --seconds 12 --trace 0

   spawns `acqpd serve`, drives one workload over its Unix socket,
   checks every response, prints every metric with its unit, writes
   BENCH_e2e.json, and ends with one JSON line. --trace 1 adds the
   in-process replay and prints the per-layer metrics instead. See
   README.md for the workloads, metrics, and comparing two commits. *)

module G = E2e.Gen
module M = E2e.Measure
module R = E2e.Replay
module J = Acq_obs.Json
module Stats = Acq_util.Stats

type metric = { name : string; value : float; unit : string }

type run = {
  workload : G.workload;
  seed : int;
  traced : bool;
  correct : bool;
  valid : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  client : metric list;
}

let pct xs p = if Array.length xs = 0 then 0.0 else Stats.percentile xs p
let median xs = pct xs 50.0
let m name value unit = { name; value; unit }

(* Samples beyond a percentile; a tail is reported only with ten. *)
let beyond xs p = float_of_int (Array.length xs) *. (1.0 -. (p /. 100.0))

(* ------------------------------------------------------------------ *)
(* End-to-end metrics, from the socket phase with tracing off *)

let end_to_end (r : M.result) =
  [
    m "setup_s" (median r.M.setup_s) "s";
    m "latency_ms_p50" (pct r.M.fg 50.0) "ms";
    m "throughput_per_s" r.M.throughput "1/s";
    m "acq_cost" r.M.acq_cost "cost";
    m "rss_mib" r.M.rss_mb "MiB";
  ]
  @ (if r.M.runs = [||] then [] else [ m "detail.run_ms_p50" (median r.M.runs) "ms" ])
  @ (if r.M.subscribes = [||] then []
     else [ m "detail.subscribe_ms_p50" (median r.M.subscribes) "ms" ])
  @ (if r.M.ticks_per_s = 0.0 then [] else [ m "detail.ticks_per_s" r.M.ticks_per_s "1/s" ])
  @ List.filter_map
      (fun p ->
        if beyond r.M.fg p >= 10.0 then
          Some (m (Printf.sprintf "detail.latency_ms_p%.0f" p) (pct r.M.fg p) "ms")
        else None)
      [ 75.0; 90.0; 99.0 ]

let client_guards (r : M.result) =
  [
    m "client_cpu_frac" r.M.cpu_frac "ratio";
    m "gen_late_ms_p50" (pct r.M.late 50.0) "ms";
    m "gen_late_ms_p99" (pct r.M.late 99.0) "ms";
  ]

(* The numbers measure acqpd, not the client, only while the client
   is mostly idle and its open-loop sends go out on time. *)
let client_valid (r : M.result) = r.M.cpu_frac <= 0.8 && pct r.M.late 50.0 <= 1.0

(* ------------------------------------------------------------------ *)
(* Per-layer metrics, from the traced replay *)

let time_ms f =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (f ()));
  (Unix.gettimeofday () -. t0) *. 1000.0

let median_of k f = median (Array.init k (fun _ -> time_ms f))

(* Backend builds per planning call: one per arm, and the Pac arm
   builds the sampled kind (Planner.plan substitutes it). *)
let backend_build_ms (g : G.t) history =
  let build spec = median_of 5 (fun () -> Acq_prob.Backend.of_dataset ~spec history) in
  let default = Acq_prob.Backend.default_spec in
  let arms =
    match g.G.workload with
    | G.Plan_synthetic -> Acq_par.Portfolio.default_algorithms
    | G.Run_lab | G.Tick_selective | G.Mixed_chatty -> [ Acq_core.Planner.Heuristic ]
  in
  List.fold_left
    (fun acc a ->
      acc
      +.
      if a = Acq_core.Planner.Pac then
        build { default with Acq_prob.Backend.kind = Acq_prob.Backend.default_sampled_kind }
      else build default)
    0.0 arms

let mean_us a name =
  match Hashtbl.find_opt a.R.durations name with
  | Some (_ :: _ as ds) -> List.fold_left ( +. ) 0.0 ds /. float_of_int (List.length ds)
  | _ -> 0.0

let median_us a name =
  match Hashtbl.find_opt a.R.durations name with
  | Some ds -> median (Array.of_list ds)
  | None -> 0.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

let print_table (a : R.attribution) =
  Printf.printf "\nself time by span (traced replay, %.1f ms of request and tick wall)\n"
    (a.R.root_us /. 1000.0);
  Printf.printf "  %-7s %-26s %8s %12s %7s\n" "layer" "span" "calls" "self ms" "share";
  List.iter
    (fun (r : R.row) ->
      Printf.printf "  %-7s %-26s %8d %12.2f %6.1f%%\n" (R.layer_of r.R.name) r.R.name r.R.calls
        (r.R.self_us /. 1000.0)
        (100.0 *. ratio r.R.self_us a.R.root_us))
    a.R.rows

let per_layer (g : G.t) ~history ~live (r : M.result) =
  let w = g.G.workload in
  let history_live_ms = median_of 3 (fun () -> Acq_serve.Source.history_live (G.spec w)) in
  let backend_ms = backend_build_ms g history in
  let fg_lines = List.init (R.requests w) (fun i -> (i, G.request g i)) in
  let ticks_per_request =
    match G.foreground_rate w with
    | Some rate when G.ticking w ->
        int_of_float (Float.round (r.M.ticks_per_s /. rate))
    | _ -> 0
  in
  let f = R.run g ~history ~live ~fg_lines ~ticks_per_request in
  let gate = if G.ticking w then R.full_cycle_gate f.R.noop else [] in
  let a = R.attribute f.R.tracer in
  let s = f.R.traced.R.s and reg = f.R.registry.R.s in
  let calls, nodes, estimator_calls = R.planner_totals f.R.traced in
  print_table a;
  Printf.printf
    "request and tick spans cover %.1f%% of the traced replay's wall; layer spans below \
     them cover %.1f%% of the spans\n"
    (100.0 *. ratio (a.R.root_us /. 1e6) s.R.wall)
    (100.0 *. (1.0 -. ratio a.R.root_self_us a.R.root_us));
  let sessions = Acq_adapt.Supervisor.sessions f.R.registry.R.supervisor in
  let tick = Option.value (Hashtbl.find_opt a.R.durations "serve.tick") ~default:[] in
  let detail =
    [
      m "detail.serve.tick_us_p50" (if tick = [] then 0.0 else median (Array.of_list tick)) "us";
      m "detail.serve.tick_us_p99" (if tick = [] then 0.0 else pct (Array.of_list tick) 99.0) "us";
      m "detail.adapt.supervisor_step_us" (mean_us a "adapt.supervisor_step") "us";
      m "detail.sensor.runtime_run_ms" (mean_us a "runtime.run" /. 1000.0) "ms";
      m "detail.sensor.epochs_ms" (mean_us a "runtime.epochs" /. 1000.0) "ms";
      m "detail.par.race_ms" (mean_us a "par.race" /. 1000.0) "ms";
      m "detail.adapt.session_create_us" (mean_us a "adapt.session_create") "us";
    ]
  in
  let metrics =
    [
      m "data.history_live_ms" history_live_ms "ms";
      m "prob.backend_build_ms" backend_ms "ms";
      m "serve.parse_request_us" (mean_us a "serve.parse_request") "us";
      m "sql.compile_us" (mean_us a "sql.compile") "us";
      m "serve.render_us" (mean_us a "serve.render") "us";
      m "serve.request_ms" (median_us a "serve.request" /. 1000.0) "ms";
      m "serve.transport_ms" (median r.M.transport) "ms";
      m "core.plan_ms" (mean_us a "planner.plan" /. 1000.0) "ms";
      m "core.nodes_solved" (ratio nodes calls) "count";
      m "core.estimator_calls" (ratio estimator_calls calls) "count";
      m "core.us_per_node"
        (ratio
           (List.fold_left ( +. ) 0.0
              (Option.value (Hashtbl.find_opt a.R.durations "planner.plan") ~default:[]))
           nodes)
        "us";
      m "obs.telemetry_ratio" (ratio reg.R.wall f.R.noop.R.s.R.wall) "ratio";
      m "obs.trace_overhead" (ratio s.R.wall reg.R.wall) "ratio";
      m "trace.coverage" (1.0 -. ratio a.R.root_self_us a.R.root_us) "ratio";
    ]
    @ List.map
        (fun l -> m ("layer." ^ l ^ "_pct") (100.0 *. ratio (R.layer_self_us a l) a.R.root_us) "%")
        R.layers
    @ [
        m "par.losing_arm_frac" (ratio s.R.losing_ms s.R.race_ms) "ratio";
        m "par.arm_budget_frac" (ratio (float_of_int s.R.budget_arms) (float_of_int s.R.arms)) "ratio";
      ]
    @ List.map
        (fun arm ->
          let name = Acq_core.Planner.algorithm_name arm in
          m ("par.arm_pct." ^ name)
            (100.0 *. ratio (Option.value (Hashtbl.find_opt s.R.arm_ms name) ~default:0.0) s.R.race_ms)
            "%")
        Acq_par.Portfolio.default_algorithms
    @ [
        m "adapt.replans"
          (float_of_int (List.fold_left (fun n ss -> n + Acq_adapt.Session.replans ss) 0 sessions))
          "count";
        m "adapt.race_memo_hit_rate"
          (ratio (float_of_int s.R.memo_hits) (float_of_int s.R.subscribes))
          "ratio";
        m "serve.events_per_tick" (ratio (float_of_int s.R.events) (float_of_int s.R.ticks)) "count";
        m "serve.bytes_per_event" (ratio (float_of_int s.R.event_bytes) (float_of_int s.R.events)) "bytes";
        m "serve.shed_events" (float_of_int r.M.shed) "count";
      ]
  in
  (metrics, detail, gate, f.R.tracer)

(* ------------------------------------------------------------------ *)
(* Output *)

let metric_json ms = J.Obj (List.map (fun x -> (x.name, J.Obj [ ("value", J.Num x.value); ("unit", J.Str x.unit) ])) ms)

let run_json r =
  J.Obj
    [
      ("workload", J.Str (G.name r.workload));
      ("seed", J.Num (float_of_int r.seed));
      ("trace", J.Bool r.traced);
      ("correct", J.Bool r.correct);
      ("valid", J.Bool r.valid);
      ("attempted", J.Num (float_of_int r.attempted));
      ("failed", J.Num (float_of_int r.failed));
      ("metrics", metric_json r.metrics);
      ("client", metric_json r.client);
    ]

(* The result line, the last line of the output: every digit of every
   value. *)
let result_line r =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" r.correct
    r.attempted r.failed
    (String.concat ", "
       (List.filter_map
          (fun x ->
            if String.starts_with ~prefix:"detail." x.name then None
            else
              Some
                (Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name
                   (if Float.is_finite x.value then x.value else 0.0)
                   x.unit))
          r.metrics))

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter (fun x -> Printf.printf "  %-32s %14.4f %s\n" x.name x.value x.unit) ms

let one ~exe ~socket ~seconds ~trace ~trace_out workload seed =
  let g = G.make workload ~seed in
  let history, live = Acq_serve.Source.history_live (G.spec workload) in
  let ctx = { M.g; history; live; exe; socket } in
  Printf.printf "== %s seed %d (%s, %gs timed)\n%!" (G.name workload) seed
    (if trace then "traced" else "untraced") seconds;
  let r =
    if trace then M.run ~pair:(R.pairing g ~history ~live) ctx ~seconds ~setups:1
    else M.run ctx ~seconds ~setups:(M.setups workload)
  in
  Printf.printf "%s: %d timed (p75 has %.0f beyond); %d events; %s %.2f\n" r.M.fg_verb
    (Array.length r.M.fg) (beyond r.M.fg 75.0) r.M.events r.M.throughput_what r.M.throughput;
  let metrics, gate =
    if trace then begin
      let metrics, detail, gate, tracer = per_layer g ~history ~live r in
      Option.iter
        (fun path ->
          let oc = open_out path in
          output_string oc (Acq_obs.Tracer.to_chrome tracer);
          close_out oc)
        trace_out;
      (metrics @ detail, gate)
    end
    else (end_to_end r, [])
  in
  let client = client_guards r in
  let mismatches = r.M.mismatches @ gate in
  let run =
    {
      workload;
      seed;
      traced = trace;
      correct = mismatches = [];
      valid = client_valid r;
      attempted = r.M.attempted;
      failed = r.M.failed;
      metrics;
      client;
    }
  in
  print_metrics (if trace then "per-layer metrics" else "end-to-end metrics") metrics;
  print_metrics "client guards" client;
  if not run.valid then
    print_endline "INVALID: the client was busy or late; these numbers measure the bench client";
  List.iter (fun x -> Printf.printf "MISMATCH: %s\n" x) mismatches;
  Printf.printf "correct=%b attempted=%d failed=%d failed_frac=%g\n%!" run.correct run.attempted
    run.failed
    (ratio (float_of_int run.failed) (float_of_int run.attempted));
  run

let write_runs path ~seconds runs =
  let oc = open_out path in
  output_string oc
    (J.to_string
       (J.Obj
          [
            ("benchmark", J.Str "acqpd-e2e");
            ("seconds", J.Num seconds);
            ("runs", J.Arr (List.map run_json runs));
          ]));
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* --runs and --compare *)

(* Quartiles exactly as Python's statistics.quantiles(xs, n=4) gives
   them (its default "exclusive" method). *)
let quartiles xs =
  let xs = Array.copy xs in
  Array.sort compare xs;
  let n = Array.length xs in
  if n = 1 then (xs.(0), xs.(0), xs.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((xs.(j - 1) *. float_of_int (4 - delta)) +. (xs.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

type bound = { better : string; bound : float }

let read_bounds () =
  let file = "BENCHMARK.json" in
  if not (Sys.file_exists file) then Hashtbl.create 1
  else begin
    let ic = open_in_bin file in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let tbl = Hashtbl.create 16 in
    (match J.parse text with
    | Ok j -> (
        match J.member "end_to_end" j with
        | Some (J.Arr ms) ->
            List.iter
              (fun x ->
                match (J.member "name" x, J.member "better" x, J.member "bound" x) with
                | Some (J.Str n), Some (J.Str b), Some (J.Num v) ->
                    Hashtbl.replace tbl n { better = b; bound = v }
                | _ -> ())
              ms
        | _ -> ())
    | Error e -> Printf.eprintf "BENCHMARK.json: %s\n" e);
    tbl
  end

(* (workload, metric) -> values, in file order *)
let load_runs path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let runs =
    match J.parse text with
    | Ok j -> ( match J.member "runs" j with Some (J.Arr rs) -> rs | _ -> [])
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let tbl = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun run ->
      match (J.member "workload" run, J.member "metrics" run, J.member "trace" run) with
      | Some (J.Str w), Some (J.Obj ms), Some (J.Bool false) ->
          List.iter
            (fun (name, v) ->
              match J.member "value" v with
              | Some (J.Num x) ->
                  let key = (w, name) in
                  if not (Hashtbl.mem tbl key) then order := key :: !order;
                  Hashtbl.replace tbl key (x :: Option.value (Hashtbl.find_opt tbl key) ~default:[])
              | _ -> ())
            ms
      | _ -> ())
    runs;
  (tbl, List.rev !order)

let spread (q1, med, q3) = if med = 0.0 then 0.0 else (q3 -. q1) /. abs_float med

let summarize path =
  let bounds = read_bounds () in
  let tbl, order = load_runs path in
  Printf.printf "%-15s %-18s %3s %12s %12s %12s %8s %8s\n" "workload" "metric" "n" "q1" "median"
    "q3" "spread" "bound";
  List.iter
    (fun ((w, name) as key) ->
      let xs = Array.of_list (Hashtbl.find tbl key) in
      let ((q1, med, q3) as q) = quartiles xs in
      let verdict =
        match Hashtbl.find_opt bounds name with
        | Some b ->
            Printf.sprintf "%7.1f%% %s" (100.0 *. b.bound)
              (if spread q <= b.bound then "ok" else "WIDER THAN BOUND")
        | None -> ""
      in
      Printf.printf "%-15s %-18s %3d %12.4f %12.4f %12.4f %7.1f%% %s\n" w name (Array.length xs) q1
        med q3 (100.0 *. spread q) verdict)
    order

(* Is B within A's bound? "unresolved" when either side's spread is
   wider than the bound, unless every B run beats every A run or the
   other way round. *)
let compare_files a b =
  let bounds = read_bounds () in
  let ta, order = load_runs a and tb, _ = load_runs b in
  Printf.printf "%-15s %-18s %12s %12s %8s %8s  %s\n" "workload" "metric" "A median" "B median"
    "change" "bound" "verdict";
  List.iter
    (fun ((w, name) as key) ->
      match (Hashtbl.find_opt ta key, Hashtbl.find_opt tb key, Hashtbl.find_opt bounds name) with
      | Some xa, Some xb, Some bd ->
          let xa = Array.of_list xa and xb = Array.of_list xb in
          let ((_, ma, _) as qa) = quartiles xa and ((_, mb, _) as qb) = quartiles xb in
          let sign = if bd.better = "lower" then 1.0 else -1.0 in
          (* positive = B worse *)
          let change = if ma = 0.0 then 0.0 else sign *. (mb -. ma) /. abs_float ma in
          let worst_b = Array.fold_left (if sign > 0.0 then Float.max else Float.min) xb.(0) xb
          and best_b = Array.fold_left (if sign > 0.0 then Float.min else Float.max) xb.(0) xb
          and worst_a = Array.fold_left (if sign > 0.0 then Float.max else Float.min) xa.(0) xa
          and best_a = Array.fold_left (if sign > 0.0 then Float.min else Float.max) xa.(0) xa in
          let all_better = sign *. (worst_b -. best_a) < 0.0
          and all_worse = sign *. (best_b -. worst_a) > 0.0 in
          let verdict =
            if spread qa > bd.bound || spread qb > bd.bound then
              if all_better then "better (every run)"
              else if all_worse then "worse (every run)"
              else "unresolved"
            else if change > bd.bound then "REGRESSED"
            else if change < -.bd.bound then "improved"
            else "within bound"
          in
          Printf.printf "%-15s %-18s %12.4f %12.4f %+7.1f%% %7.1f%%  %s\n" w name ma mb
            (100.0 *. change) (100.0 *. bd.bound) verdict
      | _ -> ())
    order

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 12.0 and trace = ref 0 in
  let runs = ref 1 and out = ref "BENCH_e2e.json" and trace_out = ref None in
  let exe = ref "_build/default/bin/acqpd.exe" in
  let compare_a = ref "" and compare_b = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME  run-lab, plan-synthetic, tick-selective, mixed-chatty or all");
      ("--seed", Arg.Set_int seed, "N  query-stream seed (the dataset seed stays 42)");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1  1: traced in-process replay, per-layer metrics");
      ("--trace-out", Arg.String (fun s -> trace_out := Some s; trace := 1), "FILE  Chrome trace of the replay");
      ("--runs", Arg.Set_int runs, "N  run each workload N times, with seeds S, S+1, ...");
      ("--out", Arg.Set_string out, "FILE  where to write the runs (BENCH_e2e.json)");
      ("--acqpd", Arg.Set_string exe, "PATH  the daemon binary");
      ( "--compare",
        Arg.Tuple [ Arg.Set_string compare_a; Arg.Set_string compare_b ],
        "A.json B.json  medians, quartiles and bound verdicts of B against A" );
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe [options]";
  match !compare_a with
  | "" ->
      let workloads =
        if !workload = "all" then G.workloads
        else
          match G.of_name !workload with
          | Some w -> [ w ]
          | None ->
              prerr_endline ("unknown workload: " ^ !workload);
              exit 2
      in
      if not (Sys.file_exists !exe) then begin
        Printf.eprintf "acqpd binary not found: %s (build it with dune build)\n" !exe;
        exit 2
      end;
      if not (Sys.file_exists "_build") then Unix.mkdir "_build" 0o755;
      let socket = Filename.concat "_build" (Printf.sprintf "e2e-%d.sock" (Unix.getpid ())) in
      let all =
        List.concat_map
          (fun w ->
            List.init !runs (fun k ->
                one ~exe:!exe ~socket ~seconds:!seconds ~trace:(!trace = 1)
                  ~trace_out:!trace_out w (!seed + k)))
          workloads
      in
      write_runs !out ~seconds:!seconds all;
      if List.length all > 1 then summarize !out;
      let last = List.nth all (List.length all - 1) in
      print_endline (result_line last);
      if not (List.for_all (fun r -> r.correct) all) then exit 1
  | a -> compare_files a !compare_b
