(* Unit tests for Acq_obs: the metrics registry (histogram edge cases
   in particular), span nesting and ordering under an injected clock,
   the self-hosted JSON parser, Search trace laziness, a golden check
   that a small Runtime.run emits a parseable Chrome trace and a
   stable metrics dump, pinned against literals, and the same for an
   Exhaustive plan's DP-tier instruments. *)

module M = Acq_obs.Metrics
module J = Acq_obs.Json
module Tr = Acq_obs.Tracer
module Sp = Acq_obs.Span
module T = Acq_obs.Telemetry

let is_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_counter_basics () =
  let m = M.create () in
  let c = M.counter m ~help:"h" "requests_total" in
  M.incr c;
  M.add c 2.5;
  Alcotest.(check (float 1e-9)) "value" 3.5 (M.counter_value c);
  let c' = M.counter m "requests_total" in
  M.incr c';
  Alcotest.(check (float 1e-9)) "same instrument" 4.5 (M.counter_value c);
  Alcotest.check_raises "monotone"
    (Invalid_argument "Metrics.add: counters are monotone") (fun () ->
      M.add c (-1.0));
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metrics: requests_total already registered as a counter")
    (fun () -> ignore (M.histogram m "requests_total" : M.histogram))

let test_labels_distinct () =
  let m = M.create () in
  let a = M.counter m ~labels:[ ("algorithm", "naive") ] "plans_total" in
  let b = M.counter m ~labels:[ ("algorithm", "greedy") ] "plans_total" in
  M.incr a;
  M.incr a;
  M.incr b;
  Alcotest.(check (float 1e-9)) "a" 2.0 (M.counter_value a);
  Alcotest.(check (float 1e-9)) "b" 1.0 (M.counter_value b);
  (* Label order does not create a new series. *)
  let a' =
    M.counter m ~labels:[ ("algorithm", "naive") ] "plans_total"
  in
  M.incr a';
  Alcotest.(check (float 1e-9)) "normalized" 3.0 (M.counter_value a)

let test_histogram_zero_observations () =
  let m = M.create () in
  let h = M.histogram m "empty_ms" in
  Alcotest.(check int) "count" 0 (M.hist_count h);
  Alcotest.(check (float 1e-9)) "sum" 0.0 (M.hist_sum h);
  Array.iter
    (fun c -> Alcotest.(check int) "bucket" 0 c)
    (M.bucket_counts h);
  (* The dump still renders the empty histogram. *)
  let dump = M.to_prometheus m in
  Alcotest.(check bool) "count line" true
    (is_infix ~affix:"empty_ms_count 0" dump)

let test_histogram_one_bucket () =
  let m = M.create () in
  let h = M.histogram m ~lowest:10.0 ~growth:2.0 ~buckets:1 "one_ms" in
  M.observe h 5.0;
  (* <= 10 -> finite bucket *)
  M.observe h 50.0;
  (* > 10 -> overflow bucket *)
  let counts = M.bucket_counts h in
  Alcotest.(check int) "cells: finite + overflow" 2 (Array.length counts);
  Alcotest.(check int) "finite" 1 counts.(0);
  Alcotest.(check int) "overflow" 1 counts.(1);
  Alcotest.(check int) "count" 2 (M.hist_count h);
  Alcotest.(check (float 1e-9)) "sum" 55.0 (M.hist_sum h)

let test_histogram_overflow_bucket () =
  let m = M.create () in
  let h = M.histogram m ~lowest:0.001 ~growth:4.0 ~buckets:20 "big_ms" in
  M.observe h infinity;
  M.observe h 1e300;
  let counts = M.bucket_counts h in
  Alcotest.(check int) "overflow holds both" 2
    counts.(Array.length counts - 1);
  (* Cumulative rendering: the +Inf bucket equals the total count. *)
  let dump = M.to_prometheus m in
  Alcotest.(check bool) "+Inf bucket" true
    (is_infix ~affix:"le=\"+Inf\"} 2" dump)

let test_histogram_bucket_boundaries () =
  let m = M.create () in
  let h = M.histogram m ~lowest:1.0 ~growth:2.0 ~buckets:3 "b_ms" in
  (* Upper bounds 1, 2, 4 are inclusive (Prometheus [le] semantics):
     0.5 and 1.0 land in bucket 0, 2.0 in bucket 1, 3.0 and 4.0 in
     bucket 2, 9.0 overflows. *)
  List.iter (M.observe h) [ 0.5; 1.0; 2.0; 3.0; 4.0; 9.0 ];
  let counts = M.bucket_counts h in
  Alcotest.(check (list int)) "per-bucket" [ 2; 1; 2; 1 ]
    (Array.to_list counts)

let test_merge_into_histograms () =
  let src = M.create () in
  let dst = M.create () in
  let hist m = M.histogram m ~lowest:1.0 ~growth:2.0 ~buckets:3 "lat_ms" in
  let hs = hist src and hd = hist dst in
  List.iter (M.observe hs) [ 0.5; 2.0; 9.0 ];
  List.iter (M.observe hd) [ 1.0; 3.0 ];
  let cs = M.counter src "tuples_total" and cd = M.counter dst "tuples_total" in
  M.add cs 5.0;
  M.add cd 2.0;
  let g = M.gauge src "energy_j" in
  M.set g 1.5;
  (* A family only [src] has must appear in [dst] after the merge. *)
  let only = M.counter src "src_only_total" in
  M.incr only;
  M.merge_into ~src ~dst;
  Alcotest.(check int) "hist count summed" 5 (M.hist_count hd);
  Alcotest.(check (float 1e-9)) "hist sum summed" 15.5 (M.hist_sum hd);
  Alcotest.(check (list int)) "buckets summed element-wise" [ 2; 1; 1; 1 ]
    (Array.to_list (M.bucket_counts hd));
  Alcotest.(check (float 1e-9)) "counter added" 7.0 (M.counter_value cd);
  Alcotest.(check (float 1e-9)) "gauge accumulates" 1.5
    (M.gauge_value (M.gauge dst "energy_j"));
  Alcotest.(check (float 1e-9)) "src-only family registered" 1.0
    (M.counter_value (M.counter dst "src_only_total"));
  (* src untouched. *)
  Alcotest.(check int) "src hist unchanged" 3 (M.hist_count hs);
  Alcotest.(check (float 1e-9)) "src counter unchanged" 5.0
    (M.counter_value cs)

let test_merge_into_histograms_deterministic () =
  (* Same shard observations, two merge runs → bit-identical dst
     state, and shard order is the caller's submission order. *)
  let shard obs =
    let m = M.create () in
    let h = M.histogram m ~lowest:1.0 ~growth:2.0 ~buckets:3 "lat_ms" in
    List.iter (M.observe h) obs;
    m
  in
  let shards () = [ shard [ 0.5; 4.0 ]; shard [ 2.0 ]; shard [ 9.0; 9.0 ] ] in
  let run () =
    let dst = M.create () in
    List.iter (fun src -> M.merge_into ~src ~dst) (shards ());
    M.snapshot dst
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "snapshots identical" true (a = b);
  Alcotest.(check (option (float 1e-9))) "total count" (Some 5.0)
    (M.find a "lat_ms_count")

let test_merge_into_rejects_mismatch () =
  let src = M.create () in
  let dst = M.create () in
  ignore (M.histogram src ~lowest:1.0 ~growth:2.0 ~buckets:3 "lat_ms"
          : M.histogram);
  ignore (M.histogram dst ~lowest:1.0 ~growth:4.0 ~buckets:3 "lat_ms"
          : M.histogram);
  Alcotest.(check bool) "different bucket bounds rejected" true
    (match M.merge_into ~src ~dst with
    | exception Invalid_argument _ -> true
    | () -> false);
  let src = M.create () in
  ignore (M.counter src "lat_ms" : M.counter);
  Alcotest.(check bool) "kind clash rejected" true
    (match M.merge_into ~src ~dst with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_snapshot_diff () =
  let m = M.create () in
  let c = M.counter m "x_total" in
  M.incr c;
  let before = M.snapshot m in
  M.incr c;
  M.incr c;
  let after = M.snapshot m in
  let d = M.diff after before in
  Alcotest.(check (option (float 1e-9))) "delta" (Some 2.0)
    (M.find d "x_total");
  Alcotest.(check (option (float 1e-9))) "absolute" (Some 3.0)
    (M.find after "x_total")

(* ------------------------------------------------------------------ *)
(* Spans *)

let fake_clock () =
  let now = ref 0.0 in
  ((fun () -> !now), fun dt -> now := !now +. dt)

let test_span_nesting_and_ordering () =
  let clock, advance = fake_clock () in
  let tr = Tr.create ~clock () in
  Tr.span tr "outer" (fun () ->
      advance 0.001;
      Alcotest.(check int) "depth inside outer" 1 (Tr.depth tr);
      Tr.span tr "inner" (fun () ->
          advance 0.002;
          Alcotest.(check int) "depth inside inner" 2 (Tr.depth tr));
      advance 0.001);
  Alcotest.(check int) "depth restored" 0 (Tr.depth tr);
  match Tr.items tr with
  | [ Sp.Complete inner; Sp.Complete outer ] ->
      (* Chronological recording order: inner closes first. *)
      Alcotest.(check string) "inner name" "inner" inner.Sp.name;
      Alcotest.(check string) "outer name" "outer" outer.Sp.name;
      Alcotest.(check int) "inner depth" 1 inner.Sp.depth;
      Alcotest.(check int) "outer depth" 0 outer.Sp.depth;
      Alcotest.(check (float 1e-6)) "inner start" 1000.0 inner.Sp.start_us;
      Alcotest.(check (float 1e-6)) "inner dur" 2000.0 inner.Sp.dur_us;
      Alcotest.(check (float 1e-6)) "outer start" 0.0 outer.Sp.start_us;
      Alcotest.(check (float 1e-6)) "outer dur" 4000.0 outer.Sp.dur_us;
      (* Containment: the property Chrome uses to nest tid-0 spans. *)
      Alcotest.(check bool) "contained" true
        (outer.Sp.start_us <= inner.Sp.start_us
        && inner.Sp.start_us +. inner.Sp.dur_us
           <= outer.Sp.start_us +. outer.Sp.dur_us)
  | items ->
      Alcotest.failf "expected two complete spans, got %d items"
        (List.length items)

let test_span_records_on_exception () =
  let clock, advance = fake_clock () in
  let tr = Tr.create ~clock () in
  (try
     Tr.span tr "failing" (fun () ->
         advance 0.005;
         failwith "boom")
   with Failure _ -> ());
  match Tr.items tr with
  | [ Sp.Complete s ] ->
      Alcotest.(check string) "name" "failing" s.Sp.name;
      Alcotest.(check (float 1e-6)) "duration" 5000.0 s.Sp.dur_us;
      Alcotest.(check int) "depth restored" 0 (Tr.depth tr)
  | _ -> Alcotest.fail "span was not recorded on exception"

let test_tracer_chrome_export () =
  let clock, advance = fake_clock () in
  let tr = Tr.create ~clock () in
  Tr.span tr ~cat:"t" ~attrs:[ ("k", "v") ] "s" (fun () -> advance 0.001);
  Tr.event tr "ping";
  Tr.sample tr "energy" [ ("acq", 1.5) ];
  match J.parse (Tr.to_chrome tr) with
  | Error e -> Alcotest.failf "chrome export does not parse: %s" e
  | Ok (J.Arr events) ->
      Alcotest.(check int) "three events" 3 (List.length events);
      let phases =
        List.map
          (fun ev ->
            match J.member "ph" ev with Some (J.Str p) -> p | _ -> "?")
          events
      in
      Alcotest.(check (list string)) "phases" [ "X"; "i"; "C" ] phases
  | Ok _ -> Alcotest.fail "chrome export is not a JSON array"

(* ------------------------------------------------------------------ *)
(* JSON *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("s", J.Str "a\"b\\c\nd");
        ("n", J.Num 1.5);
        ("i", J.Num 42.0);
        ("b", J.Bool true);
        ("z", J.Null);
        ("a", J.Arr [ J.Num 1.0; J.Str "x" ]);
      ]
  in
  match J.parse (J.to_string v) with
  | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match J.parse s with
      | Ok _ -> Alcotest.failf "accepted garbage: %s" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "nul"; "\"unterminated"; "[1] trailing" ]

let test_json_unicode_escape () =
  match J.parse {|"é\t"|} with
  | Ok (J.Str s) -> Alcotest.(check string) "utf8" "\xc3\xa9\t" s
  | Ok _ -> Alcotest.fail "not a string"
  | Error e -> Alcotest.failf "parse failed: %s" e

(* ------------------------------------------------------------------ *)
(* Telemetry handle + Search trace laziness *)

let test_noop_is_disabled () =
  Alcotest.(check bool) "noop disabled" false (T.enabled T.noop);
  Alcotest.(check bool) "empty create is noop" false
    (T.enabled (T.create ()));
  (* All operations are safe no-ops. *)
  T.incr T.noop "x_total";
  T.observe T.noop "y_ms" 1.0;
  Alcotest.(check int) "span runs thunk" 3 (T.span T.noop "s" (fun () -> 3))

let test_search_trace_lazy () =
  (* Without live telemetry the thunk must not even be forced. *)
  let forced = ref false in
  let plain = Acq_core.Search.create () in
  Acq_core.Search.trace plain (fun () ->
      forced := true;
      "never");
  Alcotest.(check bool) "lazy when disabled" false !forced

(* ------------------------------------------------------------------ *)
(* Golden: a small Runtime.run under full telemetry *)

let small_runtime obs =
  let ds = Acq_data.Lab_gen.generate (Acq_util.Rng.create 77) ~rows:1_200 in
  let history, live = Acq_data.Dataset.split_by_time ds ~train_fraction:0.5 in
  let q = Acq_workload.Query_gen.lab_query (Acq_util.Rng.create 7) ~train:history in
  Acq_sensor.Runtime.run ~telemetry:obs ~algorithm:Acq_core.Planner.Heuristic
    ~history ~live q

let stable_snapshot m =
  (* Drop wall-clock-dependent series; everything else must be
     deterministic. *)
  List.filter
    (fun (k, _) ->
      not
        (is_infix ~affix:"_ms_" k
        || is_infix ~affix:"_ms{" k
        || String.ends_with ~suffix:"_ms" k))
    (M.snapshot m)

let test_runtime_golden () =
  let run () =
    let m = M.create () in
    let tr = Tr.create ~clock:(fun () -> 0.0) () in
    let report = small_runtime (T.create ~metrics:m ~tracer:tr ()) in
    (m, tr, report)
  in
  let m1, tr1, report = run () in
  (* The Chrome export parses and is a non-empty event array. *)
  (match J.parse (Tr.to_chrome tr1) with
  | Error e -> Alcotest.failf "trace does not parse: %s" e
  | Ok (J.Arr events) ->
      Alcotest.(check bool) "events recorded" true (List.length events > 0);
      List.iter
        (fun ev ->
          match (J.member "name" ev, J.member "ph" ev) with
          | Some (J.Str _), Some (J.Str _) -> ()
          | _ -> Alcotest.fail "event missing name/ph")
        events
  | Ok _ -> Alcotest.fail "trace is not an array");
  (* The report carries the registry snapshot. *)
  Alcotest.(check bool) "report metrics attached" true
    (report.Acq_sensor.Runtime.metrics <> []);
  Alcotest.(check (option (float 1e-9)))
    "epochs counted" (Some (float_of_int report.Acq_sensor.Runtime.epochs))
    (M.find report.Acq_sensor.Runtime.metrics "acqp_runtime_epochs_total");
  (* With timestamps zeroed, two identical runs dump identically. *)
  let m2, _, _ = run () in
  Alcotest.(check bool) "stable metrics dump" true
    (stable_snapshot m1 = stable_snapshot m2);
  Alcotest.(check bool) "stable dump is non-trivial" true
    (List.length (stable_snapshot m1) > 10)

(* The Prometheus dump of a small fixed run, [_ms] series excluded,
   pinned as literals: series order follows registration order, so
   resolving an instrument earlier or later than its first use shows
   here, as does any change of value. The query first matches after
   the first epoch, so the matches counter registers after the
   per-mote ones. *)
let pinned_runtime_dump =
  [
    "# TYPE acqp_runtime_matches_total counter";
    "acqp_runtime_matches_total 107";
    "# TYPE acqp_mote_tx_bytes_total counter";
    "acqp_mote_tx_bytes_total{mote=\"0\"} 24";
    "acqp_mote_tx_bytes_total{mote=\"1\"} 60";
    "acqp_mote_tx_bytes_total{mote=\"2\"} 54";
    "acqp_mote_tx_bytes_total{mote=\"3\"} 66";
    "acqp_mote_tx_bytes_total{mote=\"4\"} 54";
    "acqp_mote_tx_bytes_total{mote=\"5\"} 54";
    "acqp_mote_tx_bytes_total{mote=\"6\"} 54";
    "acqp_mote_tx_bytes_total{mote=\"7\"} 30";
    "acqp_mote_tx_bytes_total{mote=\"8\"} 90";
    "acqp_mote_tx_bytes_total{mote=\"9\"} 60";
    "acqp_mote_tx_bytes_total{mote=\"10\"} 36";
    "acqp_mote_tx_bytes_total{mote=\"11\"} 60";
    "# TYPE acqp_mote_radio_energy_total counter";
    "acqp_mote_radio_energy_total{mote=\"0\"} 5.6";
    "acqp_mote_radio_energy_total{mote=\"1\"} 28";
    "acqp_mote_radio_energy_total{mote=\"2\"} 25.2";
    "acqp_mote_radio_energy_total{mote=\"3\"} 46.2";
    "acqp_mote_radio_energy_total{mote=\"4\"} 37.8";
    "acqp_mote_radio_energy_total{mote=\"5\"} 37.8";
    "acqp_mote_radio_energy_total{mote=\"6\"} 37.8";
    "acqp_mote_radio_energy_total{mote=\"7\"} 28";
    "acqp_mote_radio_energy_total{mote=\"8\"} 84";
    "acqp_mote_radio_energy_total{mote=\"9\"} 56";
    "acqp_mote_radio_energy_total{mote=\"10\"} 33.6";
    "acqp_mote_radio_energy_total{mote=\"11\"} 56";
    "# TYPE acqp_mote_acquisition_energy_total counter";
    "acqp_mote_acquisition_energy_total{mote=\"0\"} 6250";
    "acqp_mote_acquisition_energy_total{mote=\"1\"} 6850";
    "acqp_mote_acquisition_energy_total{mote=\"2\"} 6050";
    "acqp_mote_acquisition_energy_total{mote=\"3\"} 6350";
    "acqp_mote_acquisition_energy_total{mote=\"4\"} 6050";
    "acqp_mote_acquisition_energy_total{mote=\"5\"} 6450";
    "acqp_mote_acquisition_energy_total{mote=\"6\"} 6550";
    "acqp_mote_acquisition_energy_total{mote=\"7\"} 6250";
    "acqp_mote_acquisition_energy_total{mote=\"8\"} 6950";
    "acqp_mote_acquisition_energy_total{mote=\"9\"} 6650";
    "acqp_mote_acquisition_energy_total{mote=\"10\"} 6350";
    "acqp_mote_acquisition_energy_total{mote=\"11\"} 6450";
    "# TYPE acqp_runtime_epochs_total counter";
    "acqp_runtime_epochs_total 600";
    "# HELP acqp_executor_acquisitions_total sensor acquisitions the executor paid for";
    "# TYPE acqp_executor_acquisitions_total counter";
    "acqp_executor_acquisitions_total{attr=\"nodeid\"} 0";
    "acqp_executor_acquisitions_total{attr=\"hour\"} 0";
    "acqp_executor_acquisitions_total{attr=\"voltage\"} 600";
    "acqp_executor_acquisitions_total{attr=\"light\"} 0";
    "acqp_executor_acquisitions_total{attr=\"temp\"} 600";
    "acqp_executor_acquisitions_total{attr=\"humidity\"} 166";
    "# HELP acqp_executor_traversal_depth plan tests traversed per tuple";
    "# TYPE acqp_executor_traversal_depth histogram";
    "acqp_executor_traversal_depth_bucket{le=\"1\"} 600";
    "acqp_executor_traversal_depth_bucket{le=\"2\"} 600";
    "acqp_executor_traversal_depth_bucket{le=\"4\"} 600";
    "acqp_executor_traversal_depth_bucket{le=\"8\"} 600";
    "acqp_executor_traversal_depth_bucket{le=\"16\"} 600";
    "acqp_executor_traversal_depth_bucket{le=\"32\"} 600";
    "acqp_executor_traversal_depth_bucket{le=\"64\"} 600";
    "acqp_executor_traversal_depth_bucket{le=\"128\"} 600";
    "acqp_executor_traversal_depth_bucket{le=\"+Inf\"} 600";
    "acqp_executor_traversal_depth_sum 600";
    "acqp_executor_traversal_depth_count 600";
    "# HELP acqp_executor_tuples_total tuples executed";
    "# TYPE acqp_executor_tuples_total counter";
    "acqp_executor_tuples_total 600";
    "# HELP acqp_executor_matches_total tuples satisfying the WHERE clause";
    "# TYPE acqp_executor_matches_total counter";
    "acqp_executor_matches_total 107";
    "# TYPE acqp_runtime_plan_bytes gauge";
    "acqp_runtime_plan_bytes 20";
    "# TYPE acqp_planner_plan_bytes_total counter";
    "acqp_planner_plan_bytes_total{algorithm=\"Heuristic\"} 20";
    "# TYPE acqp_planner_pruned_total counter";
    "acqp_planner_pruned_total{algorithm=\"Heuristic\"} 0";
    "# TYPE acqp_planner_estimator_calls_total counter";
    "acqp_planner_estimator_calls_total{algorithm=\"Heuristic\"} 841";
    "# TYPE acqp_planner_memo_hits_total counter";
    "acqp_planner_memo_hits_total{algorithm=\"Heuristic\"} 0";
    "# TYPE acqp_planner_nodes_solved_total counter";
    "acqp_planner_nodes_solved_total{algorithm=\"Heuristic\"} 1085";
    "# TYPE acqp_planner_plans_total counter";
    "acqp_planner_plans_total{algorithm=\"Heuristic\"} 1";
  ]

let test_runtime_dump_pinned () =
  let ds = Acq_data.Lab_gen.generate (Acq_util.Rng.create 77) ~rows:1_200 in
  let history, live = Acq_data.Dataset.split_by_time ds ~train_fraction:0.5 in
  let module L = Acq_data.Lab_gen in
  let module Pr = Acq_plan.Predicate in
  let q =
    Acq_plan.Query.create (Acq_data.Dataset.schema history)
      [
        Pr.inside ~attr:L.idx_temp ~lo:5 ~hi:6;
        Pr.inside ~attr:L.idx_humidity ~lo:12 ~hi:19;
      ]
  in
  let m = M.create () in
  ignore
    (Acq_sensor.Runtime.run ~telemetry:(T.create ~metrics:m ())
       ~algorithm:Acq_core.Planner.Heuristic ~history ~live q
      : Acq_sensor.Runtime.report);
  let dump =
    String.split_on_char '\n' (M.to_prometheus m)
    |> List.filter (fun l -> l <> "" && not (is_infix ~affix:"_ms" l))
  in
  Alcotest.(check (list string)) "dump" pinned_runtime_dump dump

(* An Exhaustive plan under a live registry: a two-predicate
   conjunction over the daemon's synthetic history. The DP's tier
   counters and its per-subproblem histogram count the subproblems the
   DP solved: the plan's nodes_solved less the sequential seeding's
   (which the CorrSeq arm reports for the same query). The dump is
   pinned with every [_ms] value masked, so the family and series
   order -- registration order -- shows if an instrument is resolved
   earlier or later than its first use. *)
let pinned_exhaustive_dump =
  [
    "# TYPE acqp_planner_plan_ms histogram";
    "acqp_planner_plan_ms_bucket{algorithm=\"Exhaustive\",le=\"0.001\"} _";
    "acqp_planner_plan_ms_bucket{algorithm=\"Exhaustive\",le=\"0.004\"} _";
    "acqp_planner_plan_ms_bucket{algorithm=\"Exhaustive\",le=\"0.016\"} _";
    "acqp_planner_plan_ms_bucket{algorithm=\"Exhaustive\",le=\"0.064\"} _";
    "acqp_planner_plan_ms_bucket{algorithm=\"Exhaustive\",le=\"0.256\"} _";
    "acqp_planner_plan_ms_bucket{algorithm=\"Exhaustive\",le=\"1.024\"} _";
    "acqp_planner_plan_ms_bucket{algorithm=\"Exhaustive\",le=\"4.096\"} _";
    "acqp_planner_plan_ms_bucket{algorithm=\"Exhaustive\",le=\"16.384\"} _";
    "acqp_planner_plan_ms_bucket{algorithm=\"Exhaustive\",le=\"65.536\"} _";
    "acqp_planner_plan_ms_bucket{algorithm=\"Exhaustive\",le=\"262.144\"} _";
    "acqp_planner_plan_ms_bucket{algorithm=\"Exhaustive\",le=\"1048.58\"} _";
    "acqp_planner_plan_ms_bucket{algorithm=\"Exhaustive\",le=\"4194.3\"} _";
    "acqp_planner_plan_ms_bucket{algorithm=\"Exhaustive\",le=\"16777.2\"} _";
    "acqp_planner_plan_ms_bucket{algorithm=\"Exhaustive\",le=\"67108.9\"} _";
    "acqp_planner_plan_ms_bucket{algorithm=\"Exhaustive\",le=\"268435\"} _";
    "acqp_planner_plan_ms_bucket{algorithm=\"Exhaustive\",le=\"1.07374e+06\"} _";
    "acqp_planner_plan_ms_bucket{algorithm=\"Exhaustive\",le=\"4.29497e+06\"} _";
    "acqp_planner_plan_ms_bucket{algorithm=\"Exhaustive\",le=\"1.71799e+07\"} _";
    "acqp_planner_plan_ms_bucket{algorithm=\"Exhaustive\",le=\"6.87195e+07\"} _";
    "acqp_planner_plan_ms_bucket{algorithm=\"Exhaustive\",le=\"2.74878e+08\"} _";
    "acqp_planner_plan_ms_bucket{algorithm=\"Exhaustive\",le=\"+Inf\"} _";
    "acqp_planner_plan_ms_sum{algorithm=\"Exhaustive\"} _";
    "acqp_planner_plan_ms_count{algorithm=\"Exhaustive\"} _";
    "# TYPE acqp_planner_plan_bytes_total counter";
    "acqp_planner_plan_bytes_total{algorithm=\"Exhaustive\"} 26";
    "# TYPE acqp_planner_pruned_total counter";
    "acqp_planner_pruned_total{algorithm=\"Exhaustive\"} 42946";
    "# TYPE acqp_planner_estimator_calls_total counter";
    "acqp_planner_estimator_calls_total{algorithm=\"Exhaustive\"} 42720";
    "# TYPE acqp_planner_memo_hits_total counter";
    "acqp_planner_memo_hits_total{algorithm=\"Exhaustive\"} 21551";
    "# TYPE acqp_planner_nodes_solved_total counter";
    "acqp_planner_nodes_solved_total{algorithm=\"Exhaustive\"} 13818";
    "# TYPE acqp_planner_plans_total counter";
    "acqp_planner_plans_total{algorithm=\"Exhaustive\"} 1";
    "# TYPE acqp_planner_subproblem_ms histogram";
    "acqp_planner_subproblem_ms_bucket{le=\"0.001\"} _";
    "acqp_planner_subproblem_ms_bucket{le=\"0.004\"} _";
    "acqp_planner_subproblem_ms_bucket{le=\"0.016\"} _";
    "acqp_planner_subproblem_ms_bucket{le=\"0.064\"} _";
    "acqp_planner_subproblem_ms_bucket{le=\"0.256\"} _";
    "acqp_planner_subproblem_ms_bucket{le=\"1.024\"} _";
    "acqp_planner_subproblem_ms_bucket{le=\"4.096\"} _";
    "acqp_planner_subproblem_ms_bucket{le=\"16.384\"} _";
    "acqp_planner_subproblem_ms_bucket{le=\"65.536\"} _";
    "acqp_planner_subproblem_ms_bucket{le=\"262.144\"} _";
    "acqp_planner_subproblem_ms_bucket{le=\"1048.58\"} _";
    "acqp_planner_subproblem_ms_bucket{le=\"4194.3\"} _";
    "acqp_planner_subproblem_ms_bucket{le=\"16777.2\"} _";
    "acqp_planner_subproblem_ms_bucket{le=\"67108.9\"} _";
    "acqp_planner_subproblem_ms_bucket{le=\"268435\"} _";
    "acqp_planner_subproblem_ms_bucket{le=\"1.07374e+06\"} _";
    "acqp_planner_subproblem_ms_bucket{le=\"4.29497e+06\"} _";
    "acqp_planner_subproblem_ms_bucket{le=\"1.71799e+07\"} _";
    "acqp_planner_subproblem_ms_bucket{le=\"6.87195e+07\"} _";
    "acqp_planner_subproblem_ms_bucket{le=\"2.74878e+08\"} _";
    "acqp_planner_subproblem_ms_bucket{le=\"+Inf\"} _";
    "acqp_planner_subproblem_ms_sum _";
    "acqp_planner_subproblem_ms_count _";
    "# TYPE acqp_planner_subproblems_total counter";
    "acqp_planner_subproblems_total{tier=\"8\"} 829";
    "acqp_planner_subproblems_total{tier=\"7\"} 2418";
    "acqp_planner_subproblems_total{tier=\"6\"} 3955";
    "acqp_planner_subproblems_total{tier=\"5\"} 3651";
    "acqp_planner_subproblems_total{tier=\"4\"} 2034";
    "acqp_planner_subproblems_total{tier=\"3\"} 660";
    "acqp_planner_subproblems_total{tier=\"9\"} 127";
    "acqp_planner_subproblems_total{tier=\"2\"} 125";
    "acqp_planner_subproblems_total{tier=\"1\"} 15";
    "acqp_planner_subproblems_total{tier=\"0\"} 1";
  ]

let test_exhaustive_dp_instruments () =
  let history, _ =
    Acq_serve.Source.history_live
      {
        Acq_serve.Source.kind = Acq_serve.Source.Synthetic;
        rows = 4_000;
        seed = 42;
      }
  in
  let schema = Acq_data.Dataset.schema history in
  let x = Array.of_list (Acq_data.Schema.expensive_indices schema) in
  let module Pr = Acq_plan.Predicate in
  let q =
    Acq_plan.Query.create schema
      [ Pr.inside ~attr:x.(0) ~lo:1 ~hi:1; Pr.inside ~attr:x.(3) ~lo:0 ~hi:0 ]
  in
  let module P = Acq_core.Planner in
  let m = M.create () in
  let r = P.plan ~telemetry:(T.create ~metrics:m ()) P.Exhaustive q ~train:history in
  let seeding = P.plan P.Corr_seq q ~train:history in
  let dp_nodes =
    r.P.stats.Acq_core.Search.nodes_solved
    - seeding.P.stats.Acq_core.Search.nodes_solved
  in
  let snap = M.snapshot m in
  let tiers =
    List.fold_left
      (fun acc (k, v) ->
        if String.starts_with ~prefix:"acqp_planner_subproblems_total{" k then
          acc +. v
        else acc)
      0.0 snap
  in
  Alcotest.(check int) "tier counters sum to the DP's nodes" dp_nodes
    (int_of_float tiers);
  Alcotest.(check (option (float 0.0)))
    "subproblem histogram counts the DP's nodes"
    (Some (float_of_int dp_nodes))
    (M.find snap "acqp_planner_subproblem_ms_count");
  let mask l =
    if is_infix ~affix:"_ms" l && not (String.starts_with ~prefix:"#" l) then
      String.sub l 0 (String.rindex l ' ') ^ " _"
    else l
  in
  let dump =
    String.split_on_char '\n' (M.to_prometheus m)
    |> List.filter (fun l -> l <> "")
    |> List.map mask
  in
  Alcotest.(check (list string)) "dump" pinned_exhaustive_dump dump

let test_runtime_noop_unchanged () =
  (* The uninstrumented path returns the same verdicts and energy. *)
  let r0 = small_runtime T.noop in
  let m = M.create () in
  let r1 = small_runtime (T.create ~metrics:m ()) in
  Alcotest.(check int) "matches" r0.Acq_sensor.Runtime.matches
    r1.Acq_sensor.Runtime.matches;
  Alcotest.(check (float 1e-6)) "energy" r0.Acq_sensor.Runtime.total_energy
    r1.Acq_sensor.Runtime.total_energy;
  Alcotest.(check int) "plan bytes"
    (Acq_sensor.Runtime.plan_bytes r0)
    (Acq_sensor.Runtime.plan_bytes r1);
  Alcotest.(check bool) "noop report has no metrics" true
    (r0.Acq_sensor.Runtime.metrics = [])

let () =
  Alcotest.run "acq_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "label sets" `Quick test_labels_distinct;
          Alcotest.test_case "histogram: zero observations" `Quick
            test_histogram_zero_observations;
          Alcotest.test_case "histogram: one bucket" `Quick
            test_histogram_one_bucket;
          Alcotest.test_case "histogram: overflow bucket" `Quick
            test_histogram_overflow_bucket;
          Alcotest.test_case "histogram: bucket boundaries" `Quick
            test_histogram_bucket_boundaries;
          Alcotest.test_case "snapshot diff" `Quick test_snapshot_diff;
          Alcotest.test_case "merge_into: histograms" `Quick
            test_merge_into_histograms;
          Alcotest.test_case "merge_into: deterministic shard fold" `Quick
            test_merge_into_histograms_deterministic;
          Alcotest.test_case "merge_into: rejects mismatches" `Quick
            test_merge_into_rejects_mismatch;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and ordering" `Quick
            test_span_nesting_and_ordering;
          Alcotest.test_case "recorded on exception" `Quick
            test_span_records_on_exception;
          Alcotest.test_case "chrome export" `Quick test_tracer_chrome_export;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escape;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "noop is disabled" `Quick test_noop_is_disabled;
          Alcotest.test_case "search trace lazy" `Quick test_search_trace_lazy;
        ] );
      ( "golden",
        [
          Alcotest.test_case "runtime trace + metrics" `Quick
            test_runtime_golden;
          Alcotest.test_case "runtime dump pinned" `Quick
            test_runtime_dump_pinned;
          Alcotest.test_case "noop leaves results unchanged" `Quick
            test_runtime_noop_unchanged;
          Alcotest.test_case "exhaustive DP instruments" `Quick
            test_exhaustive_dp_instruments;
        ] );
    ]
