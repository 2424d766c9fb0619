(* Unit tests for Acq_sensor: energy metering, the radio model, trace
   replay, motes, the network, and the end-to-end runtime loop. *)

module Rng = Acq_util.Rng
module DS = Acq_data.Dataset
module S = Acq_data.Schema
module A = Acq_data.Attribute
module Pred = Acq_plan.Predicate
module Q = Acq_plan.Query
module Plan = Acq_plan.Plan
module En = Acq_sensor.Energy
module Radio = Acq_sensor.Radio
module Env = Acq_sensor.Environment
module Mote = Acq_sensor.Mote
module Net = Acq_sensor.Network
module RT = Acq_sensor.Runtime

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Energy *)

let test_energy_accounting () =
  let e = En.create () in
  En.add_acquisition e 100.0;
  En.charge_tx e ~bytes:10 ~per_byte:0.5;
  En.charge_rx e ~bytes:4 ~per_byte:0.5;
  check_float "acquisition" 100.0 e.En.acquisition;
  check_float "tx" 5.0 e.En.radio_tx;
  check_float "rx" 2.0 e.En.radio_rx;
  check_float "total" 107.0 (En.total e);
  let e2 = En.merge e e in
  check_float "merge doubles" 214.0 (En.total e2);
  En.reset e;
  check_float "reset" 0.0 (En.total e)

(* ------------------------------------------------------------------ *)
(* Radio *)

let test_radio_costs () =
  let r = { Radio.per_byte = 0.1; header_bytes = 8 } in
  (* 12-byte payload + 8 header = 20 bytes; 2 hops; tx+rx each hop. *)
  check_float "message cost" (2.0 *. 40.0 *. 0.1)
    (Radio.message_cost r ~payload_bytes:12 ~hops:2);
  Alcotest.(check int) "result bytes" 6 (Radio.result_bytes r ~n_attrs:3);
  check_float "zero hops clamps to 1"
    (Radio.message_cost r ~payload_bytes:12 ~hops:1)
    (Radio.message_cost r ~payload_bytes:12 ~hops:0)

(* ------------------------------------------------------------------ *)
(* Environment *)

let lab_like_schema () =
  S.create
    [
      A.discrete ~name:"nodeid" ~cost:1.0 ~domain:3;
      A.discrete ~name:"temp" ~cost:100.0 ~domain:4;
    ]

let test_env_with_nodeid () =
  let schema = lab_like_schema () in
  let ds =
    DS.create schema [| [| 0; 1 |]; [| 2; 3 |]; [| 1; 0 |] |]
  in
  let env = Env.replay ds in
  Alcotest.(check int) "epochs" 3 (Env.n_epochs env);
  Alcotest.(check int) "mote from nodeid" 2 (Env.mote_of_epoch env 1);
  let c = Env.cursor env in
  Env.seek c 1;
  Alcotest.(check int) "value" 3 (Env.read c 1);
  Env.seek c 2;
  let row = Array.make 2 (-1) in
  Env.blit_row c row;
  Alcotest.(check (array int)) "tuple" [| 1; 0 |] row;
  let q = Q.create schema [ Pred.inside ~attr:1 ~lo:0 ~hi:0 ] in
  Alcotest.(check bool) "satisfies at the cursor" true (Env.satisfies c q);
  Env.seek c 1;
  Alcotest.(check bool) "fails elsewhere" false (Env.satisfies c q)

let test_env_without_nodeid () =
  let schema =
    S.create [ A.discrete ~name:"temp0" ~cost:100.0 ~domain:4 ]
  in
  let ds = DS.create schema [| [| 1 |]; [| 2 |] |] in
  let env = Env.replay ds in
  Alcotest.(check int) "wide schema uses mote 0" 0 (Env.mote_of_epoch env 1)

(* ------------------------------------------------------------------ *)
(* Mote *)

let mote_fixture () =
  let schema = lab_like_schema () in
  let q = Q.create schema [ Pred.inside ~attr:1 ~lo:2 ~hi:3 ] in
  let costs = S.costs schema in
  let radio = { Radio.per_byte = 0.1; header_bytes = 8 } in
  let m = Mote.create ~id:0 ~hops:2 ~radio () in
  (q, costs, m)

let test_mote_requires_plan () =
  let q, costs, m = mote_fixture () in
  (try
     ignore (Mote.run_epoch m q ~costs ~lookup:(fun _ -> 0));
     Alcotest.fail "expected failure without plan"
   with Failure _ -> ())

let test_mote_meters_acquisition () =
  let q, costs, m = mote_fixture () in
  Mote.install_plan m (Plan.sequential [ 0 ]) ~bytes:10;
  let rx_after_install = (Mote.energy m).En.radio_rx in
  Alcotest.(check bool) "dissemination charged" true (rx_after_install > 0.0);
  let verdict = Mote.run_epoch m q ~costs ~lookup:(fun _ -> 1) in
  Alcotest.(check bool) "rejected tuple" false verdict;
  check_float "temp acquired" 100.0 (Mote.last_cost m);
  Alcotest.(check int) "one attribute acquired" 1 (Mote.last_acquired m);
  check_float "meter matches" 100.0 (Mote.energy m).En.acquisition;
  check_float "no result tx for rejected" 0.0 (Mote.energy m).En.radio_tx

let test_mote_transmits_matches () =
  let q, costs, m = mote_fixture () in
  Mote.install_plan m (Plan.sequential [ 0 ]) ~bytes:10;
  let verdict = Mote.run_epoch m q ~costs ~lookup:(fun _ -> 2) in
  Alcotest.(check bool) "matched" true verdict;
  Alcotest.(check bool) "result transmitted" true
    ((Mote.energy m).En.radio_tx > 0.0)

(* ------------------------------------------------------------------ *)
(* Network *)

let test_network_topology () =
  let net = Net.create ~n_motes:7 () in
  Alcotest.(check int) "size" 7 (Net.n_motes net);
  Alcotest.(check int) "mote 0 close" 1 (Mote.hops (Net.mote net 0));
  Alcotest.(check bool) "deeper motes further" true
    (Mote.hops (Net.mote net 6) > Mote.hops (Net.mote net 0))

let test_network_dissemination () =
  let net = Net.create ~n_motes:3 () in
  let plan = Plan.sequential [ 0; 1 ] in
  let bytes = Net.disseminate net plan in
  Alcotest.(check int) "returns zeta" (Acq_plan.Serialize.size plan) bytes;
  for i = 0 to 2 do
    Alcotest.(check bool)
      (Printf.sprintf "mote %d has plan" i)
      true
      (Mote.plan (Net.mote net i) <> None)
  done;
  let e = Net.total_energy net in
  Alcotest.(check bool) "rx charged" true (e.En.radio_rx > 0.0);
  Net.reset_energy net;
  check_float "reset clears" 0.0 (En.total (Net.total_energy net))

(* ------------------------------------------------------------------ *)
(* Runtime *)

let runtime_fixture () =
  let rng = Rng.create 30 in
  let ds = Acq_data.Lab_gen.generate rng ~rows:4_000 in
  let history, live = DS.split_by_time ds ~train_fraction:0.5 in
  let schema = DS.schema ds in
  let q =
    Q.create schema
      [
        Acq_plan.Predicate.inside ~attr:Acq_data.Lab_gen.idx_light ~lo:12 ~hi:31;
        Acq_plan.Predicate.inside ~attr:Acq_data.Lab_gen.idx_temp ~lo:0 ~hi:11;
      ]
  in
  (history, live, q)

let test_runtime_end_to_end () =
  let history, live, q = runtime_fixture () in
  let r =
    RT.run ~algorithm:Acq_core.Planner.Heuristic ~history ~live q
  in
  Alcotest.(check bool) "verdicts correct" true r.RT.correct;
  Alcotest.(check int) "all epochs replayed" (DS.nrows live) r.RT.epochs;
  Alcotest.(check bool) "plan nonempty" true ((RT.plan_bytes r) > 0);
  Alcotest.(check bool) "energy positive" true (r.RT.total_energy > 0.0);
  check_float "total = acquisition + radio" r.RT.total_energy
    (r.RT.acquisition_energy +. r.RT.radio_energy)

let test_runtime_cost_matches_executor () =
  let history, live, q = runtime_fixture () in
  let r = RT.run ~algorithm:Acq_core.Planner.Corr_seq ~history ~live q in
  let costs = S.costs (Q.schema q) in
  let expected = Acq_plan.Executor.average_cost q ~costs r.RT.plan live in
  Alcotest.(check (float 1e-6)) "per-epoch acquisition = executor average"
    expected r.RT.avg_cost_per_epoch

let test_runtime_conditional_cheaper () =
  let history, live, q = runtime_fixture () in
  let naive = RT.run ~algorithm:Acq_core.Planner.Naive ~history ~live q in
  let cond =
    RT.run ~algorithm:Acq_core.Planner.Heuristic ~history ~live q
  in
  Alcotest.(check bool) "conditional saves energy" true
    (cond.RT.acquisition_energy <= naive.RT.acquisition_energy +. 1e-6)

let test_runtime_match_count () =
  let history, live, q = runtime_fixture () in
  let r = RT.run ~algorithm:Acq_core.Planner.Naive ~history ~live q in
  let truth = ref 0 in
  DS.iter_rows live (fun row ->
      if Q.eval q (DS.row live row) then incr truth);
  Alcotest.(check int) "matches equal ground truth" !truth r.RT.matches

(* Two runs in a row under one live registry: each report, then every
   series of the dump but the timers, value bits in hex. The epoch loop
   writes its counters to locals folded once per run, so the second
   run's fractional series (radio and acquisition energy per mote)
   only keep these bits if the fold adds each epoch's delta to the
   value the first run left, in epoch order. Recorded with per-epoch
   counter writes. *)
let pinned_two_runs =
  [
    "600 107 0x1.2d9p+16 0x1.ecccccccccccep+8 0x1.2f7cccccccccdp+16 0x1.0155555555555p+7 true";
    "600 466 0x1.a068p+16 0x1.aeccccccccccep+10 0x1.a723333333333p+16 0x1.6355555555555p+7 true";
    "acqp_runtime_matches_total 0x1.1e8p+9";
    "acqp_mote_tx_bytes_total{mote=\"0\"} 0x1.78p+7";
    "acqp_mote_tx_bytes_total{mote=\"1\"} 0x1.98p+7";
    "acqp_mote_tx_bytes_total{mote=\"2\"} 0x1.b4p+7";
    "acqp_mote_tx_bytes_total{mote=\"3\"} 0x1.bcp+7";
    "acqp_mote_tx_bytes_total{mote=\"4\"} 0x1.a4p+7";
    "acqp_mote_tx_bytes_total{mote=\"5\"} 0x1.9cp+7";
    "acqp_mote_tx_bytes_total{mote=\"6\"} 0x1.b4p+7";
    "acqp_mote_tx_bytes_total{mote=\"7\"} 0x1.5cp+7";
    "acqp_mote_tx_bytes_total{mote=\"8\"} 0x1.f4p+7";
    "acqp_mote_tx_bytes_total{mote=\"9\"} 0x1.cp+7";
    "acqp_mote_tx_bytes_total{mote=\"10\"} 0x1.88p+7";
    "acqp_mote_tx_bytes_total{mote=\"11\"} 0x1.88p+7";
    "acqp_mote_radio_energy_total{mote=\"0\"} 0x1.b66666666666cp+5";
    "acqp_mote_radio_energy_total{mote=\"1\"} 0x1.c9999999999ap+6";
    "acqp_mote_radio_energy_total{mote=\"2\"} 0x1.ee6666666666ep+6";
    "acqp_mote_radio_energy_total{mote=\"3\"} 0x1.753333333332dp+7";
    "acqp_mote_radio_energy_total{mote=\"4\"} 0x1.6466666666661p+7";
    "acqp_mote_radio_energy_total{mote=\"5\"} 0x1.5d3333333332ep+7";
    "acqp_mote_radio_energy_total{mote=\"6\"} 0x1.72cccccccccc7p+7";
    "acqp_mote_radio_energy_total{mote=\"7\"} 0x1.919999999999ep+7";
    "acqp_mote_radio_energy_total{mote=\"8\"} 0x1.1400000000005p+8";
    "acqp_mote_radio_energy_total{mote=\"9\"} 0x1.f9999999999a2p+7";
    "acqp_mote_radio_energy_total{mote=\"10\"} 0x1.c33333333333ap+7";
    "acqp_mote_radio_energy_total{mote=\"11\"} 0x1.b66666666666cp+7";
    "acqp_mote_acquisition_energy_total{mote=\"0\"} 0x1.dfbp+13";
    "acqp_mote_acquisition_energy_total{mote=\"1\"} 0x1.e2dp+13";
    "acqp_mote_acquisition_energy_total{mote=\"2\"} 0x1.d97p+13";
    "acqp_mote_acquisition_energy_total{mote=\"3\"} 0x1.dc9p+13";
    "acqp_mote_acquisition_energy_total{mote=\"4\"} 0x1.d33p+13";
    "acqp_mote_acquisition_energy_total{mote=\"5\"} 0x1.dc9p+13";
    "acqp_mote_acquisition_energy_total{mote=\"6\"} 0x1.e91p+13";
    "acqp_mote_acquisition_energy_total{mote=\"7\"} 0x1.d01p+13";
    "acqp_mote_acquisition_energy_total{mote=\"8\"} 0x1.f27p+13";
    "acqp_mote_acquisition_energy_total{mote=\"9\"} 0x1.ec3p+13";
    "acqp_mote_acquisition_energy_total{mote=\"10\"} 0x1.dfbp+13";
    "acqp_mote_acquisition_energy_total{mote=\"11\"} 0x1.d01p+13";
    "acqp_runtime_epochs_total 0x1.2cp+10";
    "acqp_executor_acquisitions_total{attr=\"nodeid\"} 0x0p+0";
    "acqp_executor_acquisitions_total{attr=\"hour\"} 0x0p+0";
    "acqp_executor_acquisitions_total{attr=\"voltage\"} 0x1.2cp+9";
    "acqp_executor_acquisitions_total{attr=\"light\"} 0x0p+0";
    "acqp_executor_acquisitions_total{attr=\"temp\"} 0x1.2cp+10";
    "acqp_executor_acquisitions_total{attr=\"humidity\"} 0x1.3cp+9";
    "acqp_executor_traversal_depth_count 0x1.2cp+10";
    "acqp_executor_traversal_depth_sum 0x1.2cp+9";
    "acqp_executor_tuples_total 0x1.2cp+10";
    "acqp_executor_matches_total 0x1.1e8p+9";
    "acqp_runtime_plan_bytes 0x1p+2";
    "acqp_planner_plan_bytes_total{algorithm=\"Heuristic\"} 0x1.8p+4";
    "acqp_planner_pruned_total{algorithm=\"Heuristic\"} 0x0p+0";
    "acqp_planner_estimator_calls_total{algorithm=\"Heuristic\"} 0x1.018p+10";
    "acqp_planner_memo_hits_total{algorithm=\"Heuristic\"} 0x0p+0";
    "acqp_planner_nodes_solved_total{algorithm=\"Heuristic\"} 0x1.4dp+10";
    "acqp_planner_plans_total{algorithm=\"Heuristic\"} 0x1p+1";
  ]

let test_runtime_two_runs_pinned () =
  let ds = Acq_data.Lab_gen.generate (Rng.create 77) ~rows:1_200 in
  let history, live = DS.split_by_time ds ~train_fraction:0.5 in
  let module L = Acq_data.Lab_gen in
  let schema = DS.schema history in
  let queries =
    [
      Q.create schema
        [
          Pred.inside ~attr:L.idx_temp ~lo:5 ~hi:6;
          Pred.inside ~attr:L.idx_humidity ~lo:12 ~hi:19;
        ];
      Q.create schema
        [
          Pred.inside ~attr:L.idx_humidity ~lo:10 ~hi:25;
          Pred.outside ~attr:L.idx_temp ~lo:0 ~hi:3;
        ];
    ]
  in
  let m = Acq_obs.Metrics.create () in
  let telemetry = Acq_obs.Telemetry.create ~metrics:m () in
  let reports =
    List.map
      (fun q ->
        let r =
          RT.run ~telemetry ~algorithm:Acq_core.Planner.Heuristic ~history
            ~live q
        in
        Printf.sprintf "%d %d %h %h %h %h %b" r.RT.epochs r.RT.matches
          r.RT.acquisition_energy r.RT.radio_energy r.RT.total_energy
          r.RT.avg_cost_per_epoch r.RT.correct)
      queries
  in
  let is_timer k =
    let rec at i =
      i + 3 <= String.length k && (String.sub k i 3 = "_ms" || at (i + 1))
    in
    at 0
  in
  let dump =
    List.filter_map
      (fun (k, v) -> if is_timer k then None else Some (Printf.sprintf "%s %h" k v))
      (Acq_obs.Metrics.snapshot m)
  in
  Alcotest.(check (list string)) "reports and dump" pinned_two_runs
    (reports @ dump)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "sensor"
    [
      ("energy", [ Alcotest.test_case "accounting" `Quick test_energy_accounting ]);
      ("radio", [ Alcotest.test_case "costs" `Quick test_radio_costs ]);
      ( "environment",
        [
          Alcotest.test_case "with nodeid" `Quick test_env_with_nodeid;
          Alcotest.test_case "without nodeid" `Quick test_env_without_nodeid;
        ] );
      ( "mote",
        [
          Alcotest.test_case "requires plan" `Quick test_mote_requires_plan;
          Alcotest.test_case "meters acquisition" `Quick
            test_mote_meters_acquisition;
          Alcotest.test_case "transmits matches" `Quick
            test_mote_transmits_matches;
        ] );
      ( "network",
        [
          Alcotest.test_case "topology" `Quick test_network_topology;
          Alcotest.test_case "dissemination" `Quick test_network_dissemination;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "end to end" `Quick test_runtime_end_to_end;
          Alcotest.test_case "cost matches executor" `Quick
            test_runtime_cost_matches_executor;
          Alcotest.test_case "conditional cheaper" `Quick
            test_runtime_conditional_cheaper;
          Alcotest.test_case "match count" `Quick test_runtime_match_count;
          Alcotest.test_case "two runs pinned" `Quick
            test_runtime_two_runs_pinned;
        ] );
    ]
