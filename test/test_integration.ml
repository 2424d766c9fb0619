(* Integration tests: whole-pipeline scenarios crossing every library
   boundary — SQL text to plan to simulated network execution, dataset
   persistence and replanning, model-driven planning, and miniature
   versions of the paper's experiments. *)

module Rng = Acq_util.Rng
module DS = Acq_data.Dataset
module S = Acq_data.Schema
module Q = Acq_plan.Query
module Plan = Acq_plan.Plan
module Ex = Acq_plan.Executor
module B = Acq_prob.Backend
module P = Acq_core.Planner
module RT = Acq_sensor.Runtime

let check_float6 = Alcotest.(check (float 1e-6))

(* SQL text -> catalog -> heuristic plan -> network replay, verdicts
   audited against ground truth. *)
let test_sql_to_network () =
  let ds = Acq_data.Lab_gen.generate (Rng.create 100) ~rows:6_000 in
  let history, live = DS.split_by_time ds ~train_fraction:0.5 in
  let schema = DS.schema ds in
  let { Acq_sql.Catalog.query = q; select } =
    Acq_sql.Catalog.compile schema
      "SELECT nodeid, light WHERE light >= 300 AND temp <= 20 AND \
       humidity <= 45"
  in
  Alcotest.(check (list int)) "projection resolved"
    [ Acq_data.Lab_gen.idx_nodeid; Acq_data.Lab_gen.idx_light ]
    select;
  let report = RT.run ~algorithm:P.Heuristic ~history ~live q in
  Alcotest.(check bool) "network verdicts correct" true report.RT.correct;
  Alcotest.(check bool) "plan fits a mote (under 1KB)" true
    ((RT.plan_bytes report) < 1024)

(* Plans survive a disseminate-style encode/decode and execute
   identically. *)
let test_plan_ships_faithfully () =
  let ds = Acq_data.Garden_gen.generate (Rng.create 101) ~n_motes:3 ~rows:4_000 in
  let train, test = DS.split_by_time ds ~train_fraction:0.5 in
  let schema = DS.schema ds in
  let q =
    Acq_workload.Query_gen.garden_query (Rng.create 102) ~schema ~n_motes:3
  in
  let costs = S.costs schema in
  let plan =
    (P.plan
       ~options:{ P.default_options with split_points_per_attr = 4 }
       P.Heuristic q ~train)
      .P.plan
  in
  let shipped = Acq_plan.Serialize.decode (Acq_plan.Serialize.encode plan) in
  check_float6 "identical cost after shipping"
    (Ex.average_cost q ~costs plan test)
    (Ex.average_cost q ~costs shipped test);
  Alcotest.(check bool) "identical structure" true (Plan.equal plan shipped)

(* Save a dataset to CSV, reload it, and verify planning reproduces
   the identical plan. *)
let test_persistence_replan () =
  let ds = Acq_data.Lab_gen.generate (Rng.create 103) ~rows:3_000 in
  let schema = DS.schema ds in
  let path = Filename.temp_file "acq_integration" ".csv" in
  Acq_data.Csv_io.save path ds;
  let reloaded = Acq_data.Csv_io.load schema path in
  Sys.remove path;
  let q = Acq_workload.Query_gen.lab_query (Rng.create 104) ~train:ds in
  let r1 = P.plan P.Heuristic q ~train:ds in
  let r2 = P.plan P.Heuristic q ~train:reloaded in
  Alcotest.(check bool) "identical plan from reloaded data" true
    (Plan.equal r1.P.plan r2.P.plan);
  check_float6 "identical cost" r1.P.est_cost r2.P.est_cost

(* A Chow-Liu-driven plan is still correct and competitive. *)
let test_model_driven_planning () =
  let ds = Acq_data.Lab_gen.generate (Rng.create 105) ~rows:8_000 in
  let train, test = DS.split_by_time ds ~train_fraction:0.5 in
  let schema = DS.schema ds in
  let q = Acq_workload.Query_gen.lab_query (Rng.create 106) ~train in
  let costs = S.costs schema in
  let model = Acq_prob.Chow_liu.learn train in
  let est = B.chow_liu model ~weight:(float_of_int (DS.nrows train)) in
  let plan = (P.plan_with_backend P.Heuristic q ~costs est).P.plan in
  Alcotest.(check bool) "model-driven plan consistent" true
    (Ex.consistent q ~costs plan test);
  let naive = (P.plan P.Naive q ~train).P.plan in
  let c_model = Ex.average_cost q ~costs plan test in
  let c_naive = Ex.average_cost q ~costs naive test in
  Alcotest.(check bool) "not catastrophically worse than naive" true
    (c_model <= c_naive *. 1.5)

(* The headline result in miniature: on correlated garden data the
   conditional plan beats Naive on held-out data by a clear margin,
   averaged over a small workload. *)
let test_headline_gain () =
  let n_motes = 5 in
  let ds = Acq_data.Garden_gen.generate (Rng.create 107) ~n_motes ~rows:8_000 in
  let train, test = DS.split_by_time ds ~train_fraction:0.5 in
  let schema = DS.schema ds in
  let qrng = Rng.create 108 in
  let cheap = S.cheap_indices schema in
  let o =
    {
      P.default_options with
      split_points_per_attr = 4;
      max_splits = 10;
      candidate_attrs = Some cheap;
    }
  in
  let total_naive = ref 0.0 and total_heur = ref 0.0 in
  for _ = 1 to 8 do
    let q = Acq_workload.Query_gen.garden_query qrng ~schema ~n_motes in
    let costs = S.costs schema in
    let naive = (P.plan P.Naive q ~train).P.plan in
    let heur = (P.plan ~options:o P.Heuristic q ~train).P.plan in
    Alcotest.(check bool) "heuristic consistent on test" true
      (Ex.consistent q ~costs heur test);
    total_naive := !total_naive +. Ex.average_cost q ~costs naive test;
    total_heur := !total_heur +. Ex.average_cost q ~costs heur test
  done;
  Alcotest.(check bool)
    (Printf.sprintf "conditional plans beat naive by >15%% (%.1f vs %.1f)"
       !total_naive !total_heur)
    true
    (!total_naive > !total_heur *. 1.15)

(* Streams-style replanning (Section 7): after a regime change,
   refreshing the basestation history recovers the gains. *)
let test_adaptive_replanning () =
  let schema =
    S.create
      [
        Acq_data.Attribute.discrete ~name:"regime" ~cost:1.0 ~domain:2;
        Acq_data.Attribute.discrete ~name:"e1" ~cost:100.0 ~domain:2;
        Acq_data.Attribute.discrete ~name:"e2" ~cost:100.0 ~domain:2;
      ]
  in
  let gen seed flip rows =
    let rng = Rng.create seed in
    DS.create schema
      (Array.init rows (fun _ ->
           let r = Rng.int rng 2 in
           let e1 = if Rng.bernoulli rng 0.9 then r else 1 - r in
           let e2 = if Rng.bernoulli rng 0.9 then 1 - r else r in
           if flip then [| r; e2; e1 |] else [| r; e1; e2 |]))
  in
  let old_world = gen 109 false 4_000 in
  let new_world = gen 110 true 4_000 in
  let q =
    Q.create schema
      [
        Acq_plan.Predicate.inside ~attr:1 ~lo:1 ~hi:1;
        Acq_plan.Predicate.inside ~attr:2 ~lo:1 ~hi:1;
      ]
  in
  let costs = S.costs schema in
  let opts = { P.default_options with max_splits = 3 } in
  let stale = (P.plan ~options:opts P.Heuristic q ~train:old_world).P.plan in
  let fresh = (P.plan ~options:opts P.Heuristic q ~train:new_world).P.plan in
  let c_stale = Ex.average_cost q ~costs stale new_world in
  let c_fresh = Ex.average_cost q ~costs fresh new_world in
  (* Both remain CORRECT... *)
  Alcotest.(check bool) "stale plan still correct" true
    (Ex.consistent q ~costs stale new_world);
  (* ...but replanning on fresh statistics is cheaper. *)
  Alcotest.(check bool) "replanning recovers the gain" true
    (c_fresh < c_stale -. 1.0)

(* Energy conservation across the whole simulated network: mote-level
   meters add up to the runtime report. *)
let test_energy_conservation () =
  let ds = Acq_data.Lab_gen.generate (Rng.create 111) ~rows:3_000 in
  let history, live = DS.split_by_time ds ~train_fraction:0.5 in
  let q = Acq_workload.Query_gen.lab_query (Rng.create 112) ~train:history in
  let r = RT.run ~algorithm:P.Corr_seq ~history ~live q in
  check_float6 "total = acquisition + radio" r.RT.total_energy
    (r.RT.acquisition_energy +. r.RT.radio_energy);
  (* The executor's average over the live trace predicts the per-epoch
     acquisition energy exactly. *)
  let costs = S.costs (Q.schema q) in
  check_float6 "runtime = executor"
    (Ex.average_cost q ~costs r.RT.plan live)
    r.RT.avg_cost_per_epoch

(* The CLI-visible seeds reproduce: planning twice from identical
   generator parameters yields identical plans. *)
let test_reproducibility_end_to_end () =
  let mk () =
    let ds = Acq_data.Garden_gen.generate (Rng.create 113) ~n_motes:4 ~rows:3_000 in
    let schema = DS.schema ds in
    let q = Acq_workload.Query_gen.garden_query (Rng.create 114) ~schema ~n_motes:4 in
    P.plan ~options:{ P.default_options with split_points_per_attr = 4 }
      P.Heuristic q ~train:ds
  in
  let r1 = mk () in
  let r2 = mk () in
  Alcotest.(check bool) "identical plans" true (Plan.equal r1.P.plan r2.P.plan);
  check_float6 "identical costs" r1.P.est_cost r2.P.est_cost;
  (* Fresh search contexts per call: the effort counters agree too,
     proving nothing (memo entries, counters) leaked across calls. *)
  let s1 : Acq_core.Search.stats = r1.P.stats
  and s2 : Acq_core.Search.stats = r2.P.stats in
  Alcotest.(check int) "same nodes solved" s1.Acq_core.Search.nodes_solved
    s2.Acq_core.Search.nodes_solved;
  Alcotest.(check int) "same memo hits" s1.Acq_core.Search.memo_hits
    s2.Acq_core.Search.memo_hits;
  Alcotest.(check int) "same estimator calls"
    s1.Acq_core.Search.estimator_calls s2.Acq_core.Search.estimator_calls

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "sql to network" `Quick test_sql_to_network;
          Alcotest.test_case "plan ships faithfully" `Quick
            test_plan_ships_faithfully;
          Alcotest.test_case "persistence replan" `Quick test_persistence_replan;
          Alcotest.test_case "model-driven planning" `Quick
            test_model_driven_planning;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "headline gain" `Quick test_headline_gain;
          Alcotest.test_case "adaptive replanning" `Quick
            test_adaptive_replanning;
          Alcotest.test_case "energy conservation" `Quick
            test_energy_conservation;
          Alcotest.test_case "reproducibility" `Quick
            test_reproducibility_end_to_end;
        ] );
    ]
