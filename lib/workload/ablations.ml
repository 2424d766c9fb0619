module Rng = Acq_util.Rng
module Tbl = Acq_util.Tbl
module P = Acq_core.Planner

let pick (s : Figures.scale) ~quick ~full = if s.full then full else quick

let time f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

(* ------------------------------------------------------------------ *)

let scale_exp s =
  Report.section "scale" "Planner scalability (Section 6.4)";
  (* (1) vs number of predicates, synthetic data. *)
  let t = Tbl.create [ "#predicates"; "Naive s"; "CorrSeq s"; "Heuristic-5 s" ] in
  List.iter
    (fun n ->
      let params = { Acq_data.Synthetic_gen.n; gamma = 1; sel = 0.5 } in
      let ds =
        Acq_data.Synthetic_gen.generate (Rng.create 31) params
          ~rows:(pick s ~quick:4_000 ~full:10_000)
      in
      let schema = Acq_data.Dataset.schema ds in
      let q = Query_gen.synthetic_query params ~schema in
      let cheap = Acq_data.Schema.cheap_indices schema in
      let o = { P.default_options with candidate_attrs = Some cheap } in
      let t_of algo opts = snd (time (fun () -> P.plan ~options:opts algo q ~train:ds)) in
      Tbl.add_row t
        [
          string_of_int (Acq_plan.Query.n_predicates q);
          Printf.sprintf "%.3f" (t_of P.Naive o);
          Printf.sprintf "%.3f" (t_of P.Corr_seq o);
          Printf.sprintf "%.3f" (t_of P.Heuristic { o with max_splits = 5 });
        ])
    (pick s ~quick:[ 8; 16; 32 ] ~full:[ 8; 16; 32; 64 ]);
  Report.table t;
  Report.note
    "Expected: Naive and Heuristic(GreedySeq base) polynomial in m; CorrSeq \
     switches from OptSeq (exponential in m) to GreedySeq above the \
     threshold.";
  (* (2) vs domain size, exhaustive planner on coarsened lab. *)
  let t = Tbl.create [ "domains"; "Exhaustive s"; "subproblems"; "cache hits" ] in
  List.iter
    (fun factor ->
      let ds =
        Acq_data.Dataset.coarsen
          (Acq_data.Lab_gen.generate (Rng.create 32) ~rows:6000)
          ~factors:(Array.map (fun f -> f * factor) Figures.coarse_factors)
      in
      let train, _ = Acq_data.Dataset.split_by_time ds ~train_fraction:0.5 in
      let qrng = Rng.create 33 in
      let q = Query_gen.lab_query qrng ~train in
      let o =
        {
          P.default_options with
          split_points_per_attr = 2;
          exhaustive_budget = 8_000_000;
        }
      in
      match time (fun () -> P.plan ~options:o P.Exhaustive q ~train) with
      | r, dt ->
          let st : Acq_core.Search.stats = r.P.stats in
          Tbl.add_row t
            [
              String.concat ","
                (Array.to_list
                   (Array.map string_of_int
                      (Acq_data.Schema.domains (Acq_data.Dataset.schema train))));
              Printf.sprintf "%.2f" dt;
              string_of_int st.Acq_core.Search.nodes_solved;
              string_of_int st.Acq_core.Search.memo_hits;
            ]
      | exception Acq_core.Exhaustive.Budget_exceeded ->
          Tbl.add_row t [ string_of_int factor; "budget exceeded"; "-"; "-" ])
    (pick s ~quick:[ 2; 1 ] ~full:[ 4; 2; 1 ]);
  Report.table t;
  Report.note "Expected: exponential growth in subproblems as domains widen.";
  (* (3) vs training-set size. *)
  let t = Tbl.create [ "train rows"; "Heuristic-5 s"; "CorrSeq s" ] in
  List.iter
    (fun rows ->
      let ds = Acq_data.Lab_gen.generate (Rng.create 34) ~rows in
      let qrng = Rng.create 35 in
      let q = Query_gen.lab_query qrng ~train:ds in
      let o = P.default_options in
      let t_of algo opts =
        snd (time (fun () -> P.plan ~options:opts algo q ~train:ds))
      in
      Tbl.add_row t
        [
          string_of_int rows;
          Printf.sprintf "%.3f" (t_of P.Heuristic o);
          Printf.sprintf "%.3f" (t_of P.Corr_seq o);
        ])
    (pick s ~quick:[ 2_000; 8_000; 32_000 ] ~full:[ 2_000; 8_000; 32_000; 128_000 ]);
  Report.table t;
  Report.note "Expected: linear in the size of the historical data."

(* ------------------------------------------------------------------ *)

let ablate_size s =
  Report.section "ablate-size"
    "Plan size vs dissemination energy (Section 2.4 trade-off)";
  let n_motes = 5 in
  let rows = pick s ~quick:6_000 ~full:16_000 in
  let ds = Acq_data.Garden_gen.generate (Rng.create 41) ~n_motes ~rows in
  let history, live = Acq_data.Dataset.split_by_time ds ~train_fraction:0.5 in
  let schema = Acq_data.Dataset.schema ds in
  let qrng = Rng.create 42 in
  (* Use the first generated query with an interesting conditional
     structure (inside polarity). *)
  let rec gen () =
    let q = Query_gen.garden_query qrng ~schema ~n_motes in
    match (Acq_plan.Query.predicates q).(0).Acq_plan.Predicate.polarity with
    | Acq_plan.Predicate.Inside -> q
    | Acq_plan.Predicate.Outside -> gen ()
  in
  let q = gen () in
  let cheap = Acq_data.Schema.cheap_indices schema in
  let t =
    Tbl.create
      [
        "max splits";
        "plan bytes";
        "radio energy";
        "acq energy/epoch";
        "total energy";
        "break-even epochs vs k=0";
      ]
  in
  let base : Acq_sensor.Runtime.report option ref = ref None in
  List.iter
    (fun k ->
      let options =
        {
          P.default_options with
          max_splits = k;
          split_points_per_attr = 4;
          candidate_attrs = Some cheap;
        }
      in
      let r =
        (* A deliberately expensive radio (2 units/byte vs the default
           0.05) so the dissemination term is visible at trace scale —
           the alpha > 0 regime of Section 2.4. *)
        Acq_sensor.Runtime.run
          ~radio:{ Acq_sensor.Radio.per_byte = 2.0; header_bytes = 8 }
          ~options ~algorithm:P.Heuristic ~history ~live q
      in
      if k = 0 then base := Some r;
      let break_even =
        match !base with
        | Some b when k > 0 ->
            let saved =
              b.Acq_sensor.Runtime.avg_cost_per_epoch -. r.Acq_sensor.Runtime.avg_cost_per_epoch
            in
            let extra_radio = r.Acq_sensor.Runtime.radio_energy -. b.Acq_sensor.Runtime.radio_energy in
            if saved > 1e-9 then Printf.sprintf "%.1f" (extra_radio /. saved)
            else "never"
        | Some _ | None -> "-"
      in
      Tbl.add_row t
        [
          string_of_int k;
          string_of_int (Acq_sensor.Runtime.plan_bytes r);
          Printf.sprintf "%.1f" r.Acq_sensor.Runtime.radio_energy;
          Printf.sprintf "%.2f" r.Acq_sensor.Runtime.avg_cost_per_epoch;
          Printf.sprintf "%.0f" r.Acq_sensor.Runtime.total_energy;
          break_even;
        ])
    [ 0; 1; 2; 5; 10; 20 ];
  Report.table t;
  Report.note
    "Reading: bigger plans cost more to ship but less per epoch; for \
     long-running continuous queries the acquisition term dominates, which \
     is the paper's alpha -> 0 regime.";
  (* Joint objective: alpha = radio-cost-per-byte / lifetime-tuples
     (Section 2.4). Large alpha (short-lived query) should shrink the
     plan the optimizer emits. *)
  let t2 =
    Acq_util.Tbl.create
      [ "alpha"; "plan bytes"; "tests"; "acq cost/tuple"; "objective C+a*z" ]
  in
  let train = history in
  let costs = Acq_data.Schema.costs schema in
  List.iter
    (fun alpha ->
      let options =
        {
          P.default_options with
          max_splits = 20;
          split_points_per_attr = 4;
          candidate_attrs = Some cheap;
          size_alpha = alpha;
        }
      in
      let plan = (P.plan ~options P.Heuristic q ~train).P.plan in
      let zeta = Acq_plan.Serialize.size plan in
      let c = Acq_exec.Runner.average_cost q ~costs plan live in
      Acq_util.Tbl.add_row t2
        [
          Printf.sprintf "%g" alpha;
          string_of_int zeta;
          string_of_int (Acq_plan.Plan.n_tests plan);
          Printf.sprintf "%.2f" c;
          Printf.sprintf "%.1f" (c +. (alpha *. float_of_int zeta));
        ])
    [ 0.0; 0.01; 0.1; 1.0; 10.0 ];
  Report.table t2;
  Report.note
    "Reading: as alpha grows (shorter query lifetime), the optimizer \
     voluntarily emits smaller plans, trading per-tuple savings for \
     dissemination bytes."

(* ------------------------------------------------------------------ *)

let ablate_model s =
  Report.section "ablate-model"
    "Empirical counts vs Chow-Liu tree estimator (Section 7)";
  let ds = Acq_data.Lab_gen.generate (Rng.create 51) ~rows:24_000 in
  let _, test = Acq_data.Dataset.split_by_time ds ~train_fraction:0.5 in
  let full_train, _ = Acq_data.Dataset.split_by_time ds ~train_fraction:0.5 in
  let qrng = Rng.create 52 in
  let queries =
    List.init (pick s ~quick:10 ~full:20) (fun _ ->
        Query_gen.lab_query qrng ~train:full_train)
  in
  let srng = Rng.create 53 in
  let t =
    Tbl.create
      [ "train rows"; "empirical avg cost"; "chow-liu avg cost" ]
  in
  List.iter
    (fun rows ->
      let train = Acq_data.Dataset.subsample full_train (Rng.copy srng) rows in
      let o = { P.default_options with max_splits = 5 } in
      let avg backend =
        Acq_util.Stats.mean
          (Array.of_list
             (List.map
                (fun q ->
                  let costs = Acq_data.Schema.costs (Acq_plan.Query.schema q) in
                  let plan =
                    (P.plan_with_backend ~options:o P.Heuristic q ~costs backend)
                      .P.plan
                  in
                  assert (Acq_plan.Executor.consistent q ~costs plan test);
                  Acq_exec.Runner.average_cost q ~costs plan test)
                queries))
      in
      let empirical = avg (Acq_prob.Backend.empirical train) in
      let chow =
        avg
          (Acq_prob.Backend.chow_liu
             (Acq_prob.Chow_liu.learn train)
             ~weight:(float_of_int (Acq_data.Dataset.nrows train)))
      in
      Tbl.add_row t
        [
          string_of_int rows;
          Printf.sprintf "%.1f" empirical;
          Printf.sprintf "%.1f" chow;
        ])
    (pick s ~quick:[ 100; 300; 1_000; 3_000 ] ~full:[ 100; 300; 1_000; 3_000; 10_000 ]);
  Report.table t;
  Report.note
    "Reading: once it has a few hundred tuples to fit, the smoothed tree \
     model consistently beats raw counts, whose deep-conditioning estimates \
     thin out exponentially with each split (Section 7's motivation for \
     graphical models). Below that the tree's own structure/CPT estimates \
     are too noisy, and the count-based planner's empty-view fallback \
     (degrade to a sequential plan) is the safer behaviour."

(* ------------------------------------------------------------------ *)

let ablate_prob s =
  Report.section "ablate-prob"
    "Probability-backend ablation: planning speed vs plan quality per \
     selectivity kernel";
  let rows = pick s ~quick:8_000 ~full:24_000 in
  (* Coarsened lab (~12k joint cells) keeps Chow-Liu learning and
     every arm's planning fast; queries vary per seed. *)
  let ds =
    Acq_data.Dataset.coarsen
      (Acq_data.Lab_gen.generate (Rng.create 71) ~rows)
      ~factors:Figures.coarse_factors
  in
  let train, test = Acq_data.Dataset.split_by_time ds ~train_fraction:0.5 in
  let schema = Acq_data.Dataset.schema ds in
  let costs = Acq_data.Schema.costs schema in
  let n_queries = pick s ~quick:8 ~full:24 in
  let qrng = Rng.create 72 in
  let queries =
    List.init n_queries (fun _ -> Query_gen.lab_query qrng ~train)
  in
  let t =
    Tbl.create
      [ "model"; "plan s"; "mean test cost"; "estimator calls"; "memo hit %" ]
  in
  List.iter
    (fun name ->
      let spec =
        match Acq_prob.Backend.spec_of_string name with
        | Ok sp -> sp
        | Error e -> failwith (Acq_prob.Backend.spec_error_to_string e)
      in
      let o = { P.default_options with prob_model = spec } in
      (* One registry per arm so the memo counters are per-model. *)
      let m = Acq_obs.Metrics.create () in
      let obs = Acq_obs.Telemetry.create ~metrics:m () in
      let calls = ref 0 in
      let cost_sum = ref 0.0 in
      let (), secs =
        time (fun () ->
            List.iter
              (fun q ->
                let r = P.plan ~options:o ~telemetry:obs P.Heuristic q ~train in
                calls :=
                  !calls + r.P.stats.Acq_core.Search.estimator_calls;
                cost_sum :=
                  !cost_sum
                  +. Acq_exec.Runner.average_cost q ~costs
                       r.P.plan test)
              queries)
      in
      let memo_rate =
        let snap = Acq_obs.Metrics.snapshot m in
        let v prefix =
          List.fold_left
            (fun acc (k, x) ->
              if String.length k >= String.length prefix
                 && String.sub k 0 (String.length prefix) = prefix
              then acc +. x
              else acc)
            0.0 snap
        in
        let hits = v "acqp_prob_memo_hits_total" in
        let misses = v "acqp_prob_memo_misses_total" in
        if hits +. misses <= 0.0 then "-"
        else Printf.sprintf "%.1f" (100.0 *. hits /. (hits +. misses))
      in
      Tbl.add_row t
        [
          name;
          Printf.sprintf "%.3f" secs;
          Printf.sprintf "%.1f" (!cost_sum /. float_of_int n_queries);
          string_of_int !calls;
          memo_rate;
        ])
    [
      "empirical";
      "empirical,memo";
      "chow-liu";
      "chow-liu,memo";
      "independence";
    ];
  Report.table t;
  Report.note
    "Reading: memoization leaves plans and test costs untouched and pays \
     off only where the planner re-queries the same conditioning context. \
     Chow-Liu smooths sparse deep-conditioning counts; independence is the \
     correlation-blind floor."

(* ------------------------------------------------------------------ *)

let ablate_spsf s =
  Report.section "ablate-spsf"
    "Split-point budget vs plan quality (Section 4.3)";
  let ds = Acq_data.Lab_gen.generate (Rng.create 61) ~rows:20_000 in
  let train, test = Acq_data.Dataset.split_by_time ds ~train_fraction:0.5 in
  let qrng = Rng.create 62 in
  let queries =
    List.init (pick s ~quick:8 ~full:20) (fun _ ->
        Query_gen.lab_query qrng ~train)
  in
  let domains = Acq_data.Schema.domains (Acq_data.Dataset.schema train) in
  let t =
    Tbl.create [ "split points/attr"; "SPSF"; "Heuristic-5 avg test cost" ]
  in
  List.iter
    (fun r ->
      let o =
        { P.default_options with split_points_per_attr = r; max_splits = 5 }
      in
      let avg =
        Acq_util.Stats.mean
          (Array.of_list
             (List.map
                (fun q ->
                  let costs = Acq_data.Schema.costs (Acq_plan.Query.schema q) in
                  let plan = (P.plan ~options:o P.Heuristic q ~train).P.plan in
                  Acq_exec.Runner.average_cost q ~costs plan
                    test)
                queries))
      in
      Tbl.add_row t
        [
          string_of_int r;
          Printf.sprintf "%.0f"
            (Acq_core.Spsf.spsf
               (Acq_core.Spsf.equal_width ~domains ~points_per_attr:r));
          Printf.sprintf "%.1f" avg;
        ])
    [ 1; 2; 4; 8; 16 ];
  Report.table t;
  Report.note
    "Reading: constraining split points too much obscures correlations \
     (the paper's conclusion from Figure 8b); returns diminish once the \
     grid resolves the data's structure."

(* ------------------------------------------------------------------ *)

let ext_exists s =
  Report.section "ext-exists"
    "Existential queries (Section 7 generalization)";
  let n_motes = pick s ~quick:5 ~full:11 in
  let rows = pick s ~quick:8_000 ~full:20_000 in
  let ds = Acq_data.Garden_gen.generate (Rng.create 71) ~n_motes ~rows in
  let train, test = Acq_data.Dataset.split_by_time ds ~train_fraction:0.5 in
  let schema = Acq_data.Dataset.schema ds in
  let costs = Acq_data.Schema.costs schema in
  let cheap = Acq_data.Schema.cheap_indices schema in
  (* "Is any mote currently passing through the calibration band?" —
     a narrow window that different motes (different canopy exposure)
     cross at different hours, so WHICH mote satisfies it varies per
     epoch. *)
  let q =
    Acq_core.Existential.query schema
      (List.init n_motes (fun m ->
           [
             Acq_plan.Predicate.inside
               ~attr:(Acq_data.Garden_gen.idx_temp m) ~lo:5 ~hi:10;
             Acq_plan.Predicate.inside
               ~attr:(Acq_data.Garden_gen.idx_humid m) ~lo:5 ~hi:10;
           ]))
  in
  let naive = Acq_core.Existential.naive_plan q ~costs train in
  let seq = Acq_core.Existential.greedy_seq_plan q ~costs train in
  let cond =
    Acq_core.Existential.plan ~max_depth:3 ~candidate_attrs:cheap q ~costs train
  in
  let t = Acq_util.Tbl.create [ "plan"; "avg test cost"; "correct" ] in
  List.iter
    (fun (name, p) ->
      Acq_util.Tbl.add_row t
        [
          name;
          Printf.sprintf "%.1f" (Acq_core.Existential.average_cost q ~costs p test);
          string_of_bool (Acq_core.Existential.consistent q ~costs p test);
        ])
    [ ("Naive group order", naive); ("Correlated sequential", seq);
      ("Conditional", cond) ];
  Report.table t;
  (* Fraction of epochs where the existential query is true. *)
  let hits = ref 0 in
  Acq_data.Dataset.iter_rows test (fun r ->
      if Acq_core.Existential.eval q (Acq_data.Dataset.row test r) then incr hits);
  Report.note
    (Printf.sprintf "query true on %.1f%%%% of test epochs"
       (100.0 *. float_of_int !hits /. float_of_int (Acq_data.Dataset.nrows test)));
  Report.note
    "Reading: for exists-queries the optimizer probes the mote most likely \
     to satisfy the conjunct first; time and voltage reveal which mote that \
     is, per epoch."

(* ------------------------------------------------------------------ *)

let ext_boards s =
  Report.section "ext-boards"
    "Complex acquisition costs: sensor boards (Section 7)";
  (* Lab mote with a weather board: light/temp/humidity share one
     board whose power-up dominates the per-sensor read, exactly the
     decomposition Section 7 describes. *)
  let rows = pick s ~quick:16_000 ~full:40_000 in
  let ds = Acq_data.Lab_gen.generate (Rng.create 81) ~rows in
  let train, test = Acq_data.Dataset.split_by_time ds ~train_fraction:0.5 in
  let schema = Acq_data.Dataset.schema ds in
  let costs = Acq_data.Schema.costs schema in
  (* Boards: 0 = CPU-local (nodeid/hour/voltage); 1 = light+temp
     share one sensor board; 2 = humidity has its own. Power-up
     dominates the per-sensor read, so once light is read, temp is
     nearly free while humidity still costs a full wake-up — the
     warm-vs-cold choice the planner must price correctly. *)
  let model =
    Acq_plan.Cost_model.boards
      ~board:[| 0; 0; 0; 1; 1; 2 |]
      ~wakeup:[| 0.0; 90.0; 90.0 |]
      ~read:[| 1.0; 1.0; 1.0; 10.0; 10.0; 10.0 |]
  in
  let qrng = Rng.create 82 in
  let queries =
    List.init (pick s ~quick:12 ~full:30) (fun _ ->
        Query_gen.lab_query qrng ~train)
  in
  let plan_with opts algo q = (P.plan ~options:opts algo q ~train).P.plan in
  let aware_opts = { P.default_options with cost_model = Some model } in
  let blind_opts = P.default_options in
  let avg f =
    Acq_util.Stats.mean
      (Array.of_list
         (List.map
            (fun q ->
              Acq_exec.Runner.average_cost ~model q ~costs (f q)
                test)
            queries))
  in
  let t = Acq_util.Tbl.create [ "planner"; "avg test cost (board pricing)" ] in
  Acq_util.Tbl.add_row t
    [ "Naive (worst-case prices)";
      Printf.sprintf "%.1f" (avg (plan_with blind_opts P.Naive)) ];
  Acq_util.Tbl.add_row t
    [ "Heuristic, board-blind";
      Printf.sprintf "%.1f" (avg (plan_with blind_opts P.Heuristic)) ];
  Acq_util.Tbl.add_row t
    [ "Heuristic, board-aware";
      Printf.sprintf "%.1f" (avg (plan_with aware_opts P.Heuristic)) ];
  Report.table t;
  Report.note
    "Reading: on the lab workload the board-aware planner re-orders the \
     warm second reading ahead of the cold one; gains are modest because \
     all three expensive attributes are similarly selective.";
  (* A sharper microcosm. Query: light AND humid AND press, one per
     board. temp shares light's board and is NOT in the query — but it
     predicts which of humid/press will fail. Cold, temp costs 100 and
     no sane plan touches it; warm (after light), it costs 10 and is a
     bargain oracle. Only the board-aware planner can see that. *)
  let schema2 =
    Acq_data.Schema.create
      [
        Acq_data.Attribute.discrete ~name:"light" ~cost:100.0 ~domain:2;
        Acq_data.Attribute.discrete ~name:"temp" ~cost:100.0 ~domain:2;
        Acq_data.Attribute.discrete ~name:"humid" ~cost:100.0 ~domain:2;
        Acq_data.Attribute.discrete ~name:"press" ~cost:100.0 ~domain:2;
      ]
  in
  let model2 =
    Acq_plan.Cost_model.boards
      ~board:[| 0; 0; 1; 2 |]
      ~wakeup:[| 90.0; 0.0; 0.0 |]
      ~read:[| 10.0; 10.0; 100.0; 100.0 |]
  in
  let rng2 = Rng.create 83 in
  let ds2 =
    Acq_data.Dataset.create schema2
      (Array.init (pick s ~quick:8_000 ~full:20_000) (fun _ ->
           let z = Rng.int rng2 2 in
           let bit p = if Rng.bernoulli rng2 p then 1 else 0 in
           (* humid barely depends on z, press hinges on it: only the
              direct temp probe reveals press's fate, and humid's
              outcome cannot substitute for it. *)
           let humid = if z = 1 then bit 0.45 else bit 0.55 in
           let press = if z = 1 then bit 0.95 else bit 0.05 in
           [| bit 0.5; z; humid; press |]))
  in
  let train2, test2 = Acq_data.Dataset.split_by_time ds2 ~train_fraction:0.5 in
  let q2 =
    Acq_plan.Query.create schema2
      [
        Acq_plan.Predicate.inside ~attr:0 ~lo:1 ~hi:1;
        Acq_plan.Predicate.inside ~attr:2 ~lo:1 ~hi:1;
        Acq_plan.Predicate.inside ~attr:3 ~lo:1 ~hi:1;
      ]
  in
  let costs2 = Acq_data.Schema.costs schema2 in
  let t2 = Acq_util.Tbl.create [ "planner"; "microcosm cost"; "tests on temp" ] in
  let measure opts algo =
    let plan = (P.plan ~options:opts algo q2 ~train:train2).P.plan in
    ( Acq_exec.Runner.average_cost ~model:model2 q2 ~costs:costs2
        plan test2,
      if List.mem 1 (Acq_plan.Plan.attrs_tested plan) then "yes" else "no" )
  in
  let aware2 =
    { P.default_options with cost_model = Some model2; split_points_per_attr = 1 }
  in
  let blind2 = { P.default_options with split_points_per_attr = 1 } in
  List.iter
    (fun (name, opts, algo) ->
      let c, uses_temp = measure opts algo in
      Acq_util.Tbl.add_row t2 [ name; Printf.sprintf "%.1f" c; uses_temp ])
    [
      ("Naive", blind2, P.Naive);
      ("Exhaustive, board-blind", blind2, P.Exhaustive);
      ("Exhaustive, board-aware", aware2, P.Exhaustive);
    ];
  Report.table t2;
  Report.note
    "Reading: the aware plan reads light, then spends 10 units on the \
     warm temp probe to learn which cold board to gamble on; the blind \
     planner prices temp at 100 and never touches an attribute outside \
     the query."

(* ------------------------------------------------------------------ *)

let ext_approx s =
  Report.section "ext-approx"
    "Approximate answers via model-driven acquisition (Section 7)";
  let rows = pick s ~quick:16_000 ~full:40_000 in
  let ds = Acq_data.Lab_gen.generate (Rng.create 91) ~rows in
  let train, test = Acq_data.Dataset.split_by_time ds ~train_fraction:0.5 in
  let schema = Acq_data.Dataset.schema ds in
  let costs = Acq_data.Schema.costs schema in
  let q = Query_gen.lab_query (Rng.create 92) ~train in
  let model = Acq_prob.Chow_liu.learn train in
  let plan =
    (P.plan ~options:{ P.default_options with max_splits = 5 } P.Heuristic q
       ~train)
      .P.plan
  in
  Report.note ("query: " ^ Acq_plan.Query.describe q);
  let t =
    Acq_util.Tbl.create
      [ "epsilon"; "avg cost"; "accuracy"; "false pos"; "false neg";
        "model-answered preds/tuple" ]
  in
  List.iter
    (fun epsilon ->
      let r =
        Acq_core.Approximate.evaluate ~model ~epsilon q ~costs plan test
      in
      Acq_util.Tbl.add_row t
        [
          Printf.sprintf "%.2f" epsilon;
          Printf.sprintf "%.1f" r.Acq_core.Approximate.avg_cost;
          Printf.sprintf "%.3f" r.Acq_core.Approximate.accuracy;
          Printf.sprintf "%.3f" r.Acq_core.Approximate.false_positives;
          Printf.sprintf "%.3f" r.Acq_core.Approximate.false_negatives;
          Printf.sprintf "%.2f" r.Acq_core.Approximate.avg_skipped;
        ])
    [ 0.0; 0.01; 0.05; 0.10; 0.20 ];
  Report.table t;
  Report.note
    "Reading: epsilon = 0 reproduces the exact executor (accuracy 1); \
     raising epsilon lets the Chow-Liu model answer confident predicates \
     without powering the sensor, trading bounded error for energy — the \
     [9]-style extension the paper proposes to combine with conditional \
     plans."

(* ------------------------------------------------------------------ *)

let ablate_sample s =
  Report.section "ablate-sample"
    "Sampling ablation: PAC planning on confidence intervals vs exact \
     counting, expensive-predicate (UDF) workload";
  let p = Udf_gen.default in
  let rows = pick s ~quick:6_000 ~full:20_000 in
  let train = Udf_gen.generate (Rng.create 91) p ~rows in
  let live = Udf_gen.generate_drifted (Rng.create 92) p ~rows in
  let model = Udf_gen.cost_model (Rng.create 93) p in
  let q = Udf_gen.query p in
  let schema = Acq_data.Dataset.schema train in
  let costs = Acq_data.Schema.costs schema in
  let t =
    Tbl.create [ "model"; "algo"; "plan s"; "live cost"; "certificate" ]
  in
  List.iter
    (fun (name, algo) ->
      let spec =
        match Acq_prob.Backend.spec_of_string name with
        | Ok sp -> sp
        | Error e -> failwith (Acq_prob.Backend.spec_error_to_string e)
      in
      let o =
        {
          P.default_options with
          prob_model = spec;
          cost_model = Some model;
          (* Near-tied orders (regime symmetry) make a 5% certified
             gap cost the whole window; 50% shows early stopping. *)
          pac_epsilon = 0.5;
        }
      in
      let r, secs = time (fun () -> P.plan ~options:o algo q ~train) in
      let live_cost =
        Acq_exec.Runner.average_cost ~model q ~costs r.P.plan
          live
      in
      let cert =
        match r.P.stats.Acq_core.Search.certificate with
        | None -> "-"
        | Some c -> Acq_core.Search.certificate_to_string c
      in
      Tbl.add_row t
        [
          name;
          P.algorithm_name algo;
          Printf.sprintf "%.3f" secs;
          Printf.sprintf "%.1f" live_cost;
          cert;
        ])
    [
      ("empirical", P.Corr_seq);
      ("sampled(64,0.001)", P.Pac);
      ("sampled(256,0.001)", P.Pac);
      ("sampled(1024,0.001)", P.Pac);
      ("sampled(1024,0.001),memo", P.Pac);
    ];
  Report.table t;
  Report.note
    "Reading: Pac over a small sample refines until order decisions \
     separate, so its live cost tracks the exact CorrSeq plan while \
     touching a fraction of the training rows; the certificate's \
     cost_bound upper-bounds the plan's training-distribution cost with \
     probability 1 - delta. Memoization changes effort, never the plan \
     or the certificate."

(* ------------------------------------------------------------------ *)

let ablate_adapt s =
  Report.section "ablate-adapt"
    "Adaptive replanning over a drifting stream (Section 7)";
  let module Rt = Acq_sensor.Runtime in
  let module Pol = Acq_adapt.Policy in
  let params = { Acq_data.Synthetic_gen.n = 12; gamma = 2; sel = 0.25 } in
  let rows = pick s ~quick:6_000 ~full:18_000 in
  let change_points = [ rows / 3; 2 * rows / 3 ] in
  let history =
    Acq_data.Synthetic_gen.generate (Rng.create 71) params ~rows:2_000
  in
  let live =
    Acq_data.Synthetic_gen.generate_drifting (Rng.create 72) params ~rows
      ~change_points
  in
  let schema = Acq_data.Dataset.schema history in
  let q = Query_gen.synthetic_query params ~schema in
  let options =
    {
      P.default_options with
      candidate_attrs = Some (Acq_data.Schema.cheap_indices schema);
      max_splits = 3;
    }
  in
  let window = 256 in
  let run policy =
    Rt.run_adaptive ~options ~policy ~window ~algorithm:P.Heuristic ~history
      ~live q
  in
  Report.note
    (Printf.sprintf
       "drifting trace: %d rows, correlation flips at rows %s; window %d"
       rows
       (String.concat ", " (List.map string_of_int change_points))
       window);
  Report.note ("query: " ^ Acq_plan.Query.describe q);
  let arms =
    [
      ("static", Pol.static_);
      ("periodic-1k", Pol.periodic 1_000);
      ("drift", Pol.drift_triggered ~check_every:32 ~cooldown:128 0.10);
      ( "drift+regret",
        Pol.drift_regret ~check_every:32 ~cooldown:128 0.10 ~regret:1.5 );
    ]
  in
  let results = List.map (fun (name, pol) -> (name, run pol)) arms in
  let static_total =
    match results with (_, r) :: _ -> r.Rt.a_total_energy | [] -> 0.0
  in
  let t =
    Tbl.create
      [
        "policy"; "replans"; "switches"; "switch bytes"; "acq energy";
        "radio"; "total"; "vs static";
      ]
  in
  List.iter
    (fun (name, (r : Rt.adaptive_report)) ->
      let switch_bytes =
        List.fold_left
          (fun a (sw : Acq_adapt.Session.switch) ->
            a + sw.Acq_adapt.Session.plan_bytes)
          0 r.Rt.switches
      in
      Tbl.add_row t
        [
          name;
          string_of_int r.Rt.a_replans;
          string_of_int (List.length r.Rt.switches);
          string_of_int switch_bytes;
          Printf.sprintf "%.0f" r.Rt.a_acquisition_energy;
          Printf.sprintf "%.0f" r.Rt.a_radio_energy;
          Printf.sprintf "%.0f" r.Rt.a_total_energy;
          Printf.sprintf "%+.1f%%"
            (100.0 *. (r.Rt.a_total_energy -. static_total) /. static_total);
        ])
    results;
  Report.table t;
  (match List.assoc_opt "drift" results with
  | Some r when r.Rt.switches <> [] ->
      Report.note "drift-triggered switch timeline:";
      List.iter
        (fun sw -> Report.note (Format.asprintf "%a" Rt.pp_switch sw))
        r.Rt.switches
  | _ -> ());
  Report.note
    "Reading: each change point flips every cheap-expensive correlation \
     and shifts the expensive marginals, so the static plan's branch \
     predictions invert mid-stream; the drift trigger re-plans from the \
     sliding window within a fraction of a window of each flip, paying \
     one dissemination per switch, while the periodic baseline replans \
     on a clock whether the data moved or not."
