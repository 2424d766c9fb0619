module Rng = Acq_util.Rng
module Tbl = Acq_util.Tbl
module P = Acq_core.Planner

type scale = { full : bool }

let pick s ~quick ~full = if s.full then full else quick

(* ------------------------------------------------------------------ *)
(* Shared dataset builders (fixed seeds: every run reproduces). *)

let lab_data s =
  Acq_data.Lab_gen.generate (Rng.create 1001)
    ~rows:(pick s ~quick:16_000 ~full:60_000)

(* Coarsened lab for the exhaustive experiments: domains
   [nodeid 2; hour 6; voltage 2; light 8; temp 8; humidity 8]. *)
let coarse_factors = [| 6; 4; 4; 4; 4; 4 |]

let lab_data_coarse s =
  Acq_data.Dataset.coarsen (lab_data s) ~factors:coarse_factors

let split ds = Acq_data.Dataset.split_by_time ds ~train_fraction:0.5

let costs_of q = Acq_data.Schema.costs (Acq_plan.Query.schema q)

let spec_of_algo name algo options train =
  { Experiment.name; build = (fun q -> P.plan ~options algo q ~train) }

(* ------------------------------------------------------------------ *)

let fig1 s =
  Report.section "fig1" "Hour of day vs. light (Figure 1)";
  let ds = lab_data s in
  let schema = Acq_data.Dataset.schema ds in
  let light_attr = Acq_data.Lab_gen.idx_light in
  let binner =
    match (Acq_data.Schema.attr schema light_attr).Acq_data.Attribute.binner with
    | Some b -> b
    | None -> assert false
  in
  let by_hour = Array.make 24 [] in
  Acq_data.Dataset.iter_rows ds (fun r ->
      let h = Acq_data.Dataset.get ds r Acq_data.Lab_gen.idx_hour in
      let lux =
        Acq_data.Discretize.mid binner (Acq_data.Dataset.get ds r light_attr)
      in
      by_hour.(h) <- lux :: by_hour.(h));
  let t = Tbl.create [ "hour"; "p10 lux"; "median lux"; "p90 lux" ] in
  Array.iteri
    (fun h ls ->
      if ls <> [] then begin
        let a = Array.of_list ls in
        Tbl.add_row t
          [
            string_of_int h;
            Printf.sprintf "%.0f" (Acq_util.Stats.percentile a 10.0);
            Printf.sprintf "%.0f" (Acq_util.Stats.median a);
            Printf.sprintf "%.0f" (Acq_util.Stats.percentile a 90.0);
          ]
      end)
    by_hour;
  Report.table t;
  Report.note
    "Paper shape: light values confined to a narrow dark band at night \
     (hours 0-5, 20-23), wide bright band by day.";
  let hour_col =
    Array.map float_of_int (Acq_data.Dataset.column ds Acq_data.Lab_gen.idx_hour)
  in
  let light_col =
    Array.map float_of_int (Acq_data.Dataset.column ds light_attr)
  in
  Report.note
    (Printf.sprintf "hour/light Pearson correlation: %.2f"
       (Acq_util.Stats.pearson hour_col light_col))

let fig2 _ =
  Report.section "fig2"
    "Conditional plan for temp/light with a time split (Figure 2)";
  let ds = Acq_data.Lab_gen.generate (Rng.create 1002) ~rows:20_000 in
  let train, test = split ds in
  let schema = Acq_data.Dataset.schema ds in
  (* temp > 20C AND light < 100 Lux, the paper's example; both cost
     100, so costs are reported in "acquisitions per tuple". *)
  let { Acq_sql.Catalog.query = q; _ } =
    Acq_sql.Catalog.compile schema "SELECT * WHERE temp > 20 AND light < 100"
  in
  let costs = costs_of q in
  let o = P.default_options in
  let naive = (P.plan ~options:o P.Naive q ~train).P.plan in
  let cond =
    (P.plan
       ~options:
         {
           o with
           max_splits = 1;
           candidate_attrs = Some [ Acq_data.Lab_gen.idx_hour ];
         }
       P.Heuristic q ~train)
      .P.plan
  in
  let acq plan =
    Acq_exec.Runner.average_cost q ~costs plan test /. 100.0
  in
  let t = Tbl.create [ "plan"; "expected expensive acquisitions / tuple" ] in
  Tbl.add_row t [ "sequential (Naive)"; Printf.sprintf "%.2f" (acq naive) ];
  Tbl.add_row t
    [ "conditional on hour"; Printf.sprintf "%.2f" (acq cond) ];
  Report.table t;
  Report.note "Generated conditional plan:";
  print_string (Acq_plan.Printer.to_string q cond);
  Report.note
    "Paper shape: 1.5 acquisitions for either fixed order vs ~1.1 when \
     conditioning on the time of day."

let fig3 _s =
  Report.section "fig3"
    "Exhaustive enumeration over three binary attributes (Figure 3)";
  (* Correlated binary data: X3 is cheap and predicts both query
     attributes (X1 agrees with X3, X2 disagrees, 80% of the time). *)
  let schema =
    Acq_data.Schema.create
      [
        Acq_data.Attribute.discrete ~name:"x1" ~cost:10.0 ~domain:2;
        Acq_data.Attribute.discrete ~name:"x2" ~cost:10.0 ~domain:2;
        Acq_data.Attribute.discrete ~name:"x3" ~cost:1.0 ~domain:2;
      ]
  in
  let rng = Rng.create 1003 in
  let rows =
    Array.init 4000 (fun _ ->
        let x3 = if Rng.bool rng then 1 else 0 in
        let x1 = if Rng.bernoulli rng 0.8 then x3 else 1 - x3 in
        let x2 = if Rng.bernoulli rng 0.8 then 1 - x3 else x3 in
        [| x1; x2; x3 |])
  in
  let ds = Acq_data.Dataset.create schema rows in
  let q =
    Acq_plan.Query.create schema
      [
        Acq_plan.Predicate.inside ~attr:0 ~lo:1 ~hi:1;
        Acq_plan.Predicate.inside ~attr:1 ~lo:1 ~hi:1;
      ]
  in
  let costs = costs_of q in
  let est = Acq_prob.Backend.empirical ds in
  let plans = Acq_core.Enumerate.all_plans q ~costs est in
  Report.note
    (Printf.sprintf "complete plans over 3 attributes: %d (paper: 12)"
       (List.length plans));
  let t = Tbl.create [ "#"; "root"; "expected cost"; "tests" ] in
  let best = ref infinity in
  List.iter (fun (_, c) -> if c < !best then best := c) plans;
  List.iteri
    (fun i (p, c) ->
      let root =
        match p with
        | Acq_plan.Plan.Test { attr; _ } ->
            (Acq_data.Schema.attr schema attr).Acq_data.Attribute.name
        | Acq_plan.Plan.Leaf _ -> "leaf"
      in
      Tbl.add_row t
        [
          string_of_int (i + 1);
          root;
          Printf.sprintf "%.3f%s" c
            (if Acq_util.Array_util.float_equal ~eps:1e-9 c !best then " *"
             else "");
          string_of_int (Acq_plan.Plan.n_tests p);
        ])
    plans;
  Report.table t;
  let _, exh_cost =
    Acq_core.Exhaustive.plan q ~costs
      ~grid:
        (Acq_core.Spsf.full ~domains:(Acq_data.Schema.domains schema))
      est
  in
  Report.note
    (Printf.sprintf
       "exhaustive planner cost %.3f vs enumeration optimum %.3f (must \
        match); observing cheap x3 first is optimal: %b"
       exh_cost !best
       (exh_cost <= !best +. 1e-9))

(* ------------------------------------------------------------------ *)
(* Figure 8 experiments: coarsened lab data so Exhaustive fits. *)

let lab_fig8_setup s =
  let ds = lab_data_coarse s in
  let train, test = split ds in
  let qrng = Rng.create 1008 in
  let n_queries = pick s ~quick:20 ~full:95 in
  let queries =
    List.init n_queries (fun _ -> Query_gen.lab_query qrng ~train)
  in
  (train, test, queries)

let fig8a s =
  Report.section "fig8a"
    "Quality of plans: Exhaustive vs Naive vs Heuristic-k (Figure 8a)";
  let train, test, queries = lab_fig8_setup s in
  let o = { P.default_options with split_points_per_attr = 2 } in
  let grid_spsf =
    (* All algorithms share this restricted grid, as in the paper's
       SPSF-matched comparison. *)
    Acq_core.Spsf.spsf
      (Acq_core.Spsf.equal_width
         ~domains:(Acq_data.Schema.domains (Acq_data.Dataset.schema train))
         ~points_per_attr:2)
  in
  Report.note
    (Printf.sprintf "domains coarsened to %s; shared SPSF ~ %.0f"
       (String.concat ","
          (Array.to_list
             (Array.map string_of_int
                (Acq_data.Schema.domains (Acq_data.Dataset.schema train)))))
       grid_spsf);
  let specs =
    [
      spec_of_algo "Naive" P.Naive o train;
      spec_of_algo "CorrSeq" P.Corr_seq o train;
      spec_of_algo "Heuristic-1" P.Heuristic { o with max_splits = 1 } train;
      spec_of_algo "Heuristic-5" P.Heuristic { o with max_splits = 5 } train;
      spec_of_algo "Heuristic-10" P.Heuristic { o with max_splits = 10 } train;
      spec_of_algo "Exhaustive" P.Exhaustive
        { o with exhaustive_budget = 5_000_000 }
        train;
    ]
  in
  let runs = Experiment.run ~specs ~queries ~train ~test () in
  let exh = 5 in
  let t =
    Tbl.create
      [ "algorithm"; "avg test cost"; "avg cost / Exhaustive"; "worst ratio" ]
  in
  List.iteri
    (fun i spec ->
      let ratios =
        Array.of_list
          (List.map
             (fun r ->
               if r.Experiment.test_costs.(exh) <= 0.0 then 1.0
               else r.Experiment.test_costs.(i) /. r.Experiment.test_costs.(exh))
             runs)
      in
      Tbl.add_row t
        [
          spec.Experiment.name;
          Printf.sprintf "%.1f" (Experiment.mean_cost runs i);
          Printf.sprintf "%.3f" (Acq_util.Stats.mean ratios);
          Printf.sprintf "%.3f" (snd (Acq_util.Stats.min_max ratios));
        ])
    specs;
  Report.table t;
  Report.note
    (Printf.sprintf "all plans executed correctly on test data: %b"
       (Experiment.all_consistent runs));
  Report.note "planner search effort, totals over the whole workload:";
  Report.stats_table
    (List.mapi
       (fun i spec -> (spec.Experiment.name, Experiment.total_stats runs i))
       specs);
  Report.note
    "Paper shape: every algorithm beats Naive; Heuristic-10 within a few \
     percent of Exhaustive on average and in the worst case."

let fig8b s =
  Report.section "fig8b"
    "Exhaustive at small SPSF vs Heuristic-5 at large SPSF (Figure 8b)";
  let ds = lab_data_coarse s in
  let train, test = split ds in
  let qrng = Rng.create 10082 in
  let queries =
    List.init (pick s ~quick:10 ~full:30) (fun _ ->
        Query_gen.lab_query qrng ~train)
  in
  let o = P.default_options in
  let heuristic_opts = { o with split_points_per_attr = 8; max_splits = 5 } in
  let domains = Acq_data.Schema.domains (Acq_data.Dataset.schema train) in
  let rs = pick s ~quick:[ 1; 2 ] ~full:[ 1; 2; 3 ] in
  let specs =
    spec_of_algo "Heuristic-5 (SPSF large)" P.Heuristic heuristic_opts train
    :: List.map
         (fun r ->
           spec_of_algo
             (Printf.sprintf "Exhaustive r=%d (SPSF %.0f)" r
                (Acq_core.Spsf.spsf
                   (Acq_core.Spsf.equal_width ~domains ~points_per_attr:r)))
             P.Exhaustive
             { o with split_points_per_attr = r; exhaustive_budget = 8_000_000 }
             train)
         rs
  in
  let runs = Experiment.run ~specs ~queries ~train ~test () in
  let t = Tbl.create [ "algorithm"; "avg test cost"; "avg vs Heuristic"; "max vs Heuristic" ] in
  List.iteri
    (fun i spec ->
      let ratios =
        Array.of_list
          (List.map
             (fun r ->
               r.Experiment.test_costs.(i) /. r.Experiment.test_costs.(0))
             runs)
      in
      Tbl.add_row t
        [
          spec.Experiment.name;
          Printf.sprintf "%.1f" (Experiment.mean_cost runs i);
          Printf.sprintf "%.3f" (Acq_util.Stats.mean ratios);
          Printf.sprintf "%.3f" (snd (Acq_util.Stats.min_max ratios));
        ])
    specs;
  Report.table t;
  Report.note
    "Paper shape: Exhaustive degrades below Heuristic once its split-point \
     grid is constrained enough to obscure the correlations."

let fig8c s =
  Report.section "fig8c"
    "Cumulative frequency of performance gain, lab data (Figure 8c)";
  let ds = lab_data s in
  let train, test = split ds in
  let qrng = Rng.create 1009 in
  let queries =
    List.init (pick s ~quick:30 ~full:95) (fun _ ->
        Query_gen.lab_query qrng ~train)
  in
  let o = P.default_options in
  let specs =
    [
      spec_of_algo "Naive" P.Naive o train;
      spec_of_algo "Heuristic-10" P.Heuristic { o with max_splits = 10 } train;
    ]
  in
  let runs = Experiment.run ~specs ~queries ~train ~test () in
  let g = Experiment.gains runs ~baseline:0 ~target:1 in
  Report.cumulative_gain_curve ~label:"gain vs Naive" g;
  Report.gain_summary ~label:"Heuristic-10 vs Naive" (Experiment.summarize g);
  Report.note
    "Paper shape: a large fraction of queries gain noticeably, with a long \
     tail of several-times improvements and negligible worst-case \
     regressions."

let fig9 _ =
  Report.section "fig9"
    "Detailed plan study: bright, cool and dry lab query (Figure 9)";
  let ds = Acq_data.Lab_gen.generate (Rng.create 1010) ~rows:30_000 in
  let train, test = split ds in
  let schema = Acq_data.Dataset.schema ds in
  let { Acq_sql.Catalog.query = q; _ } =
    Acq_sql.Catalog.compile schema
      "SELECT * WHERE light >= 300 AND temp <= 19 AND humidity <= 45"
  in
  let costs = costs_of q in
  let o = { P.default_options with max_splits = 8 } in
  let naive = (P.plan ~options:o P.Naive q ~train).P.plan in
  let cond = (P.plan ~options:o P.Heuristic q ~train).P.plan in
  Report.note ("query: " ^ Acq_plan.Query.describe q);
  print_string (Acq_plan.Printer.to_string q cond);
  Report.note (Acq_plan.Printer.summary q cond);
  let cn = Acq_exec.Runner.average_cost q ~costs naive test in
  let cc = Acq_exec.Runner.average_cost q ~costs cond test in
  Report.note
    (Printf.sprintf "test cost: Naive %.1f, conditional %.1f (gain %.0f%%)"
       cn cc
       (100.0 *. ((cn /. cc) -. 1.0)));
  Report.note
    "Paper shape: ~20% gain over Naive; plan conditions on hour first, \
     introduces nodeid splits in the afternoon, samples humidity first \
     late at night."

(* ------------------------------------------------------------------ *)

let garden_fig name s ~n_motes ~seed =
  let rows = pick s ~quick:8_000 ~full:20_000 in
  let ds = Acq_data.Garden_gen.generate (Rng.create seed) ~n_motes ~rows in
  let train, test = split ds in
  let schema = Acq_data.Dataset.schema ds in
  let qrng = Rng.create (seed + 1) in
  let queries =
    List.init (pick s ~quick:24 ~full:90) (fun _ ->
        Query_gen.garden_query qrng ~schema ~n_motes)
  in
  let cheap = Acq_data.Schema.cheap_indices schema in
  let o =
    {
      P.default_options with
      split_points_per_attr = 4;
      candidate_attrs = Some cheap;
    }
  in
  let specs =
    [
      spec_of_algo "Naive" P.Naive o train;
      spec_of_algo "CorrSeq" P.Corr_seq o train;
      spec_of_algo "Heuristic-10" P.Heuristic { o with max_splits = 10 } train;
    ]
  in
  let runs = Experiment.run ~specs ~queries ~train ~test () in
  let t = Tbl.create [ "algorithm"; "avg test cost" ] in
  List.iteri
    (fun i spec ->
      Tbl.add_row t
        [ spec.Experiment.name; Printf.sprintf "%.1f" (Experiment.mean_cost runs i) ])
    specs;
  Report.table t;
  let g_naive = Experiment.gains runs ~baseline:0 ~target:2 in
  let g_seq = Experiment.gains runs ~baseline:1 ~target:2 in
  Report.cumulative_gain_curve ~label:(name ^ " gain vs Naive") g_naive;
  Report.gain_summary ~label:"Heuristic vs Naive" (Experiment.summarize g_naive);
  Report.cumulative_gain_curve ~label:(name ^ " gain vs CorrSeq") g_seq;
  Report.gain_summary ~label:"Heuristic vs CorrSeq" (Experiment.summarize g_seq);
  Report.note
    (Printf.sprintf "all plans executed correctly on test data: %b"
       (Experiment.all_consistent runs))

let fig10 s =
  Report.section "fig10" "Garden-5: 10-predicate queries (Figure 10)";
  garden_fig "Garden-5" s ~n_motes:5 ~seed:2005;
  Report.note
    "Paper shape: Heuristic significantly better than Naive and CorrSeq on \
     a large fraction of queries; occasional regressions stay within ~10%."

let fig11 s =
  Report.section "fig11" "Garden-11: 22-predicate queries (Figure 11)";
  garden_fig "Garden-11" s ~n_motes:11 ~seed:2011;
  Report.note
    "Paper shape: gains grow with the wider schema — up to ~4x over Naive \
     for some queries."

let fig12 s =
  Report.section "fig12"
    "Synthetic data: cost vs selectivity, four settings (Figure 12)";
  let sels =
    pick s ~quick:[ 0.3; 0.5; 0.7; 0.9 ]
      ~full:[ 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ]
  in
  let rows = pick s ~quick:8_000 ~full:20_000 in
  List.iter
    (fun (gamma, n) ->
      let t =
        Tbl.create
          [
            Printf.sprintf "sel (gamma=%d n=%d)" gamma n;
            "Naive";
            "CorrSeq";
            "Heuristic-5";
            "Heuristic-10";
          ]
      in
      List.iter
        (fun sel ->
          let params = { Acq_data.Synthetic_gen.n; gamma; sel } in
          let ds =
            Acq_data.Synthetic_gen.generate (Rng.create 2012) params ~rows
          in
          let train, test = split ds in
          let schema = Acq_data.Dataset.schema ds in
          let q = Query_gen.synthetic_query params ~schema in
          let cheap = Acq_data.Schema.cheap_indices schema in
          let o =
            { P.default_options with candidate_attrs = Some cheap }
          in
          let costs = costs_of q in
          let cost algo opts =
            let plan = (P.plan ~options:opts algo q ~train).P.plan in
            Acq_exec.Runner.average_cost q ~costs plan test
          in
          Tbl.add_row t
            [
              Printf.sprintf "%.1f" sel;
              Printf.sprintf "%.1f" (cost P.Naive o);
              Printf.sprintf "%.1f" (cost P.Corr_seq o);
              Printf.sprintf "%.1f" (cost P.Heuristic { o with max_splits = 5 });
              Printf.sprintf "%.1f" (cost P.Heuristic { o with max_splits = 10 });
            ])
        sels;
      Report.table t)
    [ (1, 10); (3, 10); (1, 40); (3, 40) ];
  Report.note
    "Paper shape: conditional plans beat Naive and CorrSeq throughout \
     (often >2x); Naive and CorrSeq overlap when gamma=1; Heuristic-5 and \
     Heuristic-10 nearly coincide at n=10 and separate at n=40."
