(* Property-based tests (QCheck, registered as alcotest cases).

   These enforce the cross-module invariants from DESIGN.md:
   1. every planner-produced plan computes exactly the WHERE clause;
   2. analytic expected cost (Eq. 3) = empirical mean traversal cost
      (Eq. 4) on the training data;
   3. optimizer dominance: Exhaustive <= Heuristic-k <= CorrSeq (on
      the shared grid, on training data), OptSeq <= GreedySeq;
   4. serialization round-trips and ζ(P) is the encoded length;
   plus algebraic properties of the lower layers. *)

module Rng = Acq_util.Rng
module DS = Acq_data.Dataset
module S = Acq_data.Schema
module A = Acq_data.Attribute
module R = Acq_plan.Range
module Pred = Acq_plan.Predicate
module Q = Acq_plan.Query
module Plan = Acq_plan.Plan
module Ex = Acq_plan.Executor
module Ser = Acq_plan.Serialize
module B = Acq_prob.Backend
module P = Acq_core.Planner

(* ------------------------------------------------------------------ *)
(* Generators for random planning instances. *)

(* A random instance: 3-5 attributes with domains 2-6, mixed costs,
   correlated columns (a latent regime drives every attribute), and a
   random conjunctive query of 1-3 predicates over distinct attrs. *)
type instance = {
  seed : int;
  n_attrs : int;
  domains : int array;
  costs : float array;
  n_preds : int;
}

let instance_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* n_attrs = int_range 3 5 in
    let* domains = array_repeat n_attrs (int_range 2 6) in
    let* costs =
      array_repeat n_attrs (oneofl [ 1.0; 5.0; 20.0; 100.0 ])
    in
    let* n_preds = int_range 1 (min 3 n_attrs) in
    return { seed; n_attrs; domains; costs; n_preds })

let instance_print i =
  Printf.sprintf "{seed=%d; domains=[%s]; costs=[%s]; preds=%d}" i.seed
    (String.concat ";" (Array.to_list (Array.map string_of_int i.domains)))
    (String.concat ";"
       (Array.to_list (Array.map (Printf.sprintf "%g") i.costs)))
    i.n_preds

let build_instance i =
  let schema =
    S.create
      (List.init i.n_attrs (fun k ->
           A.discrete
             ~name:(Printf.sprintf "a%d" k)
             ~cost:i.costs.(k) ~domain:i.domains.(k)))
  in
  let rng = Rng.create i.seed in
  let rows =
    Array.init 600 (fun _ ->
        let regime = Rng.float rng 1.0 in
        Array.init i.n_attrs (fun k ->
            if Rng.bernoulli rng 0.75 then
              (* regime-driven value *)
              min (i.domains.(k) - 1)
                (int_of_float (regime *. float_of_int i.domains.(k)))
            else Rng.int rng i.domains.(k)))
  in
  let ds = DS.create schema rows in
  (* Random predicates over distinct attributes. *)
  let attrs = Rng.sample_without_replacement rng i.n_preds i.n_attrs in
  let preds =
    Array.to_list
      (Array.map
         (fun attr ->
           let k = i.domains.(attr) in
           let lo = Rng.int rng k in
           let hi = lo + Rng.int rng (k - lo) in
           if Rng.bernoulli rng 0.25 && not (lo = 0 && hi = k - 1) then
             Pred.outside ~attr ~lo ~hi
           else Pred.inside ~attr ~lo ~hi)
         attrs)
  in
  (ds, Q.create schema preds)

let options = { P.default_options with split_points_per_attr = 3 }

let plan_cost algo ds q =
  let r = P.plan ~options algo q ~train:ds in
  (r.P.plan, r.P.est_cost)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_planners_consistent =
  QCheck2.Test.make ~count:60 ~name:"planner plans compute the WHERE clause"
    ~print:instance_print instance_gen (fun i ->
      let ds, q = build_instance i in
      let costs = S.costs (DS.schema ds) in
      List.for_all
        (fun algo ->
          let plan, _ = plan_cost algo ds q in
          Ex.consistent q ~costs plan ds)
        [ P.Naive; P.Corr_seq; P.Heuristic; P.Exhaustive ])

let prop_eq3_eq4 =
  QCheck2.Test.make ~count:60 ~name:"Eq3 (analytic) = Eq4 (empirical) on train"
    ~print:instance_print instance_gen (fun i ->
      let ds, q = build_instance i in
      let costs = S.costs (DS.schema ds) in
      let est = B.empirical ds in
      List.for_all
        (fun algo ->
          let plan, _ = plan_cost algo ds q in
          let analytic = Acq_core.Expected_cost.of_plan q ~costs est plan in
          let empirical = Ex.average_cost q ~costs plan ds in
          Float.abs (analytic -. empirical) < 1e-6)
        [ P.Naive; P.Corr_seq; P.Heuristic; P.Exhaustive ])

let prop_dominance =
  QCheck2.Test.make ~count:50
    ~name:"exhaustive <= heuristic <= corrseq <= naive-or-equal (train)"
    ~print:instance_print instance_gen (fun i ->
      let ds, q = build_instance i in
      let _, naive = plan_cost P.Naive ds q in
      let _, seq = plan_cost P.Corr_seq ds q in
      let _, heur = plan_cost P.Heuristic ds q in
      let _, exh = plan_cost P.Exhaustive ds q in
      exh <= heur +. 1e-6 && heur <= seq +. 1e-6 && seq <= naive +. 1e-6)

let prop_heuristic_monotone =
  QCheck2.Test.make ~count:40 ~name:"heuristic cost non-increasing in max_splits"
    ~print:instance_print instance_gen (fun i ->
      let ds, q = build_instance i in
      let cost k =
        (P.plan ~options:{ options with max_splits = k } P.Heuristic q ~train:ds)
          .P.est_cost
      in
      let c0 = cost 0 and c2 = cost 2 and c6 = cost 6 in
      c0 +. 1e-9 >= c2 && c2 +. 1e-9 >= c6)

let prop_optseq_beats_greedy =
  QCheck2.Test.make ~count:60 ~name:"optseq <= greedyseq"
    ~print:instance_print instance_gen (fun i ->
      let ds, q = build_instance i in
      let costs = S.costs (DS.schema ds) in
      let est = B.empirical ds in
      let _, o = Acq_core.Optseq.order q ~costs est in
      let _, g = Acq_core.Greedyseq.order q ~costs est in
      o <= g +. 1e-9)

let prop_seq_orders_complete =
  QCheck2.Test.make ~count:60 ~name:"sequential orders contain every predicate"
    ~print:instance_print instance_gen (fun i ->
      let ds, q = build_instance i in
      let costs = S.costs (DS.schema ds) in
      let est = B.empirical ds in
      let all = List.init (Q.n_predicates q) (fun j -> j) in
      let check order = List.sort compare order = all in
      check (fst (Acq_core.Optseq.order q ~costs est))
      && check (fst (Acq_core.Greedyseq.order q ~costs est))
      && check (Acq_core.Naive.order q ~costs est))

let prop_serialize_roundtrip_planner =
  QCheck2.Test.make ~count:60 ~name:"serialize roundtrip (planner output)"
    ~print:instance_print instance_gen (fun i ->
      let ds, q = build_instance i in
      List.for_all
        (fun algo ->
          let plan, _ = plan_cost algo ds q in
          Plan.equal plan (Ser.decode (Ser.encode plan))
          && Ser.size plan = Bytes.length (Ser.encode plan))
        [ P.Heuristic; P.Exhaustive ])

(* Random plan trees (not necessarily semantically correct plans) for
   serialization robustness. *)
let random_tree_gen =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then
          oneof
            [
              return (Plan.const true);
              return (Plan.const false);
              map (fun ids -> Plan.Leaf (Plan.Seq (Array.of_list ids)))
                (list_size (int_range 0 4) (int_range 0 30));
            ]
        else
          let* attr = int_range 0 50 in
          let* threshold = int_range 0 1000 in
          let* low = self (n / 2) in
          let* high = self (n / 2) in
          return (Plan.Test { attr; threshold; low; high })))

let prop_serialize_roundtrip_random =
  QCheck2.Test.make ~count:200 ~name:"serialize roundtrip (random trees)"
    random_tree_gen (fun p ->
      Plan.equal p (Ser.decode (Ser.encode p)))

(* Range algebra. *)
let range_gen =
  QCheck2.Gen.(
    let* lo = int_range 0 20 in
    let* w = int_range 0 20 in
    return (R.make lo (lo + w)))

let prop_range_split_partitions =
  QCheck2.Gen.(
    let* r = range_gen in
    if R.width r < 2 then return None
    else
      let* x = int_range (r.R.lo + 1) r.R.hi in
      return (Some (r, x)))
  |> fun gen ->
  QCheck2.Test.make ~count:300 ~name:"range split partitions" gen (function
    | None -> true
    | Some (r, x) ->
        let lo, hi = R.split r x in
        R.width lo + R.width hi = R.width r
        && (not (R.intersects lo hi))
        && R.subset lo r && R.subset hi r)

let prop_predicate_truth_sound =
  QCheck2.Gen.(
    let* k = int_range 2 12 in
    let* lo = int_range 0 (k - 1) in
    let* hi = int_range lo (k - 1) in
    let* neg = bool in
    let* rlo = int_range 0 (k - 1) in
    let* rhi = int_range rlo (k - 1) in
    return (k, lo, hi, neg, R.make rlo rhi))
  |> fun gen ->
  QCheck2.Test.make ~count:500 ~name:"truth_under sound for every range value"
    gen (fun (_k, lo, hi, neg, r) ->
      let p =
        if neg then Pred.outside ~attr:0 ~lo ~hi else Pred.inside ~attr:0 ~lo ~hi
      in
      let vals = List.init (R.width r) (fun i -> r.R.lo + i) in
      match Pred.truth_under p r with
      | Pred.True -> List.for_all (Pred.eval p) vals
      | Pred.False -> List.for_all (fun v -> not (Pred.eval p v)) vals
      | Pred.Unknown ->
          List.exists (Pred.eval p) vals
          && List.exists (fun v -> not (Pred.eval p v)) vals)

(* Histogram prefix sums, including ranges that reach past either end
   of the domain: only the in-domain part counts. *)
let prop_histogram_ranges =
  QCheck2.Gen.(list_size (int_range 2 12) (int_range 0 50)) |> fun gen ->
  QCheck2.Test.make ~count:300 ~name:"histogram range = sum of value probs" gen
    (fun counts ->
      let counts = Array.of_list counts in
      let h = Acq_prob.Histogram.of_counts counts in
      let k = Array.length counts in
      let total = Acq_util.Array_util.sum_int counts in
      let ok = ref true in
      for lo = -2 to k + 1 do
        for hi = lo to k + 2 do
          let r = R.make lo hi in
          let c = ref 0 in
          for v = max 0 lo to min (k - 1) hi do
            c := !c + counts.(v)
          done;
          let direct =
            if total = 0 then 0.0 else float_of_int !c /. float_of_int total
          in
          if
            Acq_prob.Histogram.count_range h r <> !c
            || Float.abs (Acq_prob.Histogram.prob_range h r -. direct) > 1e-9
          then ok := false
        done
      done;
      !ok)

(* Stats sanity. *)
let prop_percentile_bounds =
  QCheck2.Gen.(
    pair
      (list_size (int_range 1 40) (float_range (-100.) 100.))
      (float_range 0.0 100.0))
  |> fun gen ->
  QCheck2.Test.make ~count:300 ~name:"percentile within min/max" gen
    (fun (xs, p) ->
      let a = Array.of_list xs in
      let v = Acq_util.Stats.percentile a p in
      let lo, hi = Acq_util.Stats.min_max a in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let prop_rng_sample_distinct =
  QCheck2.Gen.(
    let* seed = int_range 0 100000 in
    let* n = int_range 1 50 in
    let* k = int_range 0 n in
    return (seed, k, n))
  |> fun gen ->
  QCheck2.Test.make ~count:300 ~name:"sample_without_replacement distinct" gen
    (fun (seed, k, n) ->
      let s = Rng.sample_without_replacement (Rng.create seed) k n in
      Array.length s = k
      && List.length (List.sort_uniq compare (Array.to_list s)) = k
      && Array.for_all (fun v -> v >= 0 && v < n) s)

let prop_csv_roundtrip =
  QCheck2.Gen.(
    list_size (int_range 1 6)
      (list_size (int_range 1 5) (string_size ~gen:printable (int_range 0 12))))
  |> fun gen ->
  QCheck2.Test.make ~count:300 ~name:"csv roundtrip arbitrary strings" gen
    (fun rows ->
      Acq_util.Csv.parse_string (Acq_util.Csv.to_string rows) = rows)

let prop_pattern_probs_normalized =
  QCheck2.Test.make ~count:60 ~name:"pattern probabilities sum to 1"
    ~print:instance_print instance_gen (fun i ->
      let ds, q = build_instance i in
      let est = B.empirical ds in
      let probs = B.pattern_probs est (Q.predicates q) in
      Float.abs (Acq_util.Array_util.sum_float probs -. 1.0) < 1e-9)

let prop_exhaustive_cost_realized =
  QCheck2.Test.make ~count:30 ~name:"exhaustive reported cost = train cost"
    ~print:instance_print instance_gen (fun i ->
      let ds, q = build_instance i in
      let costs = S.costs (DS.schema ds) in
      let plan, cost = plan_cost P.Exhaustive ds q in
      Float.abs (cost -. Ex.average_cost q ~costs plan ds) < 1e-6)

let prop_plan_size_bounded =
  QCheck2.Test.make ~count:40
    ~name:"heuristic split count bounded by max_splits"
    ~print:instance_print instance_gen (fun i ->
      let ds, q = build_instance i in
      List.for_all
        (fun k ->
          let plan =
            (P.plan ~options:{ options with max_splits = k } P.Heuristic q
               ~train:ds)
              .P.plan
          in
          Plan.n_tests plan <= k)
        [ 0; 1; 3 ])

(* Random board assignment over an instance's attributes. *)
let board_instance_gen =
  QCheck2.Gen.(
    let* i = instance_gen in
    let* n_boards = int_range 1 3 in
    let* board = array_repeat i.n_attrs (int_range 0 (n_boards - 1)) in
    let* wakeup = array_repeat n_boards (oneofl [ 0.0; 10.0; 50.0; 90.0 ]) in
    let* read = array_repeat i.n_attrs (oneofl [ 1.0; 5.0; 20.0 ]) in
    return (i, board, wakeup, read))

let prop_boards_eq3_eq4 =
  QCheck2.Test.make ~count:50
    ~name:"Eq3 = Eq4 under random board models"
    ~print:(fun (i, _, _, _) -> instance_print i)
    board_instance_gen
    (fun (i, board, wakeup, read) ->
      let ds, q = build_instance i in
      let costs = S.costs (DS.schema ds) in
      let model = Acq_plan.Cost_model.boards ~board ~wakeup ~read in
      let est = B.empirical ds in
      let opts = { options with cost_model = Some model } in
      List.for_all
        (fun algo ->
          let r = P.plan ~options:opts algo q ~train:ds in
          let plan = r.P.plan and reported = r.P.est_cost in
          let analytic =
            Acq_core.Expected_cost.of_plan ~model q ~costs est plan
          in
          let empirical = Ex.average_cost ~model q ~costs plan ds in
          Ex.consistent q ~costs plan ds
          && Float.abs (analytic -. empirical) < 1e-6
          && Float.abs (reported -. empirical) < 1e-6)
        [ P.Corr_seq; P.Heuristic; P.Exhaustive ])

let prop_boards_dominance =
  QCheck2.Test.make ~count:40
    ~name:"exhaustive <= heuristic <= corrseq under board models"
    ~print:(fun (i, _, _, _) -> instance_print i)
    board_instance_gen
    (fun (i, board, wakeup, read) ->
      let ds, q = build_instance i in
      let model = Acq_plan.Cost_model.boards ~board ~wakeup ~read in
      let opts = { options with cost_model = Some model } in
      let cost algo = (P.plan ~options:opts algo q ~train:ds).P.est_cost in
      cost P.Exhaustive <= cost P.Heuristic +. 1e-6
      && cost P.Heuristic <= cost P.Corr_seq +. 1e-6)

let prop_sliding_window_histogram =
  QCheck2.Gen.(
    let* seed = int_range 0 100_000 in
    let* capacity = int_range 1 30 in
    let* pushes = int_range 0 80 in
    return (seed, capacity, pushes))
  |> fun gen ->
  QCheck2.Test.make ~count:200
    ~name:"sliding histograms match window contents" gen
    (fun (seed, capacity, pushes) ->
      let schema =
        S.create
          [ A.discrete ~name:"x" ~cost:1.0 ~domain:5;
            A.discrete ~name:"y" ~cost:1.0 ~domain:3 ]
      in
      let w = Acq_prob.Sliding.create schema ~capacity in
      let rng = Rng.create seed in
      let pushed = ref [] in
      for _ = 1 to pushes do
        let row = [| Rng.int rng 5; Rng.int rng 3 |] in
        pushed := row :: !pushed;
        Acq_prob.Sliding.push w row
      done;
      let expected_rows =
        let l = List.rev !pushed in
        let drop = max 0 (List.length l - capacity) in
        List.filteri (fun i _ -> i >= drop) l
      in
      let hist attr k =
        let h = Array.make k 0 in
        List.iter (fun r -> h.(r.(attr)) <- h.(r.(attr)) + 1) expected_rows;
        h
      in
      Acq_prob.Sliding.size w = List.length expected_rows
      && Acq_prob.Sliding.histogram w 0 = hist 0 5
      && Acq_prob.Sliding.histogram w 1 = hist 1 3)

let prop_board_awareness_never_hurts =
  QCheck2.Test.make ~count:40
    ~name:"board-aware optseq <= blind optseq (measured under model)"
    ~print:(fun (i, _, _, _) -> instance_print i)
    board_instance_gen
    (fun (i, board, wakeup, read) ->
      let ds, q = build_instance i in
      let costs = S.costs (DS.schema ds) in
      let model = Acq_plan.Cost_model.boards ~board ~wakeup ~read in
      let est = B.empirical ds in
      let aware, _ = Acq_core.Optseq.order ~model q ~costs est in
      let blind, _ = Acq_core.Optseq.order q ~costs est in
      let measure order =
        Ex.average_cost ~model q ~costs (Plan.sequential order) ds
      in
      measure aware <= measure blind +. 1e-6)

let prop_existential_consistent =
  QCheck2.Gen.(
    let* seed = int_range 0 100_000 in
    let* n_groups = int_range 1 3 in
    return (seed, n_groups))
  |> fun gen ->
  QCheck2.Test.make ~count:60 ~name:"existential planners always correct" gen
    (fun (seed, n_groups) ->
      let schema =
        S.create
          (List.init 5 (fun k ->
               A.discrete
                 ~name:(Printf.sprintf "e%d" k)
                 ~cost:(if k = 0 then 1.0 else 50.0)
                 ~domain:3))
      in
      let rng = Rng.create seed in
      let ds =
        DS.create schema
          (Array.init 400 (fun _ -> Array.init 5 (fun _ -> Rng.int rng 3)))
      in
      let group _ =
        let n_preds = 1 + Rng.int rng 2 in
        List.init n_preds (fun _ ->
            let attr = Rng.int rng 5 in
            let lo = Rng.int rng 3 in
            let hi = lo + Rng.int rng (3 - lo) in
            Pred.inside ~attr ~lo ~hi)
      in
      let q =
        Acq_core.Existential.query schema (List.init n_groups group)
      in
      let costs = S.costs schema in
      List.for_all
        (fun plan -> Acq_core.Existential.consistent q ~costs plan ds)
        [
          Acq_core.Existential.naive_plan q ~costs ds;
          Acq_core.Existential.greedy_seq_plan q ~costs ds;
          Acq_core.Existential.plan ~max_depth:2 q ~costs ds;
        ])

(* Brute-force executor oracle. On a dataset that enumerates a small
   discrete domain exhaustively — every possible tuple exactly once —
   the analytic expected cost (Eq. 3) of any planner's plan must equal
   a hand-rolled average of per-tuple [Executor.run_tuple] costs over
   the whole domain, with no estimator or sweep machinery between the
   two sides. Checked with and without a board cost model, for every
   planner, against the planner's own reported cost as well. *)
let brute_instance_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* n_attrs = int_range 2 4 in
    let* domains = array_repeat n_attrs (int_range 2 3) in
    let* costs = array_repeat n_attrs (oneofl [ 1.0; 5.0; 20.0; 100.0 ]) in
    let* n_preds = int_range 1 n_attrs in
    let* boards =
      oneof
        [
          return None;
          (let* n_boards = int_range 1 2 in
           let* board = array_repeat n_attrs (int_range 0 (n_boards - 1)) in
           let* wakeup = array_repeat n_boards (oneofl [ 0.0; 10.0; 50.0 ]) in
           let* read = array_repeat n_attrs (oneofl [ 1.0; 5.0; 20.0 ]) in
           return (Some (board, wakeup, read)));
        ]
    in
    return ({ seed; n_attrs; domains; costs; n_preds }, boards))

(* Every tuple of the discrete domain, exactly once, in row-major
   order. *)
let cross_product domains =
  let n = Array.length domains in
  let total = Array.fold_left ( * ) 1 domains in
  Array.init total (fun idx ->
      let row = Array.make n 0 in
      let r = ref idx in
      for k = n - 1 downto 0 do
        row.(k) <- !r mod domains.(k);
        r := !r / domains.(k)
      done;
      row)

let prop_brute_force_oracle =
  QCheck2.Test.make ~count:60
    ~name:"Eq3 = brute-force run_tuple average on an exhaustive domain"
    ~print:(fun (i, _) -> instance_print i)
    brute_instance_gen
    (fun (i, boards) ->
      let schema =
        S.create
          (List.init i.n_attrs (fun k ->
               A.discrete
                 ~name:(Printf.sprintf "a%d" k)
                 ~cost:i.costs.(k) ~domain:i.domains.(k)))
      in
      let rows = cross_product i.domains in
      let ds = DS.create schema rows in
      let rng = Rng.create i.seed in
      let attrs = Rng.sample_without_replacement rng i.n_preds i.n_attrs in
      let preds =
        Array.to_list
          (Array.map
             (fun attr ->
               let k = i.domains.(attr) in
               let lo = Rng.int rng k in
               let hi = lo + Rng.int rng (k - lo) in
               if Rng.bernoulli rng 0.25 && not (lo = 0 && hi = k - 1) then
                 Pred.outside ~attr ~lo ~hi
               else Pred.inside ~attr ~lo ~hi)
             attrs)
      in
      let q = Q.create schema preds in
      let costs = S.costs schema in
      let model =
        Option.map
          (fun (board, wakeup, read) ->
            Acq_plan.Cost_model.boards ~board ~wakeup ~read)
          boards
      in
      let est = B.empirical ds in
      let opts = { options with cost_model = model } in
      List.for_all
        (fun algo ->
          let r = P.plan ~options:opts algo q ~train:ds in
          let plan = r.P.plan in
          let brute =
            Array.fold_left
              (fun acc row ->
                acc +. (Ex.run_tuple ?model q ~costs plan row).Ex.cost)
              0.0 rows
            /. float_of_int (Array.length rows)
          in
          let analytic =
            Acq_core.Expected_cost.of_plan ?model q ~costs est plan
          in
          let swept = Ex.average_cost ?model q ~costs plan ds in
          Float.abs (analytic -. brute) < 1e-9
          && Float.abs (swept -. brute) < 1e-9
          && (algo = P.Naive || Float.abs (r.P.est_cost -. brute) < 1e-9))
        [ P.Naive; P.Corr_seq; P.Heuristic; P.Exhaustive ])

(* The chain the paper argues analytically, checked at the level of
   the individual planner modules (the facade-level chain is
   prop_dominance): the optimal conditional plan never costs more than
   the optimal sequential order, which never costs more than the
   correlation-blind ranking. *)
let prop_exhaustive_leq_optseq_leq_naive =
  QCheck2.Test.make ~count:50 ~name:"exhaustive <= optseq <= naive (modules)"
    ~print:instance_print instance_gen (fun i ->
      let ds, q = build_instance i in
      let schema = DS.schema ds in
      let costs = S.costs schema in
      let est = B.empirical ds in
      let grid =
        Acq_core.Spsf.for_query ~domains:(S.domains schema) ~points_per_attr:2
          q
      in
      let _, exh = Acq_core.Exhaustive.plan q ~costs ~grid est in
      let _, seq = Acq_core.Optseq.order q ~costs est in
      let naive_order = Acq_core.Naive.order q ~costs est in
      let naive = Acq_core.Expected_cost.of_order q ~costs est naive_order in
      exh <= seq +. 1e-6 && seq <= naive +. 1e-6)

(* Re-entrancy: back-to-back runs with fresh explicit contexts produce
   the same plan and burn exactly the same effort — no memo entries or
   counters survive from one call to the next. *)
let prop_exhaustive_reentrant =
  QCheck2.Test.make ~count:50
    ~name:"exhaustive re-entrant: fresh contexts, identical runs"
    ~print:instance_print instance_gen (fun i ->
      let ds, q = build_instance i in
      let schema = DS.schema ds in
      let costs = S.costs schema in
      let est = B.empirical ds in
      let grid =
        Acq_core.Spsf.for_query ~domains:(S.domains schema) ~points_per_attr:2
          q
      in
      let run () =
        let search = Acq_core.Search.create () in
        let p, c = Acq_core.Exhaustive.plan ~search q ~costs ~grid est in
        ( p,
          c,
          Acq_core.Search.nodes_solved search,
          Acq_core.Search.memo_hits search )
      in
      let p1, c1, solved1, hits1 = run () in
      let p2, c2, solved2, hits2 = run () in
      Plan.equal p1 p2
      && Float.abs (c1 -. c2) < 1e-9
      && solved1 = solved2 && hits1 = hits2 && solved1 > 0)

(* The plan cache normalizes queries: the signature sorts predicates,
   so two queries with the same predicate set in different order hit
   the same entry (the second lookup never re-plans). *)
let prop_cache_key_order_insensitive =
  QCheck2.Test.make ~count:60
    ~name:"plan cache: predicate order does not change the entry"
    ~print:instance_print instance_gen (fun i ->
      let ds, q = build_instance i in
      let schema = DS.schema ds in
      let rng = Rng.create (i.seed + 7) in
      let shuffled =
        let arr = Array.copy (Q.predicates q) in
        for j = Array.length arr - 1 downto 1 do
          let k = Rng.int rng (j + 1) in
          let t = arr.(j) in
          arr.(j) <- arr.(k);
          arr.(k) <- t
        done;
        Array.to_list arr
      in
      let q2 = Q.create schema shuffled in
      let module C = Acq_adapt.Plan_cache in
      let sig_of q =
        C.signature ~options ~stats_epoch:3 ~algorithm:P.Heuristic q
      in
      let cache = C.create ~capacity:4 () in
      let plans = ref 0 in
      let plan q () =
        incr plans;
        P.plan ~options P.Heuristic q ~train:ds
      in
      let r1 = C.find_or_plan cache (sig_of q) (plan q) in
      let r2 = C.find_or_plan cache (sig_of q2) (plan q2) in
      String.equal (sig_of q) (sig_of q2)
      && !plans = 1
      && Plan.equal r1.P.plan r2.P.plan
      && (C.stats cache).C.hits = 1)

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [
      ( "planner invariants",
        List.map to_alcotest
          [
            prop_planners_consistent;
            prop_eq3_eq4;
            prop_brute_force_oracle;
            prop_dominance;
            prop_heuristic_monotone;
            prop_optseq_beats_greedy;
            prop_seq_orders_complete;
            prop_exhaustive_cost_realized;
            prop_exhaustive_leq_optseq_leq_naive;
            prop_exhaustive_reentrant;
            prop_plan_size_bounded;
            prop_pattern_probs_normalized;
          ] );
      ( "plan language",
        List.map to_alcotest
          [
            prop_serialize_roundtrip_planner;
            prop_serialize_roundtrip_random;
            prop_range_split_partitions;
            prop_predicate_truth_sound;
          ] );
      ( "foundations",
        List.map to_alcotest
          [
            prop_histogram_ranges;
            prop_percentile_bounds;
            prop_rng_sample_distinct;
            prop_csv_roundtrip;
          ] );
      ( "extensions",
        List.map to_alcotest
          [
            prop_boards_eq3_eq4;
            prop_boards_dominance;
            prop_board_awareness_never_hurts;
            prop_sliding_window_histogram;
            prop_existential_consistent;
            prop_cache_key_order_insensitive;
          ] );
    ]
