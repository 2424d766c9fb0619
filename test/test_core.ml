(* Unit tests for Acq_core: every planning algorithm, the subproblem
   and split-grid machinery, and the analytic cost model. The key
   oracle tests check the optimizers against brute force on instances
   small enough to enumerate. *)

module Rng = Acq_util.Rng
module DS = Acq_data.Dataset
module S = Acq_data.Schema
module A = Acq_data.Attribute
module R = Acq_plan.Range
module Pred = Acq_plan.Predicate
module Q = Acq_plan.Query
module Plan = Acq_plan.Plan
module Ex = Acq_plan.Executor
module B = Acq_prob.Backend
module Sub = Acq_core.Subproblem
module Spsf = Acq_core.Spsf
module EC = Acq_core.Expected_cost
module P = Acq_core.Planner

let check_float = Alcotest.(check (float 1e-9))
let check_close = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Fixtures *)

let schema3 () =
  S.create
    [
      A.discrete ~name:"cheap" ~cost:1.0 ~domain:4;
      A.discrete ~name:"exp1" ~cost:100.0 ~domain:4;
      A.discrete ~name:"exp2" ~cost:100.0 ~domain:4;
    ]

(* Correlated data: cheap attribute reveals both expensive ones. *)
let correlated_dataset ?(rows = 4_000) () =
  let rng = Rng.create 10 in
  let schema = schema3 () in
  let data =
    Array.init rows (fun _ ->
        let regime = Rng.int rng 4 in
        let e1 =
          if Rng.bernoulli rng 0.85 then regime else Rng.int rng 4
        in
        let e2 =
          if Rng.bernoulli rng 0.85 then 3 - regime else Rng.int rng 4
        in
        [| regime; e1; e2 |])
  in
  DS.create schema data

let query3 schema =
  Q.create schema
    [ Pred.inside ~attr:1 ~lo:2 ~hi:3; Pred.inside ~attr:2 ~lo:2 ~hi:3 ]

(* Independent binary data with chosen pass rates for closed-form cost
   checks. *)
let binary_dataset probs rows =
  let rng = Rng.create 11 in
  let n = Array.length probs in
  let schema =
    S.create
      (List.init n (fun i ->
           A.discrete
             ~name:(Printf.sprintf "b%d" i)
             ~cost:(10.0 *. float_of_int (i + 1))
             ~domain:2))
  in
  let data =
    Array.init rows (fun _ ->
        Array.map (fun p -> if Rng.bernoulli rng p then 1 else 0) probs)
  in
  DS.create schema data

(* ------------------------------------------------------------------ *)
(* Subproblem *)

let test_subproblem_basics () =
  let schema = schema3 () in
  let domains = S.domains schema in
  let sp = Sub.initial schema in
  Alcotest.(check bool) "nothing acquired" false (Sub.acquired sp ~domains 0);
  check_float "full acquisition cost" 100.0
    (Sub.acquisition_cost sp ~domains ~costs:(S.costs schema) 1);
  let sp' = Sub.with_range sp 1 (R.make 0 1) in
  Alcotest.(check bool) "narrowed = acquired" true (Sub.acquired sp' ~domains 1);
  check_float "acquired is free" 0.0
    (Sub.acquisition_cost sp' ~domains ~costs:(S.costs schema) 1);
  Alcotest.(check bool) "original untouched" false (Sub.acquired sp ~domains 1)

let test_subproblem_key_injective () =
  let schema = schema3 () in
  let sp = Sub.initial schema in
  let a = Sub.with_range sp 0 (R.make 0 1) in
  let b = Sub.with_range sp 0 (R.make 0 2) in
  Alcotest.(check bool) "distinct keys" true (Sub.key a <> Sub.key b);
  Alcotest.(check string) "stable key" (Sub.key a) (Sub.key a)

(* The binary memo key is injective: range vectors of arity 1-12 over
   domains of 2 to 2^20 values. The second vector is a copy of the
   first, the first with one range redrawn or one endpoint moved by a
   power of two (a key that dropped high bits would collide there), or
   fresh, so equal pairs and near misses both occur. *)
let key_pair_gen =
  QCheck2.Gen.(
    let* n = int_range 1 12 in
    let* domains = array_repeat n (int_range 2 (1 lsl 20)) in
    let range d =
      let* lo = int_range 0 (d - 1) in
      let* hi = int_range lo (d - 1) in
      return (R.make lo hi)
    in
    let vector = flatten_a (Array.map range domains) in
    let* a = vector in
    let* b =
      frequency
        [
          (1, return (Array.copy a));
          ( 2,
            let* i = int_range 0 (n - 1) in
            let* r = range domains.(i) in
            let b = Array.copy a in
            b.(i) <- r;
            return b );
          ( 2,
            let* i = int_range 0 (n - 1) in
            let* k = int_range 0 19 in
            let* move_lo = bool in
            let* up = bool in
            let step = if up then 1 lsl k else -(1 lsl k) in
            let r = a.(i) in
            let lo, hi = if move_lo then (r.lo + step, r.hi) else (r.lo, r.hi + step) in
            let b = Array.copy a in
            if 0 <= lo && lo <= hi && hi < domains.(i) then b.(i) <- R.make lo hi;
            return b );
          (1, vector);
        ]
    in
    return (a, b))

let print_ranges v =
  String.concat ";"
    (Array.to_list (Array.map (fun (r : R.t) -> Printf.sprintf "%d..%d" r.lo r.hi) v))

let prop_key_injective =
  QCheck2.Test.make ~count:2000 ~name:"key injective on random vectors"
    ~print:(fun (a, b) -> Printf.sprintf "[%s] vs [%s]" (print_ranges a) (print_ranges b))
    key_pair_gen
    (fun (a, b) -> Array.for_all2 R.equal a b = String.equal (Sub.key a) (Sub.key b))

let test_subproblem_query_acquired () =
  let schema = schema3 () in
  let domains = S.domains schema in
  let attrs = Array.of_list (Q.attrs (query3 schema)) in
  let sp = Sub.initial schema in
  Alcotest.(check bool) "not acquired initially" false
    (Sub.all_acquired sp ~domains attrs);
  let sp = Sub.with_range sp 1 (R.make 2 3) in
  let sp = Sub.with_range sp 2 (R.make 0 1) in
  Alcotest.(check bool) "both query attrs acquired" true
    (Sub.all_acquired sp ~domains attrs);
  (* Cheap attr 0 irrelevant. *)
  Alcotest.(check bool) "ignores non-query attrs" true
    (Sub.all_acquired sp ~domains attrs)

(* ------------------------------------------------------------------ *)
(* Spsf *)

let test_spsf_equal_width () =
  let g = Spsf.equal_width ~domains:[| 8; 2 |] ~points_per_attr:3 in
  Alcotest.(check (array int)) "8-domain points" [| 2; 4; 6 |] (Spsf.points g 0);
  Alcotest.(check (array int)) "binary domain" [| 1 |] (Spsf.points g 1);
  check_float "spsf product" 3.0 (Spsf.spsf g)

let test_spsf_full () =
  let g = Spsf.full ~domains:[| 5 |] in
  Alcotest.(check (array int)) "all thresholds" [| 1; 2; 3; 4 |] (Spsf.points g 0)

let test_spsf_candidates_in_range () =
  let g = Spsf.equal_width ~domains:[| 16 |] ~points_per_attr:7 in
  let c = Spsf.candidates g 0 (R.make 4 9) in
  List.iter
    (fun x -> Alcotest.(check bool) "within (lo, hi]" true (x > 4 && x <= 9))
    c;
  Alcotest.(check bool) "nonempty" true (c <> []);
  Alcotest.(check (list int)) "none in singleton" []
    (Spsf.candidates g 0 (R.make 4 4))

let test_spsf_for_query_has_boundaries () =
  let schema = schema3 () in
  let q = query3 schema in
  let g = Spsf.for_query ~domains:(S.domains schema) ~points_per_attr:1 q in
  (* Predicate [2,3] on attr 1 needs threshold 2 (and 4 clamps to 3). *)
  Alcotest.(check bool) "boundary 2 present" true
    (Array.mem 2 (Spsf.points g 1))

(* ------------------------------------------------------------------ *)
(* Expected_cost: Eq. (3) equals Eq. (4) on the training data. *)

let test_expected_cost_matches_execution_seq () =
  let ds = correlated_dataset () in
  let q = query3 (DS.schema ds) in
  let costs = S.costs (DS.schema ds) in
  let est = B.empirical ds in
  List.iter
    (fun order ->
      let plan = Plan.sequential order in
      check_close "Eq3 = Eq4"
        (Ex.average_cost q ~costs plan ds)
        (EC.of_plan q ~costs est plan))
    [ [ 0; 1 ]; [ 1; 0 ] ]

let test_expected_cost_matches_execution_tree () =
  let ds = correlated_dataset () in
  let q = query3 (DS.schema ds) in
  let costs = S.costs (DS.schema ds) in
  let est = B.empirical ds in
  let plan =
    Plan.Test
      {
        attr = 0;
        threshold = 2;
        low = Plan.sequential [ 0; 1 ];
        high = Plan.sequential [ 1; 0 ];
      }
  in
  check_close "conditional Eq3 = Eq4"
    (Ex.average_cost q ~costs plan ds)
    (EC.of_plan q ~costs est plan)

let test_expected_cost_closed_form () =
  (* Independent bits: cost of order [0;1] is c0 + p0 * c1. *)
  let ds = binary_dataset [| 0.25; 0.5 |] 40_000 in
  let schema = DS.schema ds in
  let q =
    Q.create schema
      [ Pred.inside ~attr:0 ~lo:1 ~hi:1; Pred.inside ~attr:1 ~lo:1 ~hi:1 ]
  in
  let est = B.empirical ds in
  let cost = EC.of_order q ~costs:(S.costs schema) est [ 0; 1 ] in
  Alcotest.(check bool) "close to 10 + 0.25*20" true
    (Float.abs (cost -. 15.0) < 0.3)

(* ------------------------------------------------------------------ *)
(* Priority queue *)

let test_pqueue_ordering () =
  let pq = Acq_core.Priority_queue.create () in
  List.iter
    (fun (p, v) -> Acq_core.Priority_queue.push pq p v)
    [ (1.0, "a"); (5.0, "b"); (3.0, "c"); (4.0, "d"); (2.0, "e") ];
  Alcotest.(check int) "size" 5 (Acq_core.Priority_queue.size pq);
  let order = ref [] in
  let rec drain () =
    match Acq_core.Priority_queue.pop pq with
    | Some (_, v) ->
        order := v :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "max first" [ "b"; "d"; "c"; "e"; "a" ]
    (List.rev !order)

let test_pqueue_random_sorted () =
  let rng = Rng.create 12 in
  let pq = Acq_core.Priority_queue.create () in
  let values = Array.init 500 (fun _ -> Rng.float rng 1.0) in
  Array.iter (fun v -> Acq_core.Priority_queue.push pq v v) values;
  let prev = ref infinity in
  for _ = 1 to 500 do
    match Acq_core.Priority_queue.pop pq with
    | Some (p, _) ->
        Alcotest.(check bool) "non-increasing" true (p <= !prev);
        prev := p
    | None -> Alcotest.fail "queue drained early"
  done;
  Alcotest.(check bool) "empty at end" true (Acq_core.Priority_queue.is_empty pq)

let test_pqueue_peek () =
  let pq = Acq_core.Priority_queue.create () in
  Alcotest.(check bool) "peek empty" true (Acq_core.Priority_queue.peek pq = None);
  Acq_core.Priority_queue.push pq 2.0 "x";
  (match Acq_core.Priority_queue.peek pq with
  | Some (p, v) ->
      check_float "peek priority" 2.0 p;
      Alcotest.(check string) "peek value" "x" v
  | None -> Alcotest.fail "expected element");
  Alcotest.(check int) "peek does not pop" 1 (Acq_core.Priority_queue.size pq)

(* ------------------------------------------------------------------ *)
(* Naive *)

let test_naive_orders_by_rank () =
  (* pred0: cost 10, pass 0.9 -> rank 100; pred1: cost 20, pass 0.1 ->
     rank ~22. Naive must evaluate pred1 first. *)
  let ds = binary_dataset [| 0.9; 0.1 |] 20_000 in
  let schema = DS.schema ds in
  let q =
    Q.create schema
      [ Pred.inside ~attr:0 ~lo:1 ~hi:1; Pred.inside ~attr:1 ~lo:1 ~hi:1 ]
  in
  let order =
    Acq_core.Naive.order q ~costs:(S.costs schema) (B.empirical ds)
  in
  Alcotest.(check (list int)) "selective-but-pricier first" [ 1; 0 ] order

let test_naive_never_failing_last () =
  let ds = binary_dataset [| 1.0; 0.5 |] 1_000 in
  let schema = DS.schema ds in
  let q =
    Q.create schema
      [ Pred.inside ~attr:0 ~lo:1 ~hi:1; Pred.inside ~attr:1 ~lo:1 ~hi:1 ]
  in
  let order =
    Acq_core.Naive.order q ~costs:(S.costs schema) (B.empirical ds)
  in
  Alcotest.(check (list int)) "always-true pred last" [ 1; 0 ] order

(* ------------------------------------------------------------------ *)
(* Optseq: brute-force optimality over all m! orders. *)

let brute_force_best_order q ~costs est subset =
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x ->
            List.map
              (fun rest -> x :: rest)
              (permutations (List.filter (fun y -> y <> x) l)))
          l
  in
  List.fold_left
    (fun (best_o, best_c) order ->
      let c = EC.of_order q ~costs est order in
      if c < best_c then (order, c) else (best_o, best_c))
    ([], infinity) (permutations subset)

let test_optseq_matches_brute_force () =
  let rng = Rng.create 13 in
  for trial = 0 to 9 do
    let probs = Array.init 4 (fun _ -> 0.1 +. Rng.float rng 0.8) in
    let ds = binary_dataset probs 3_000 in
    let schema = DS.schema ds in
    let q =
      Q.create schema
        (List.init 4 (fun i -> Pred.inside ~attr:i ~lo:1 ~hi:1))
    in
    let costs = S.costs schema in
    let est = B.empirical ds in
    let _, opt_cost = Acq_core.Optseq.order q ~costs est in
    let _, brute_cost = brute_force_best_order q ~costs est [ 0; 1; 2; 3 ] in
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "trial %d optimal" trial)
      brute_cost opt_cost
  done

let test_optseq_cost_is_realized () =
  (* The DP's reported cost equals the analytic cost of the order it
     returns. *)
  let ds = correlated_dataset () in
  let q = query3 (DS.schema ds) in
  let costs = S.costs (DS.schema ds) in
  let est = B.empirical ds in
  let order, cost = Acq_core.Optseq.order q ~costs est in
  check_close "reported = recomputed" (EC.of_order q ~costs est order) cost

let test_optseq_respects_acquired () =
  let ds = binary_dataset [| 0.5; 0.5 |] 2_000 in
  let schema = DS.schema ds in
  let q =
    Q.create schema
      [ Pred.inside ~attr:0 ~lo:1 ~hi:1; Pred.inside ~attr:1 ~lo:1 ~hi:1 ]
  in
  let costs = S.costs schema in
  let est = B.empirical ds in
  let acquired = [| true; false |] in
  let order, cost = Acq_core.Optseq.order q ~costs ~acquired est in
  (* Attr 0 already paid: it should be evaluated first for free. *)
  Alcotest.(check (list int)) "free attr first" [ 0; 1 ] order;
  Alcotest.(check bool) "cost excludes attr 0" true (cost < 20.0 +. 0.1)

let test_optseq_subset () =
  let ds = binary_dataset [| 0.5; 0.5; 0.5 |] 2_000 in
  let schema = DS.schema ds in
  let q =
    Q.create schema (List.init 3 (fun i -> Pred.inside ~attr:i ~lo:1 ~hi:1))
  in
  let order, _ =
    Acq_core.Optseq.order q ~costs:(S.costs schema) ~subset:[ 0; 2 ]
      (B.empirical ds)
  in
  Alcotest.(check (list int)) "only subset, sorted by value" [ 0; 2 ]
    (List.sort compare order);
  Alcotest.(check int) "length 2" 2 (List.length order)

let test_optseq_limit () =
  let ds = binary_dataset (Array.make 2 0.5) 100 in
  let schema = DS.schema ds in
  let q =
    Q.create schema (List.init 2 (fun i -> Pred.inside ~attr:i ~lo:1 ~hi:1))
  in
  Alcotest.check_raises "too many predicates" Acq_core.Optseq.Too_many_predicates
    (fun () ->
      ignore
        (Acq_core.Optseq.order_of_patterns
           ~pattern_probs:(Array.make (1 lsl 16) 0.0)
           ~pred_costs:(Array.make 16 1.0)
           ~shared_attr:(Array.init 16 (fun i -> i))
           ()));
  ignore q

(* ------------------------------------------------------------------ *)
(* Greedyseq *)

let test_greedyseq_independent_matches_optseq () =
  (* With independent predicates the greedy rank ordering is optimal. *)
  let ds = binary_dataset [| 0.3; 0.7; 0.5 |] 20_000 in
  let schema = DS.schema ds in
  let q =
    Q.create schema (List.init 3 (fun i -> Pred.inside ~attr:i ~lo:1 ~hi:1))
  in
  let costs = S.costs schema in
  let est = B.empirical ds in
  let _, g = Acq_core.Greedyseq.order q ~costs est in
  let _, o = Acq_core.Optseq.order q ~costs est in
  Alcotest.(check bool) "greedy within 1% of optimal here" true
    (g <= o *. 1.01 +. 1e-9)

let test_greedyseq_four_approx () =
  (* Munagala et al.: greedy is 4-approximate. Verify on random
     correlated instances. *)
  let rng = Rng.create 14 in
  for _ = 1 to 5 do
    let schema =
      S.create
        (List.init 4 (fun i ->
             A.discrete ~name:(Printf.sprintf "x%d" i)
               ~cost:(1.0 +. Rng.float rng 99.0)
               ~domain:2))
    in
    let data =
      Array.init 2_000 (fun _ ->
          let base = Rng.int rng 2 in
          Array.init 4 (fun _ ->
              if Rng.bernoulli rng 0.7 then base else Rng.int rng 2))
    in
    let ds = DS.create schema data in
    let q =
      Q.create schema (List.init 4 (fun i -> Pred.inside ~attr:i ~lo:1 ~hi:1))
    in
    let costs = S.costs schema in
    let est = B.empirical ds in
    let _, g = Acq_core.Greedyseq.order q ~costs est in
    let _, o = Acq_core.Optseq.order q ~costs est in
    Alcotest.(check bool) "within factor 4" true (g <= (4.0 *. o) +. 1e-9)
  done

let test_greedyseq_emits_all_predicates () =
  (* Even when the reach probability collapses to zero, the order must
     contain every predicate (plan correctness). *)
  let schema =
    S.create
      [
        A.discrete ~name:"x0" ~cost:1.0 ~domain:2;
        A.discrete ~name:"x1" ~cost:1.0 ~domain:2;
        A.discrete ~name:"x2" ~cost:1.0 ~domain:2;
      ]
  in
  (* x0 is always 0, so the first predicate never passes. *)
  let ds = DS.create schema (Array.make 100 [| 0; 1; 1 |]) in
  let q =
    Q.create schema (List.init 3 (fun i -> Pred.inside ~attr:i ~lo:1 ~hi:1))
  in
  let order, _ =
    Acq_core.Greedyseq.order q ~costs:(S.costs schema) (B.empirical ds)
  in
  Alcotest.(check (list int)) "all three present" [ 0; 1; 2 ]
    (List.sort compare order)

(* ------------------------------------------------------------------ *)
(* Seq_planner *)

let test_seq_planner_dispatch () =
  let ds = correlated_dataset () in
  let q = query3 (DS.schema ds) in
  let costs = S.costs (DS.schema ds) in
  let est = B.empirical ds in
  (* Below threshold: must equal OptSeq. *)
  let _, c1 = Acq_core.Seq_planner.order q ~costs est in
  let _, c2 = Acq_core.Optseq.order q ~costs est in
  check_close "optseq below threshold" c2 c1;
  (* Threshold 0 forces GreedySeq. *)
  let _, c3 = Acq_core.Seq_planner.order ~optseq_threshold:0 q ~costs est in
  let _, c4 = Acq_core.Greedyseq.order q ~costs est in
  check_close "greedyseq above threshold" c4 c3

(* ------------------------------------------------------------------ *)
(* Greedy_split / Greedy_plan *)

let test_greedy_split_finds_cheap_informative () =
  let ds = correlated_dataset () in
  let schema = DS.schema ds in
  let q = query3 schema in
  let costs = S.costs schema in
  let grid = Spsf.for_query ~domains:(S.domains schema) ~points_per_attr:3 q in
  let ranges = Sub.initial schema in
  match Acq_core.Greedy_split.find q ~costs ~grid ~ranges (B.empirical ds) with
  | None -> Alcotest.fail "expected a split"
  | Some s ->
      Alcotest.(check int) "splits on the cheap regime attr" 0 s.Acq_core.Greedy_split.attr;
      let _, seq_cost =
        Acq_core.Seq_planner.order q ~costs (B.empirical ds)
      in
      Alcotest.(check bool) "split beats sequential" true
        (s.Acq_core.Greedy_split.cost < seq_cost)

let test_greedy_split_none_without_candidates () =
  let schema = S.create [ A.discrete ~name:"x" ~cost:1.0 ~domain:2 ] in
  let ds = DS.create schema [| [| 0 |]; [| 1 |] |] in
  let q = Q.create schema [ Pred.inside ~attr:0 ~lo:1 ~hi:1 ] in
  let grid = Spsf.equal_width ~domains:[| 2 |] ~points_per_attr:1 in
  (* Range already narrowed to a single value: no candidates left. *)
  let ranges = [| R.make 1 1 |] in
  Alcotest.(check bool) "no split" true
    (Acq_core.Greedy_split.find q ~costs:(S.costs schema) ~grid ~ranges
       (B.empirical ds)
    = None)

let heuristic_cost ds q k =
  let r =
    P.plan
      ~options:{ P.default_options with max_splits = k; split_points_per_attr = 3 }
      P.Heuristic q ~train:ds
  in
  (r.P.plan, r.P.est_cost)

let test_greedy_plan_zero_splits_is_seq () =
  let ds = correlated_dataset () in
  let q = query3 (DS.schema ds) in
  let plan, cost = heuristic_cost ds q 0 in
  Alcotest.(check int) "no tests" 0 (Plan.n_tests plan);
  let _, seq_cost =
    Acq_core.Seq_planner.order q ~costs:(S.costs (DS.schema ds)) (B.empirical ds)
  in
  check_close "cost equals CorrSeq" seq_cost cost

let test_greedy_plan_monotone_in_k () =
  let ds = correlated_dataset () in
  let q = query3 (DS.schema ds) in
  let costs =
    List.map (fun k -> snd (heuristic_cost ds q k)) [ 0; 1; 2; 5; 10 ]
  in
  let rec monotone = function
    | a :: b :: rest -> a +. 1e-9 >= b && monotone (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "non-increasing in k" true (monotone costs)

let test_greedy_plan_respects_max_splits () =
  let ds = correlated_dataset () in
  let q = query3 (DS.schema ds) in
  let plan, _ = heuristic_cost ds q 2 in
  Alcotest.(check bool) "at most 2 tests" true (Plan.n_tests plan <= 2)

let test_greedy_plan_consistent () =
  let ds = correlated_dataset () in
  let q = query3 (DS.schema ds) in
  let plan, _ = heuristic_cost ds q 5 in
  Alcotest.(check bool) "correct on training data" true
    (Ex.consistent q ~costs:(S.costs (DS.schema ds)) plan ds)

let test_greedy_plan_candidate_restriction () =
  let ds = correlated_dataset () in
  let schema = DS.schema ds in
  let q = query3 schema in
  let plan =
    (P.plan
       ~options:
         {
           P.default_options with
           max_splits = 5;
           candidate_attrs = Some [ 0 ];
           split_points_per_attr = 3;
         }
       P.Heuristic q ~train:ds)
      .P.plan
  in
  List.iter
    (fun a -> Alcotest.(check int) "only attr 0 tested" 0 a)
    (Plan.attrs_tested plan)

(* ------------------------------------------------------------------ *)
(* Exhaustive *)

let test_exhaustive_matches_enumeration () =
  (* On binary instances the exhaustive DP must equal the brute-force
     enumeration optimum. *)
  let rng = Rng.create 15 in
  for trial = 0 to 4 do
    let schema =
      S.create
        [
          A.discrete ~name:"x1" ~cost:(5.0 +. Rng.float rng 50.0) ~domain:2;
          A.discrete ~name:"x2" ~cost:(5.0 +. Rng.float rng 50.0) ~domain:2;
          A.discrete ~name:"x3" ~cost:1.0 ~domain:2;
        ]
    in
    let data =
      Array.init 2_000 (fun _ ->
          let x3 = Rng.int rng 2 in
          let x1 = if Rng.bernoulli rng 0.8 then x3 else 1 - x3 in
          let x2 = if Rng.bernoulli rng 0.7 then 1 - x3 else x3 in
          [| x1; x2; x3 |])
    in
    let ds = DS.create schema data in
    let q =
      Q.create schema
        [ Pred.inside ~attr:0 ~lo:1 ~hi:1; Pred.inside ~attr:1 ~lo:1 ~hi:1 ]
    in
    let costs = S.costs schema in
    let est = B.empirical ds in
    let grid = Spsf.full ~domains:(S.domains schema) in
    let _, exh = Acq_core.Exhaustive.plan q ~costs ~grid est in
    let _, brute = Acq_core.Enumerate.best q ~costs est in
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "trial %d equals enumeration" trial)
      brute exh
  done

let test_exhaustive_beats_heuristic_on_grid () =
  let ds = correlated_dataset () in
  let schema = DS.schema ds in
  let q = query3 schema in
  let o = { P.default_options with split_points_per_attr = 3 } in
  let exh = (P.plan ~options:o P.Exhaustive q ~train:ds).P.est_cost in
  List.iter
    (fun k ->
      let h =
        (P.plan ~options:{ o with max_splits = k } P.Heuristic q ~train:ds)
          .P.est_cost
      in
      Alcotest.(check bool)
        (Printf.sprintf "exhaustive <= heuristic-%d" k)
        true (exh <= h +. 1e-6))
    [ 0; 1; 5; 10 ];
  let seq = (P.plan ~options:o P.Corr_seq q ~train:ds).P.est_cost in
  Alcotest.(check bool) "exhaustive <= corrseq" true (exh <= seq +. 1e-6);
  let nv = (P.plan ~options:o P.Naive q ~train:ds).P.est_cost in
  Alcotest.(check bool) "exhaustive <= naive" true (exh <= nv +. 1e-6)

let test_exhaustive_cost_is_realized () =
  let ds = correlated_dataset () in
  let schema = DS.schema ds in
  let q = query3 schema in
  let costs = S.costs schema in
  let o = { P.default_options with split_points_per_attr = 3 } in
  let r = P.plan ~options:o P.Exhaustive q ~train:ds in
  let plan = r.P.plan in
  check_close "reported = empirical train cost" r.P.est_cost
    (Ex.average_cost q ~costs plan ds);
  Alcotest.(check bool) "consistent" true (Ex.consistent q ~costs plan ds)

let test_exhaustive_budget () =
  let ds = correlated_dataset () in
  let q = query3 (DS.schema ds) in
  Alcotest.check_raises "budget enforced" Acq_core.Exhaustive.Budget_exceeded
    (fun () ->
      ignore
        (P.plan
           ~options:
             { P.default_options with split_points_per_attr = 3;
               exhaustive_budget = 2 }
           P.Exhaustive q ~train:ds))

let test_exhaustive_trivial_query () =
  (* A query decided by one attribute produces a plan costing at most
     that attribute. *)
  let schema =
    S.create
      [ A.discrete ~name:"a" ~cost:7.0 ~domain:4;
        A.discrete ~name:"b" ~cost:9.0 ~domain:4 ]
  in
  let rng = Rng.create 16 in
  let ds =
    DS.create schema
      (Array.init 500 (fun _ -> [| Rng.int rng 4; Rng.int rng 4 |]))
  in
  let q = Q.create schema [ Pred.inside ~attr:0 ~lo:0 ~hi:1 ] in
  let grid = Spsf.full ~domains:(S.domains schema) in
  let plan, cost =
    Acq_core.Exhaustive.plan q ~costs:(S.costs schema) ~grid (B.empirical ds)
  in
  Alcotest.(check bool) "cost is one acquisition" true
    (Float.abs (cost -. 7.0) < 1e-6);
  Alcotest.(check bool) "consistent" true
    (Ex.consistent q ~costs:(S.costs schema) plan ds)

(* ------------------------------------------------------------------ *)
(* Enumerate *)

let test_enumerate_count () =
  Alcotest.(check int) "count 1" 1 (Acq_core.Enumerate.count 1);
  Alcotest.(check int) "count 2" 2 (Acq_core.Enumerate.count 2);
  Alcotest.(check int) "count 3 = 12" 12 (Acq_core.Enumerate.count 3);
  Alcotest.(check int) "count 4" 576 (Acq_core.Enumerate.count 4)

let test_enumerate_produces_count () =
  let schema =
    S.create
      [
        A.discrete ~name:"x1" ~cost:10.0 ~domain:2;
        A.discrete ~name:"x2" ~cost:10.0 ~domain:2;
        A.discrete ~name:"x3" ~cost:1.0 ~domain:2;
      ]
  in
  let rng = Rng.create 17 in
  let ds =
    DS.create schema
      (Array.init 200 (fun _ ->
           [| Rng.int rng 2; Rng.int rng 2; Rng.int rng 2 |]))
  in
  let q =
    Q.create schema
      [ Pred.inside ~attr:0 ~lo:1 ~hi:1; Pred.inside ~attr:1 ~lo:1 ~hi:1 ]
  in
  let plans =
    Acq_core.Enumerate.all_plans q ~costs:(S.costs schema) (B.empirical ds)
  in
  Alcotest.(check int) "12 plans for the figure's example" 12
    (List.length plans);
  (* Every enumerated plan is executable and correct. *)
  List.iter
    (fun (p, _) ->
      Alcotest.(check bool) "each plan consistent" true
        (Ex.consistent q ~costs:(S.costs schema) p ds))
    plans

let test_enumerate_rejects_large () =
  let schema =
    S.create
      (List.init 5 (fun i ->
           A.discrete ~name:(Printf.sprintf "x%d" i) ~cost:1.0 ~domain:2))
  in
  let ds = DS.create schema [| Array.make 5 0 |] in
  let q = Q.create schema [ Pred.inside ~attr:0 ~lo:1 ~hi:1 ] in
  (try
     ignore (Acq_core.Enumerate.all_plans q ~costs:(S.costs schema) (B.empirical ds));
     Alcotest.fail "expected size guard"
   with Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Planner facade *)

let test_planner_all_algorithms_consistent () =
  let ds = correlated_dataset () in
  let q = query3 (DS.schema ds) in
  let costs = S.costs (DS.schema ds) in
  List.iter
    (fun algo ->
      let r =
        P.plan
          ~options:{ P.default_options with split_points_per_attr = 3 }
          algo q ~train:ds
      in
      let plan = r.P.plan in
      Alcotest.(check bool)
        (P.algorithm_name algo ^ " consistent")
        true
        (Ex.consistent q ~costs plan ds);
      check_close
        (P.algorithm_name algo ^ " cost realized")
        (Ex.average_cost q ~costs plan ds)
        r.P.est_cost;
      Alcotest.(check bool)
        (P.algorithm_name algo ^ " plan_size recorded")
        true
        (r.P.stats.Acq_core.Search.plan_size = Acq_plan.Serialize.size plan);
      Alcotest.(check bool)
        (P.algorithm_name algo ^ " estimator instrumented")
        true
        (r.P.stats.Acq_core.Search.estimator_calls > 0))
    [ P.Naive; P.Corr_seq; P.Heuristic; P.Exhaustive ]

let test_size_alpha_shrinks_plans () =
  let ds = correlated_dataset () in
  let q = query3 (DS.schema ds) in
  let plan_with alpha =
    (P.plan
       ~options:
         {
           P.default_options with
           max_splits = 10;
           split_points_per_attr = 3;
           size_alpha = alpha;
         }
       P.Heuristic q ~train:ds)
      .P.plan
  in
  let free = Plan.n_tests (plan_with 0.0) in
  let taxed = Plan.n_tests (plan_with 0.5) in
  let prohibitive = Plan.n_tests (plan_with 1_000.0) in
  Alcotest.(check bool) "taxed <= free" true (taxed <= free);
  Alcotest.(check int) "prohibitive alpha kills all splits" 0 prohibitive

let test_expected_cost_acquired_attr_free () =
  let ds = correlated_dataset () in
  let q = query3 (DS.schema ds) in
  let costs = S.costs (DS.schema ds) in
  let est = B.empirical ds in
  let paid = EC.of_order q ~costs est [ 0; 1 ] in
  let prepaid =
    EC.of_order q ~costs ~acquired:[| false; true; false |] est [ 0; 1 ]
  in
  check_close "prepaying attr 1 saves its cost" (paid -. 100.0) prepaid

let test_naive_tie_break_stable () =
  (* Identical rank: query order preserved. *)
  let ds = binary_dataset [| 0.5; 0.5 |] 10_000 in
  let schema = DS.schema ds in
  (* Force identical costs so ranks tie up to sampling noise: use a
     custom schema with equal costs. *)
  let schema2 =
    S.create
      [
        A.discrete ~name:"b0" ~cost:10.0 ~domain:2;
        A.discrete ~name:"b1" ~cost:10.0 ~domain:2;
      ]
  in
  let rows = Array.init 100 (fun i -> [| i mod 2; i mod 2 |]) in
  let ds2 = DS.create schema2 rows in
  let q =
    Q.create schema2
      [ Pred.inside ~attr:0 ~lo:1 ~hi:1; Pred.inside ~attr:1 ~lo:1 ~hi:1 ]
  in
  Alcotest.(check (list int)) "stable tie-break" [ 0; 1 ]
    (Acq_core.Naive.order q ~costs:(S.costs schema2) (B.empirical ds2));
  ignore schema

let test_spsf_for_query_dedups () =
  let schema = schema3 () in
  (* Two predicates sharing a boundary on the same attribute. *)
  let q =
    Q.create schema
      [ Pred.inside ~attr:1 ~lo:2 ~hi:3; Pred.outside ~attr:1 ~lo:2 ~hi:3 ]
  in
  let g = Spsf.for_query ~domains:(S.domains schema) ~points_per_attr:1 q in
  let pts = Array.to_list (Spsf.points g 1) in
  Alcotest.(check (list int)) "sorted unique" (List.sort_uniq compare pts) pts

let test_planner_ordering_quality () =
  let ds = correlated_dataset () in
  let q = query3 (DS.schema ds) in
  let o = { P.default_options with split_points_per_attr = 3 } in
  let cost algo = (P.plan ~options:o algo q ~train:ds).P.est_cost in
  Alcotest.(check bool) "corrseq <= naive" true
    (cost P.Corr_seq <= cost P.Naive +. 1e-9);
  Alcotest.(check bool) "heuristic <= corrseq" true
    (cost P.Heuristic <= cost P.Corr_seq +. 1e-9);
  Alcotest.(check bool) "exhaustive <= heuristic" true
    (cost P.Exhaustive <= cost P.Heuristic +. 1e-6)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "core"
    [
      ( "subproblem",
        [
          Alcotest.test_case "basics" `Quick test_subproblem_basics;
          Alcotest.test_case "key injective" `Quick test_subproblem_key_injective;
          QCheck_alcotest.to_alcotest prop_key_injective;
          Alcotest.test_case "query acquired" `Quick test_subproblem_query_acquired;
        ] );
      ( "spsf",
        [
          Alcotest.test_case "equal width" `Quick test_spsf_equal_width;
          Alcotest.test_case "full" `Quick test_spsf_full;
          Alcotest.test_case "candidates in range" `Quick
            test_spsf_candidates_in_range;
          Alcotest.test_case "query boundaries" `Quick
            test_spsf_for_query_has_boundaries;
        ] );
      ( "expected_cost",
        [
          Alcotest.test_case "Eq3 = Eq4 sequential" `Quick
            test_expected_cost_matches_execution_seq;
          Alcotest.test_case "Eq3 = Eq4 conditional" `Quick
            test_expected_cost_matches_execution_tree;
          Alcotest.test_case "closed form" `Quick test_expected_cost_closed_form;
        ] );
      ( "priority_queue",
        [
          Alcotest.test_case "ordering" `Quick test_pqueue_ordering;
          Alcotest.test_case "random sorted" `Quick test_pqueue_random_sorted;
          Alcotest.test_case "peek" `Quick test_pqueue_peek;
        ] );
      ( "naive",
        [
          Alcotest.test_case "rank ordering" `Quick test_naive_orders_by_rank;
          Alcotest.test_case "never-failing last" `Quick
            test_naive_never_failing_last;
        ] );
      ( "optseq",
        [
          Alcotest.test_case "matches brute force" `Quick
            test_optseq_matches_brute_force;
          Alcotest.test_case "cost realized" `Quick test_optseq_cost_is_realized;
          Alcotest.test_case "respects acquired" `Quick
            test_optseq_respects_acquired;
          Alcotest.test_case "subset" `Quick test_optseq_subset;
          Alcotest.test_case "size limit" `Quick test_optseq_limit;
        ] );
      ( "greedyseq",
        [
          Alcotest.test_case "independent optimal" `Quick
            test_greedyseq_independent_matches_optseq;
          Alcotest.test_case "4-approximation" `Quick test_greedyseq_four_approx;
          Alcotest.test_case "emits all predicates" `Quick
            test_greedyseq_emits_all_predicates;
        ] );
      ( "seq_planner",
        [ Alcotest.test_case "dispatch" `Quick test_seq_planner_dispatch ] );
      ( "greedy",
        [
          Alcotest.test_case "split finds informative attr" `Quick
            test_greedy_split_finds_cheap_informative;
          Alcotest.test_case "split none without candidates" `Quick
            test_greedy_split_none_without_candidates;
          Alcotest.test_case "k=0 is CorrSeq" `Quick
            test_greedy_plan_zero_splits_is_seq;
          Alcotest.test_case "monotone in k" `Quick test_greedy_plan_monotone_in_k;
          Alcotest.test_case "respects max splits" `Quick
            test_greedy_plan_respects_max_splits;
          Alcotest.test_case "consistent" `Quick test_greedy_plan_consistent;
          Alcotest.test_case "candidate restriction" `Quick
            test_greedy_plan_candidate_restriction;
        ] );
      ( "exhaustive",
        [
          Alcotest.test_case "matches enumeration" `Quick
            test_exhaustive_matches_enumeration;
          Alcotest.test_case "beats heuristic on grid" `Quick
            test_exhaustive_beats_heuristic_on_grid;
          Alcotest.test_case "cost realized" `Quick
            test_exhaustive_cost_is_realized;
          Alcotest.test_case "budget enforced" `Quick test_exhaustive_budget;
          Alcotest.test_case "trivial query" `Quick test_exhaustive_trivial_query;
        ] );
      ( "enumerate",
        [
          Alcotest.test_case "count recurrence" `Quick test_enumerate_count;
          Alcotest.test_case "12 plans" `Quick test_enumerate_produces_count;
          Alcotest.test_case "size guard" `Quick test_enumerate_rejects_large;
        ] );
      ( "planner",
        [
          Alcotest.test_case "all consistent" `Quick
            test_planner_all_algorithms_consistent;
          Alcotest.test_case "quality ordering" `Quick test_planner_ordering_quality;
          Alcotest.test_case "size alpha shrinks plans" `Quick
            test_size_alpha_shrinks_plans;
          Alcotest.test_case "acquired attr free" `Quick
            test_expected_cost_acquired_attr_free;
          Alcotest.test_case "naive tie-break" `Quick test_naive_tie_break_stable;
          Alcotest.test_case "spsf dedup" `Quick test_spsf_for_query_dedups;
        ] );
    ]
