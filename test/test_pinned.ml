(* Pinned planner output. The Heuristic literals below were recorded
   from the row-scanning empirical backend, before split candidates
   were priced from per-node count tables; the Exhaustive ones from
   the decimal-keyed DP, before its memo keys became fixed-width
   binary and its counting kernels read the cell buffer directly.
   Every probability the planners read is an integer count divided by
   an integer count, so a faithful backend reproduces these plans,
   costs and search counters bit for bit; a single flipped probability
   bit surfaces here. *)

module Rng = Acq_util.Rng
module P = Acq_core.Planner

type pinned = {
  plan_hex : string;  (** [Serialize.encode] of the Heuristic plan *)
  est_cost : string;  (** [%h] *)
  nodes_solved : int;
  estimator_calls : int;
}

let hex bytes =
  String.concat ""
    (List.init (Bytes.length bytes) (fun i ->
         Printf.sprintf "%02x" (Char.code (Bytes.get bytes i))))

let observe_with algorithm q ~train =
  let r = P.plan algorithm q ~train in
  ( {
      plan_hex = hex (Acq_plan.Serialize.encode r.plan);
      est_cost = Printf.sprintf "%h" r.est_cost;
      nodes_solved = r.stats.nodes_solved;
      estimator_calls = r.stats.estimator_calls;
    },
    r.stats.memo_hits )

let observe q ~train = fst (observe_with P.Heuristic q ~train)

(* The Exhaustive arm also pins its memo hits: together with
   nodes_solved (charged to each tenant's planning quota) they say the
   DP searched exactly the same subproblems. *)
type pinned_dp = { dp : pinned; memo_hits : int }

(* ------------------------------------------------------------------ *)
(* Workload: eight Section 6 lab queries over a 4000-row lab history,
   one synthetic (Babu et al.) conjunction, one five-mote garden
   query. *)

let lab = lazy (Acq_data.Lab_gen.generate (Rng.create 42) ~rows:4000)

let lab_queries =
  lazy
    (let train = Lazy.force lab in
     let rng = Rng.create 42 in
     List.init 8 (fun _ -> Acq_workload.Query_gen.lab_query rng ~train))

let synthetic_params = { Acq_data.Synthetic_gen.n = 9; gamma = 2; sel = 0.3 }

let synthetic =
  lazy
    (let train =
       Acq_data.Synthetic_gen.generate (Rng.create 42) synthetic_params
         ~rows:4000
     in
     let q =
       Acq_workload.Query_gen.synthetic_query synthetic_params
         ~schema:(Acq_data.Dataset.schema train)
     in
     (q, train))

let garden =
  lazy
    (let train = Acq_data.Garden_gen.generate (Rng.create 42) ~n_motes:5 ~rows:3000 in
     let q =
       Acq_workload.Query_gen.garden_query (Rng.create 42)
         ~schema:(Acq_data.Dataset.schema train) ~n_motes:5
     in
     (q, train))

let cases =
  lazy
    (List.mapi
       (fun i q -> (Printf.sprintf "lab %d" i, q, Lazy.force lab))
       (Lazy.force lab_queries)
    @ [
        (let q, train = Lazy.force synthetic in
         ("synthetic", q, train));
        (let q, train = Lazy.force garden in
         ("garden5", q, train));
      ])

(* Conjunctions of the daemon's synthetic dataset (the plan-synthetic
   workload's pool): the 2,000-row history of [Source.history_live],
   expensive attribute [i] compared with 0 or 1. *)
let plan_synthetic_history =
  lazy
    (fst
       (Acq_serve.Source.history_live
          {
            Acq_serve.Source.kind = Acq_serve.Source.Synthetic;
            rows = 4_000;
            seed = 42;
          }))

let plan_synthetic picks =
  let history = Lazy.force plan_synthetic_history in
  let schema = Acq_data.Dataset.schema history in
  let x = Array.of_list (Acq_data.Schema.expensive_indices schema) in
  let q =
    Acq_plan.Query.create schema
      (List.map
         (fun (i, v) -> Acq_plan.Predicate.inside ~attr:x.(i) ~lo:v ~hi:v)
         picks)
  in
  (q, history)

let exhaustive_cases =
  lazy
    [
      (let q, train = Lazy.force synthetic in
       ("synthetic", q, train));
      (let q, train = plan_synthetic [ (0, 1); (3, 0) ] in
       ("plan-synthetic 2", q, train));
      (let q, train = plan_synthetic [ (1, 1); (2, 0); (4, 1) ] in
       ("plan-synthetic 3", q, train));
      (let q, train =
         plan_synthetic [ (0, 1); (1, 0); (2, 1); (3, 1); (4, 0) ]
       in
       ("plan-synthetic 5", q, train));
    ]

(* One full RUN rendering: plan on the lab history, replay an
   independently simulated stretch of the same lab. *)
let oneshot () =
  let history = Lazy.force lab in
  let live = Acq_data.Lab_gen.generate (Rng.create 43) ~rows:1000 in
  let q = List.hd (Lazy.force lab_queries) in
  fst
    (Acq_serve.Oneshot.run_to_string ~algorithm:P.Heuristic ~history ~live q)

(* ------------------------------------------------------------------ *)
(* Expected output *)

let expected =
  [
    ( "lab 0",
      {
        plan_hex = "03010a0002030100020302040002030100020203000102";
        est_cost = "0x1.9accccccccccep+6";
        nodes_solved = 2146;
        estimator_calls = 814;
      } );
    ( "lab 1",
      {
        plan_hex = "0301080002030001020203010002";
        est_cost = "0x1.b266666666666p+6";
        nodes_solved = 1684;
        estimator_calls = 639;
      } );
    ( "lab 2",
      {
        plan_hex = "0303150002030002010203000102";
        est_cost = "0x1.315999999999ap+7";
        nodes_solved = 1417;
        estimator_calls = 537;
      } );
    ( "lab 3",
      {
        plan_hex = "0301080002030001020203010002";
        est_cost = "0x1.9ep+6";
        nodes_solved = 1357;
        estimator_calls = 513;
      } );
    ( "lab 4",
      {
        plan_hex = "0301080002030102000203020100";
        est_cost = "0x1.9480000000001p+6";
        nodes_solved = 1608;
        estimator_calls = 611;
      } );
    ( "lab 5",
      {
        plan_hex = "0301080002030002010203020001";
        est_cost = "0x1.9ep+6";
        nodes_solved = 1379;
        estimator_calls = 509;
      } );
    ( "lab 6",
      {
        plan_hex = "0301080002030001020203010002";
        est_cost = "0x1.9ee6666666666p+6";
        nodes_solved = 1691;
        estimator_calls = 636;
      } );
    ( "lab 7",
      {
        plan_hex = "0203000201";
        est_cost = "0x1.2a9999999999ap+7";
        nodes_solved = 604;
        estimator_calls = 227;
      } );
    ( "synthetic",
      {
        plan_hex = "0300010003060100020604000103020502060103000502040303010003060100020602040300010502060203000104050306010002060504000201030206040300020501";
        est_cost = "0x1.d74a7ef9db22dp+6";
        nodes_solved = 4207;
        estimator_calls = 415;
      } );
    ( "garden5",
      {
        plan_hex = "03090400020a050001080302070406090309050003030500030c0500030c0300020a07030001020405060809020a01000907040203050608020a02010003040506070809020a00090801020304050607020a04000901020305060708";
        est_cost = "0x1.c73126e978d5p+6";
        nodes_solved = 1952112;
        estimator_calls = 5889;
      } );
  ]

let expected_exhaustive =
  [
    ( "synthetic",
      {
        dp =
          {
            plan_hex = "030001000302010000030301000305010000030701000002030002050306010003080100000301010000020302030403010100000308010000020302030403030100030401000003060100030701000003050100000203000105030501000003010100000302010000030701000003080100000103080100000306010003070100000301010000030401000003020100000305010000010305010000030101000003040100000307010000030201000001";
            est_cost = "0x1.d3aac083126eap+6";
            nodes_solved = 2679;
            estimator_calls = 8100;
          };
        memo_hits = 3910;
      } );
    ( "plan-synthetic 2",
      {
        dp =
          {
            plan_hex = "0306010003010100000307010001000307010003010100000100";
            est_cost = "0x1.044cccccccccdp+7";
            nodes_solved = 13818;
            estimator_calls = 42720;
          };
        memo_hits = 21551;
      } );
    ( "plan-synthetic 3",
      {
        dp =
          {
            plan_hex = "03080100030901000003020100030301000003050100010003050100030301000001000304010003020100030301000003050100030901000001000305010003060100030301000003090100000103090100000303010000010003050100030301000003090100000100";
            est_cost = "0x1.0e34395810624p+7";
            nodes_solved = 18126;
            estimator_calls = 61138;
          };
        memo_hits = 36223;
      } );
    ( "plan-synthetic 5",
      {
        dp =
          {
            plan_hex = "03020100030001000301010000030601000307010000030301000305010000030901000100000308010003040100030501000003030100030701000003090100010000030301000305010000030701000003090100010000030901000303010003050100000307010000010000030801000304010003050100000307010000030101000003030100030901000100000306010003070100000309010003010100000303010003050100000100000305010000030901000303010003070100000301010000010000030901000304010003060100030701000002030001020305010000030101000003030100030701000001000307010000030501000003010100000303010001000003030100030601000307010000030001000301010000020202040305010000020200040300010003010100000305010000030701000003090100010003080100030401000305010000020300030403070100000309010003010100000305010000010003090100030101000003050100000307010000010000";
            est_cost = "0x1.e97126e978d5p+6";
            nodes_solved = 16407;
            estimator_calls = 54731;
          };
        memo_hits = 31990;
      } );
  ]

let expected_oneshot =
  "query: 25.0 <= light <= 475.0 AND 23.3 <= temp <= 30.3 AND 38.8 <= humidity <= 59.4\n\
   algorithm: Heuristic\n\
   model: empirical\n\
   \n\
   plan: 23 bytes, 2 tests\n\
   planner search: nodes_solved=2146 memo_hits=0 estimator_calls=814 plan_size=23 wall_ms=0.00\n\
   epochs: 1000, matches: 0\n\
   energy: acquisition 101000.0 + radio 18.6 = 101018.6\n\
   avg acquisition cost/epoch: 101.00\n\
   verdicts correct: true\n"

(* ------------------------------------------------------------------ *)
(* Checks *)

let test_case name () =
  let _, q, train =
    List.find (fun (n, _, _) -> n = name) (Lazy.force cases)
  in
  let want = List.assoc name expected in
  let got = observe q ~train in
  Alcotest.(check string) "plan bytes" want.plan_hex got.plan_hex;
  Alcotest.(check string) "est_cost" want.est_cost got.est_cost;
  Alcotest.(check int) "nodes_solved" want.nodes_solved got.nodes_solved;
  Alcotest.(check int) "estimator_calls" want.estimator_calls
    got.estimator_calls

let test_exhaustive name () =
  let _, q, train =
    List.find (fun (n, _, _) -> n = name) (Lazy.force exhaustive_cases)
  in
  let want = List.assoc name expected_exhaustive in
  let got, memo_hits = observe_with P.Exhaustive q ~train in
  Alcotest.(check string) "plan bytes" want.dp.plan_hex got.plan_hex;
  Alcotest.(check string) "est_cost" want.dp.est_cost got.est_cost;
  Alcotest.(check int) "nodes_solved" want.dp.nodes_solved got.nodes_solved;
  Alcotest.(check int) "memo_hits" want.memo_hits memo_hits;
  Alcotest.(check int) "estimator_calls" want.dp.estimator_calls
    got.estimator_calls

let test_oneshot () =
  Alcotest.(check string) "RUN reply" expected_oneshot (oneshot ())

let () =
  Alcotest.run "pinned"
    [
      ( "heuristic",
        List.map
          (fun (name, _) -> Alcotest.test_case name `Quick (test_case name))
          expected );
      ( "exhaustive",
        List.map
          (fun (name, _) -> Alcotest.test_case name `Quick (test_exhaustive name))
          expected_exhaustive );
      ("oneshot", [ Alcotest.test_case "lab RUN reply" `Quick test_oneshot ]);
    ]
