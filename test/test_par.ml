(* Differential determinism suite for Acq_par.

   The claim under test: parallelism changes wall time, never results.
   Every planner run through the domain pool, every portfolio race
   (four arms: Exhaustive, Heuristic, CorrSeq, and the sampling-based
   Pac arm), and every workload fan-out must be structurally identical
   — plan tree, estimated cost, plan size, byte-for-byte canonical
   report — to its sequential counterpart. Plus cancellation and
   robustness: arms that blow their budget or deadline (including the
   sampled Pac arm, whose refinement loop ticks the same search
   context) lose the race without leaking tasks, task exceptions don't
   kill workers, and shutdown never hangs (a watchdog alarm turns a
   hang into a loud failure).

   Worker count comes from ACQP_TEST_DOMAINS (default 4); CI pins 4. *)

module Rng = Acq_util.Rng
module DS = Acq_data.Dataset
module S = Acq_data.Schema
module A = Acq_data.Attribute
module Pred = Acq_plan.Predicate
module Q = Acq_plan.Query
module Plan = Acq_plan.Plan
module P = Acq_core.Planner
module Dp = Acq_par.Domain_pool
module Pf = Acq_par.Portfolio
module Pe = Acq_par.Parallel_experiment

let test_domains () =
  match Sys.getenv_opt "ACQP_TEST_DOMAINS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 4)
  | None -> 4

(* Turn a hung pool into a failing test instead of a stuck CI job. *)
let with_alarm seconds f =
  let old =
    Sys.signal Sys.sigalrm
      (Sys.Signal_handle
         (fun _ ->
           prerr_endline "test_par: watchdog alarm fired — pool hung";
           exit 124))
  in
  let finally () =
    ignore (Unix.alarm 0 : int);
    Sys.set_signal Sys.sigalrm old
  in
  Fun.protect ~finally (fun () ->
      ignore (Unix.alarm seconds : int);
      f ())

(* ------------------------------------------------------------------ *)
(* Seeded random planning instances, the test_props recipe: correlated
   columns driven by a latent regime, a random conjunctive query. *)

let cost_choices = [| 1.0; 5.0; 20.0; 100.0 |]

let random_preds rng ~domains ~n_preds =
  let n_attrs = Array.length domains in
  let attrs = Rng.sample_without_replacement rng n_preds n_attrs in
  Array.to_list
    (Array.map
       (fun attr ->
         let k = domains.(attr) in
         let lo = Rng.int rng k in
         let hi = lo + Rng.int rng (k - lo) in
         if Rng.bernoulli rng 0.25 && not (lo = 0 && hi = k - 1) then
           Pred.outside ~attr ~lo ~hi
         else Pred.inside ~attr ~lo ~hi)
       attrs)

let make_instance seed =
  let rng = Rng.create seed in
  let n_attrs = 3 + Rng.int rng 3 in
  let domains = Array.init n_attrs (fun _ -> 2 + Rng.int rng 5) in
  let costs = Array.init n_attrs (fun _ -> cost_choices.(Rng.int rng 4)) in
  let schema =
    S.create
      (List.init n_attrs (fun k ->
           A.discrete
             ~name:(Printf.sprintf "a%d" k)
             ~cost:costs.(k) ~domain:domains.(k)))
  in
  let rows =
    Array.init 400 (fun _ ->
        let regime = Rng.float rng 1.0 in
        Array.init n_attrs (fun k ->
            if Rng.bernoulli rng 0.75 then
              min (domains.(k) - 1)
                (int_of_float (regime *. float_of_int domains.(k)))
            else Rng.int rng domains.(k)))
  in
  let ds = DS.create schema rows in
  let n_preds = 1 + Rng.int rng (min 3 n_attrs) in
  (ds, Q.create schema (random_preds rng ~domains ~n_preds))

let options = { P.default_options with split_points_per_attr = 3 }
let algos = [ P.Naive; P.Corr_seq; P.Heuristic; P.Exhaustive ]

let plan_size (r : P.result) = r.P.stats.Acq_core.Search.plan_size

(* ------------------------------------------------------------------ *)
(* Differential: pool vs sequential, every planner, 50 seeds. *)

let test_planner_differential () =
  Dp.with_pool ~domains:(test_domains ()) @@ fun pool ->
  for seed = 0 to 49 do
    let ds, q = make_instance seed in
    List.iter
      (fun algo ->
        let here = Printf.sprintf "%s/seed%d" (P.algorithm_name algo) seed in
        let seq = P.plan ~options algo q ~train:ds in
        let par = Dp.run pool (fun _tele -> P.plan ~options algo q ~train:ds) in
        Alcotest.(check bool)
          (here ^ " plan tree") true
          (Plan.equal seq.P.plan par.P.plan);
        Alcotest.(check (float 0.0))
          (here ^ " est cost") seq.P.est_cost par.P.est_cost;
        Alcotest.(check int)
          (here ^ " plan size") (plan_size seq) (plan_size par))
      algos
  done

(* Portfolio: racing in parallel picks exactly the plan a sequential
   sweep would — cheapest est cost, ties to the earlier arm. *)
let test_portfolio_matches_sequential () =
  Dp.with_pool ~domains:(test_domains ()) @@ fun pool ->
  for seed = 50 to 99 do
    let ds, q = make_instance seed in
    let here = Printf.sprintf "seed%d" seed in
    let expected =
      List.fold_left
        (fun best algo ->
          let r = P.plan ~options algo q ~train:ds in
          match best with
          | Some (_, (b : P.result)) when b.P.est_cost <= r.P.est_cost -> best
          | _ -> Some (algo, r))
        None Pf.default_algorithms
    in
    let raced = Pf.race ~options ~pool q ~train:ds in
    match (expected, raced.Pf.winner) with
    | Some (ea, er), Some (ra, rr) ->
        Alcotest.(check string)
          (here ^ " winner")
          (P.algorithm_name ea) (P.algorithm_name ra);
        Alcotest.(check (float 0.0)) (here ^ " est") er.P.est_cost rr.P.est_cost;
        Alcotest.(check bool)
          (here ^ " plan") true
          (Plan.equal er.P.plan rr.P.plan)
    | _ -> Alcotest.fail (here ^ ": a finished winner was expected")
  done

(* ------------------------------------------------------------------ *)
(* Workload fan-out: pool sizes 1, 2, and N give the same canonical
   report as the sequential path, and two independent N-domain runs
   are byte-identical. *)

let fanout_fixture () =
  let ds, _ = make_instance 1000 in
  let train, test = DS.split_by_time ds ~train_fraction:0.5 in
  let schema = DS.schema ds in
  let domains = S.domains schema in
  let gen_query rng =
    let n_preds = 1 + Rng.int rng (min 3 (S.arity schema)) in
    Q.create schema (random_preds rng ~domains ~n_preds)
  in
  let specs =
    [
      {
        Pe.name = "heuristic";
        build = (fun q -> P.plan ~options P.Heuristic q ~train);
      };
      {
        Pe.name = "corrseq";
        build = (fun q -> P.plan ~options P.Corr_seq q ~train);
      };
    ]
  in
  let fan ?pool () =
    Pe.run ?pool ~seed:7 ~specs ~gen_query ~n_queries:12 ~train ~test ()
  in
  fan

let test_parallel_experiment_determinism () =
  let fan = fanout_fixture () in
  let canon (o : Pe.outcome) = Pe.report_to_string o.Pe.report in
  let seq = canon (fan ()) in
  List.iter
    (fun domains ->
      let par = Dp.with_pool ~domains (fun pool -> canon (fan ~pool ())) in
      Alcotest.(check string)
        (Printf.sprintf "%d-domain run = sequential" domains)
        seq par)
    [ 1; 2; test_domains () ];
  let n = test_domains () in
  let once () = Dp.with_pool ~domains:n (fun pool -> canon (fan ~pool ())) in
  Alcotest.(check string) "two pool runs byte-identical" (once ()) (once ())

(* ------------------------------------------------------------------ *)
(* Cancellation: losing arms lose gracefully. *)

let test_portfolio_budget_arm () =
  with_alarm 5 @@ fun () ->
  let ds, q = make_instance 200 in
  let opts = { options with exhaustive_budget = 0 } in
  Dp.with_pool ~domains:3 @@ fun pool ->
  let o = Pf.race ~options:opts ~pool q ~train:ds in
  let ex_arm =
    List.find (fun (a : Pf.arm) -> a.Pf.algorithm = P.Exhaustive) o.Pf.arms
  in
  Alcotest.(check string)
    "exhaustive arm lost on budget" "budget"
    (Pf.status_name ex_arm.Pf.status);
  (match o.Pf.winner with
  | Some (a, _) ->
      Alcotest.(check bool)
        "winner is a surviving arm" true
        (a <> P.Exhaustive)
  | None -> Alcotest.fail "surviving arms should still produce a winner");
  let s = Dp.stats pool in
  Alcotest.(check int) "no leaked tasks" s.Dp.submitted s.Dp.completed

(* The sampled Pac arm's refinement loop re-scores every candidate per
   round, so it spends strictly more search ticks than a single
   sequential sweep. A budget calibrated to CorrSeq's exact effort
   starves Pac alone: it must lose with status "budget" while CorrSeq
   wins, and the pool must drain every task. *)
let test_portfolio_sampled_arm_starved () =
  with_alarm 5 @@ fun () ->
  let ds, q = make_instance 202 in
  let corr = P.plan ~options P.Corr_seq q ~train:ds in
  let pac = P.plan ~options P.Pac q ~train:ds in
  let corr_nodes = corr.P.stats.Acq_core.Search.nodes_solved in
  let pac_nodes = pac.P.stats.Acq_core.Search.nodes_solved in
  Alcotest.(check bool)
    (Printf.sprintf "pac outspends corrseq (%d > %d)" pac_nodes corr_nodes)
    true (pac_nodes > corr_nodes);
  let opts = { options with search_budget = Some corr_nodes } in
  Dp.with_pool ~domains:2 @@ fun pool ->
  let o =
    Pf.race ~options:opts ~algorithms:[ P.Corr_seq; P.Pac ] ~pool q ~train:ds
  in
  let arm a = List.find (fun (x : Pf.arm) -> x.Pf.algorithm = a) o.Pf.arms in
  Alcotest.(check string)
    "pac arm lost on budget" "budget"
    (Pf.status_name (arm P.Pac).Pf.status);
  Alcotest.(check string)
    "corrseq arm finished" "finished"
    (Pf.status_name (arm P.Corr_seq).Pf.status);
  (match o.Pf.winner with
  | Some (a, r) ->
      Alcotest.(check string)
        "corrseq wins" "CorrSeq" (P.algorithm_name a);
      Alcotest.(check (float 0.0)) "winning cost" corr.P.est_cost r.P.est_cost
  | None -> Alcotest.fail "the surviving arm should win");
  let s = Dp.stats pool in
  Alcotest.(check int) "no leaked tasks" s.Dp.submitted s.Dp.completed

let test_portfolio_deadline_all_arms () =
  with_alarm 5 @@ fun () ->
  let ds, q = make_instance 201 in
  let opts = { options with deadline_ms = Some 0.0 } in
  Dp.with_pool ~domains:3 @@ fun pool ->
  let o = Pf.race ~options:opts ~pool q ~train:ds in
  List.iter
    (fun (a : Pf.arm) ->
      Alcotest.(check string)
        (P.algorithm_name a.Pf.algorithm ^ " deadline")
        "deadline"
        (Pf.status_name a.Pf.status))
    o.Pf.arms;
  Alcotest.(check bool) "no winner" true (o.Pf.winner = None);
  let s = Dp.stats pool in
  Alcotest.(check int) "no leaked tasks" s.Dp.submitted s.Dp.completed

(* A zero deadline fails every plan, however fast: a one-predicate Pac
   or Naive plan solves a single node, often within the clock's
   resolution of the search's start. *)
let test_zero_deadline_fast_plans () =
  let ds, q = make_instance 201 in
  Alcotest.(check int) "one predicate" 1 (Q.n_predicates q);
  let opts = { options with deadline_ms = Some 0.0 } in
  List.iter
    (fun algo ->
      for i = 1 to 200 do
        match P.plan ~options:opts algo q ~train:ds with
        | _ ->
            Alcotest.failf "%s finished under a 0 ms deadline (try %d)"
              (P.algorithm_name algo) i
        | exception Acq_core.Search.Deadline_exceeded -> ()
      done)
    [ P.Pac; P.Naive ]

(* ------------------------------------------------------------------ *)
(* Robustness: exceptions are contained, shutdown is clean and
   idempotent, nothing hangs. *)

let test_pool_task_exception () =
  with_alarm 5 @@ fun () ->
  let pool = Dp.create ~domains:(test_domains ()) () in
  let bad = Dp.submit pool (fun _ -> failwith "boom") in
  (match Dp.await pool bad with
  | Error (Failure msg) -> Alcotest.(check string) "message" "boom" msg
  | Error e -> Alcotest.failf "unexpected exception: %s" (Printexc.to_string e)
  | Ok _ -> Alcotest.fail "expected the task's exception");
  (* The worker that ran the raising task is still alive. *)
  let ok = Dp.submit pool (fun _ -> 21 * 2) in
  Alcotest.(check int) "pool alive after exception" 42 (Dp.await_exn pool ok);
  Dp.shutdown pool;
  let s = Dp.stats pool in
  Alcotest.(check int) "submitted" 2 s.Dp.submitted;
  Alcotest.(check int) "completed" 2 s.Dp.completed;
  (* Idempotent: a second shutdown is a no-op, not a deadlock. *)
  Dp.shutdown pool

let test_pool_shutdown_with_pending_work () =
  with_alarm 5 @@ fun () ->
  let pool = Dp.create ~domains:2 () in
  let futs =
    List.init 16 (fun i ->
        Dp.submit pool (fun _ ->
            if i mod 5 = 4 then failwith "sporadic" else i))
  in
  (* Shut down without awaiting: the pool must drain every task. *)
  Dp.shutdown pool;
  let s = Dp.stats pool in
  Alcotest.(check int) "all tasks drained" 16 s.Dp.completed;
  (* Futures settled during the drain are still collectable. *)
  List.iteri
    (fun i f ->
      match Dp.await pool f with
      | Ok v -> Alcotest.(check int) "value" i v
      | Error (Failure msg) ->
          Alcotest.(check string) "message" "sporadic" msg;
          Alcotest.(check int) "raising index" 4 (i mod 5)
      | Error e -> Alcotest.failf "unexpected: %s" (Printexc.to_string e))
    futs

(* Once every future is awaited, [stats] counts every task completed:
   a task's outcome and its [completed] count are published together. *)
let test_pool_awaited_tasks_counted () =
  with_alarm 20 @@ fun () ->
  Dp.with_pool ~domains:(test_domains ()) @@ fun pool ->
  for round = 1 to 5_000 do
    let futs = List.init 4 (fun i -> Dp.submit pool (fun _ -> i)) in
    List.iter (fun f -> ignore (Dp.await_exn pool f : int)) futs;
    let s = Dp.stats pool in
    if s.Dp.submitted <> s.Dp.completed then
      Alcotest.failf "round %d: submitted %d, completed %d" round
        s.Dp.submitted s.Dp.completed
  done

(* ------------------------------------------------------------------ *)
(* Telemetry shards: worker-side counters surface in the creating
   registry after shutdown, planner counters included. *)

let test_shard_merge () =
  with_alarm 10 @@ fun () ->
  let m = Acq_obs.Metrics.create () in
  let obs = Acq_obs.Telemetry.create ~metrics:m () in
  let ds, q = make_instance 300 in
  Dp.with_pool ~telemetry:obs ~domains:(test_domains ()) (fun pool ->
      List.init 8 (fun _ ->
          Dp.submit pool (fun tele ->
              ignore
                (P.plan ~options ~telemetry:tele P.Heuristic q ~train:ds
                  : P.result)))
      |> List.iter (fun f -> ignore (Dp.await_exn pool f)));
  let snap = Acq_obs.Metrics.snapshot m in
  let total name =
    List.fold_left
      (fun acc (k, v) ->
        if
          String.length k >= String.length name
          && String.sub k 0 (String.length name) = name
        then acc +. v
        else acc)
      0.0 snap
  in
  Alcotest.(check (float 0.0)) "tasks counted" 8.0 (total "acqp_par_tasks_total");
  Alcotest.(check (float 0.0))
    "planner shards merged" 8.0
    (total "acqp_planner_plans_total");
  Alcotest.(check bool)
    "per-task histogram present" true
    (total "acqp_par_task_ms" > 0.0)

(* ------------------------------------------------------------------ *)
(* Concurrent reads of one empirical backend. Its count tables and its
   deferred children's rows are caches filled on first use, and the
   backend promises safe reads from several domains at once, so
   workers race to fill the same slots. Every worker must
   read exactly the sequential answers, and none may raise. *)

let test_shared_empirical_reads () =
  let ds = Acq_data.Lab_gen.generate (Rng.create 11) ~rows:6000 in
  let q = Acq_workload.Query_gen.lab_query (Rng.create 12) ~train:ds in
  let domains = S.domains (DS.schema ds) in
  let n = Array.length domains in
  let preds = Q.predicates q in
  let dup = [| preds.(0); preds.(0); preds.(Array.length preds - 1) |] in
  let half a = Acq_plan.Range.make 0 (domains.(a) / 2) in
  let upper a = Acq_plan.Range.make (domains.(a) / 2) (domains.(a) - 1) in
  (* A root, both halves of every attribute, and one grandchild each. *)
  let family () =
    let root = Acq_prob.Backend.empirical ds in
    let children =
      List.concat
        (List.init n (fun a ->
             let lo = Acq_prob.Backend.restrict_range root a (half a) in
             let hi = Acq_prob.Backend.restrict_range root a (upper a) in
             let b = (a + 1) mod n in
             [ lo; hi; Acq_prob.Backend.restrict_range lo b (upper b) ]))
    in
    root :: children
  in
  let read states =
    List.concat_map
      (fun st ->
        let w = Acq_prob.Backend.weight st in
        let ranges =
          List.init n (fun a -> Acq_prob.Backend.range_prob st a (half a))
        in
        let patterns =
          Array.to_list (Acq_prob.Backend.pattern_probs st preds)
          @ Array.to_list (Acq_prob.Backend.pattern_probs st dup)
        in
        let values =
          List.concat
            (List.init n (fun a ->
                 Array.to_list (Acq_prob.Backend.value_probs st a)))
        in
        List.map Int64.bits_of_float ((w :: ranges) @ patterns @ values))
      states
  in
  let expected = read (family ()) in
  Dp.with_pool ~domains:(test_domains ()) @@ fun pool ->
  for round = 1 to 5 do
    (* A fresh family per round: every cache starts empty. *)
    let shared = family () in
    let futures =
      List.init (2 * Dp.size pool) (fun _ ->
          Dp.submit pool (fun _tele -> read shared))
    in
    List.iteri
      (fun i f ->
        let here = Printf.sprintf "round %d, reader %d" round i in
        match Dp.await pool f with
        | Ok got -> Alcotest.(check (list int64)) here expected got
        | Error e -> Alcotest.failf "%s raised %s" here (Printexc.to_string e))
      futures
  done

(* ------------------------------------------------------------------ *)
(* RNG stream splitting: streams depend on (seed, index) only. *)

let test_split_n_deterministic () =
  let draw g = List.init 5 (fun _ -> Rng.int g 1_000_000) in
  let a = Rng.split_n (Rng.create 99) 6 in
  let b = Rng.split_n (Rng.create 99) 6 in
  Alcotest.(check int) "length" 6 (Array.length a);
  (* Same streams from the same seed... *)
  let fwd = Array.map draw a in
  (* ...even when consumed in the opposite order. *)
  for i = 5 downto 0 do
    Alcotest.(check (list int))
      (Printf.sprintf "stream %d order-independent" i)
      fwd.(i) (draw b.(i))
  done;
  (* Distinct streams actually differ. *)
  Alcotest.(check bool) "streams differ" true (fwd.(0) <> fwd.(1));
  Alcotest.(check int) "n=0 fine" 0 (Array.length (Rng.split_n (Rng.create 1) 0))

let () =
  Alcotest.run "par"
    [
      ( "differential",
        [
          Alcotest.test_case "every planner, pool = sequential, 50 seeds"
            `Quick test_planner_differential;
          Alcotest.test_case "fan-out reports byte-identical" `Quick
            test_parallel_experiment_determinism;
          Alcotest.test_case "shared empirical backend, concurrent reads"
            `Quick test_shared_empirical_reads;
          Alcotest.test_case "portfolio = sequential argmin, 50 seeds" `Quick
            test_portfolio_matches_sequential;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "budget-starved arm loses cleanly" `Quick
            test_portfolio_budget_arm;
          Alcotest.test_case "starved sampled arm loses cleanly" `Quick
            test_portfolio_sampled_arm_starved;
          Alcotest.test_case "expired deadline fails every arm" `Quick
            test_portfolio_deadline_all_arms;
          Alcotest.test_case "zero deadline fails one-node plans" `Quick
            test_zero_deadline_fast_plans;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "task exception contained" `Quick
            test_pool_task_exception;
          Alcotest.test_case "shutdown drains pending work" `Quick
            test_pool_shutdown_with_pending_work;
          Alcotest.test_case "awaited tasks are counted" `Quick
            test_pool_awaited_tasks_counted;
        ] );
      ( "telemetry",
        [ Alcotest.test_case "worker shards merge" `Quick test_shard_merge ] );
      ( "rng",
        [
          Alcotest.test_case "split_n deterministic" `Quick
            test_split_n_deterministic;
        ] );
    ]
