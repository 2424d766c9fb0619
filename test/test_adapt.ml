(* Unit and integration tests for Acq_adapt: plan cache, replanning
   policies, the per-query session state machine, the multi-query
   supervisor, and the end-to-end adaptive runtime on drifting and
   stationary traces. *)

module Rng = Acq_util.Rng
module DS = Acq_data.Dataset
module S = Acq_data.Schema
module A = Acq_data.Attribute
module Pred = Acq_plan.Predicate
module Q = Acq_plan.Query
module Plan = Acq_plan.Plan
module P = Acq_core.Planner
module C = Acq_adapt.Plan_cache
module Pol = Acq_adapt.Policy
module Sess = Acq_adapt.Session
module Sup = Acq_adapt.Supervisor

(* ------------------------------------------------------------------ *)
(* Fixture: two expensive binary attributes whose marginals swap at a
   phase change, so the optimal test order reverses — phase A wants
   [x1; x2] (x1 usually fails), phase B wants [x2; x1]. *)

let drift_schema () =
  S.create
    [
      A.discrete ~name:"x1" ~cost:100.0 ~domain:2;
      A.discrete ~name:"x2" ~cost:100.0 ~domain:2;
    ]

let phase_a_row i =
  [| (if i mod 5 = 0 then 1 else 0); (if i mod 5 = 1 then 0 else 1) |]

let phase_b_row i =
  [| (if i mod 5 = 1 then 0 else 1); (if i mod 5 = 0 then 1 else 0) |]

let phase_a_ds rows = DS.create (drift_schema ()) (Array.init rows phase_a_row)

let drift_query schema =
  Q.create schema
    [ Pred.inside ~attr:0 ~lo:1 ~hi:1; Pred.inside ~attr:1 ~lo:1 ~hi:1 ]

let fixture () =
  let schema = drift_schema () in
  (schema, drift_query schema, phase_a_ds 200)

(* Small correlated dataset + query for plan-cache entries. *)
let tiny_instance () =
  let schema =
    S.create
      [
        A.discrete ~name:"c" ~cost:1.0 ~domain:2;
        A.discrete ~name:"x" ~cost:100.0 ~domain:2;
      ]
  in
  let rows = Array.init 100 (fun i -> [| i mod 4 / 3; i mod 4 / 3 |]) in
  let ds = DS.create schema rows in
  let q =
    Q.create schema
      [ Pred.inside ~attr:0 ~lo:1 ~hi:1; Pred.inside ~attr:1 ~lo:1 ~hi:1 ]
  in
  (ds, q)

let plan_result () =
  let ds, q = tiny_instance () in
  P.plan P.Heuristic q ~train:ds

(* ------------------------------------------------------------------ *)
(* Plan cache *)

let test_cache_validation () =
  try
    ignore (C.create ~capacity:0 ());
    Alcotest.fail "expected capacity failure"
  with Invalid_argument _ -> ()

let test_cache_signature_normalizes () =
  let _, q = tiny_instance () in
  let schema = Q.schema q in
  let reversed =
    Q.create schema (List.rev (Array.to_list (Q.predicates q)))
  in
  let s1 = C.signature ~algorithm:P.Heuristic q in
  let s2 = C.signature ~algorithm:P.Heuristic reversed in
  Alcotest.(check string) "predicate order irrelevant" s1 s2;
  (* Budgets and deadlines bound planning effort; they do not change
     which cached plan is valid, so they stay out of the key. *)
  let o1 = { P.default_options with search_budget = Some 10 } in
  let o2 =
    { P.default_options with search_budget = Some 99; deadline_ms = Some 5.0 }
  in
  Alcotest.(check string) "budget knobs excluded"
    (C.signature ~options:o1 ~algorithm:P.Heuristic q)
    (C.signature ~options:o2 ~algorithm:P.Heuristic q);
  (* Plan-shaping knobs, the algorithm, and the stats epoch are in. *)
  let o3 = { P.default_options with max_splits = 1 } in
  Alcotest.(check bool) "max_splits in key" false
    (C.signature ~options:o3 ~algorithm:P.Heuristic q
    = C.signature ~options:P.default_options ~algorithm:P.Heuristic q);
  Alcotest.(check bool) "algorithm in key" false
    (C.signature ~algorithm:P.Naive q = C.signature ~algorithm:P.Heuristic q);
  Alcotest.(check bool) "stats epoch in key" false
    (C.signature ~stats_epoch:1 ~algorithm:P.Heuristic q
    = C.signature ~stats_epoch:2 ~algorithm:P.Heuristic q)

(* A query whose WHERE clause rotates a cached one's predicates has the
   same signature but another key: its session misses the cache and
   plans for its own order, so it stays correct. (A hit would hand it
   a plan whose sequential leaves index the original's order.) *)
let test_cache_permuted_query () =
  let ds = Acq_data.Lab_gen.generate (Rng.create 77) ~rows:4_000 in
  let history, live = DS.split_by_time ds ~train_fraction:0.5 in
  let costs = S.costs (DS.schema history) in
  let rows = Array.init (DS.nrows live) (DS.row live) in
  for seed = 300 to 340 do
    let q = Acq_workload.Query_gen.lab_query (Rng.create seed) ~train:history in
    let preds = Array.to_list (Q.predicates q) in
    let rotated = Q.create (Q.schema q) (List.tl preds @ [ List.hd preds ]) in
    let sig_ q = C.signature ~algorithm:P.Heuristic q in
    let key q = C.key ~algorithm:P.Heuristic q in
    Alcotest.(check string) "one signature" (sig_ q) (sig_ rotated);
    Alcotest.(check string) "canonical order: key = signature" (sig_ q) (key q);
    Alcotest.(check bool) "rotation keyed apart" true (key q <> key rotated);
    let cache = C.create ~capacity:4 () in
    let session q =
      Sess.create ~algorithm:P.Heuristic ~cache ~window:40 ~history q
    in
    let original = session q in
    let s = session rotated in
    ignore (session q : Sess.t);
    Alcotest.(check (pair int int)) "hits, misses" (1, 2)
      ((C.stats cache).C.hits, (C.stats cache).C.misses);
    let plan = Sess.plan s in
    Alcotest.(check bool) "the rotation's own plan" true
      (Plan.equal plan (P.plan P.Heuristic rotated ~train:history).P.plan);
    Alcotest.(check bool) "same estimated cost" true
      (Float.equal (Sess.expected_cost original) (Sess.expected_cost s));
    Array.iter
      (fun row ->
        let o = Acq_plan.Executor.run_tuple rotated ~costs plan row in
        Alcotest.(check bool) "verdict" (Q.eval rotated row)
          o.Acq_plan.Executor.verdict)
      rows
  done

let test_cache_lru_eviction () =
  let r = plan_result () in
  let c = C.create ~capacity:2 () in
  C.add c "e0|k1" r;
  C.add c "e0|k2" r;
  (* Touch k1 so k2 becomes the least recently used entry. *)
  Alcotest.(check bool) "k1 hit" true (C.find c "e0|k1" <> None);
  C.add c "e0|k3" r;
  Alcotest.(check bool) "k2 evicted" true (C.find c "e0|k2" = None);
  Alcotest.(check bool) "k1 survives" true (C.find c "e0|k1" <> None);
  Alcotest.(check bool) "k3 present" true (C.find c "e0|k3" <> None);
  let s = C.stats c in
  Alcotest.(check int) "hits" 3 s.C.hits;
  Alcotest.(check int) "misses" 1 s.C.misses;
  Alcotest.(check int) "evictions" 1 s.C.evictions;
  Alcotest.(check int) "size" 2 s.C.size;
  Alcotest.(check int) "capacity" 2 s.C.capacity

let test_cache_find_or_plan () =
  let c = C.create ~capacity:2 () in
  let calls = ref 0 in
  let thunk () =
    incr calls;
    plan_result ()
  in
  let r1 = C.find_or_plan c "e0|k" thunk in
  let r2 = C.find_or_plan c "e0|k" thunk in
  Alcotest.(check int) "planned once" 1 !calls;
  Alcotest.(check bool) "same plan" true (Plan.equal r1.P.plan r2.P.plan)

let test_cache_invalidate () =
  let _, q = tiny_instance () in
  let r = plan_result () in
  let c = C.create ~capacity:8 () in
  List.iter
    (fun e -> C.add c (C.signature ~stats_epoch:e ~algorithm:P.Heuristic q) r)
    [ 0; 1; 2 ];
  Alcotest.(check int) "three entries" 3 (C.size c);
  Alcotest.(check int) "two stale" 2 (C.invalidate c ~older_than:2);
  Alcotest.(check int) "one left" 1 (C.size c);
  Alcotest.(check bool) "survivor is epoch 2" true
    (C.find c (C.signature ~stats_epoch:2 ~algorithm:P.Heuristic q) <> None);
  Alcotest.(check int) "counter" 2 (C.stats c).C.invalidations

(* ------------------------------------------------------------------ *)
(* Policy *)

let obs ?(since = 1_000) ?(full = true) ?(drift = 0.0) ?(cost = 0.0)
    ?(expected = 100.0) ?(n = 1_000) () =
  {
    Pol.epochs_since_switch = since;
    window_full = full;
    drift;
    observed_cost = cost;
    expected_cost = expected;
    observations = n;
  }

let reason =
  Alcotest.testable
    (fun ppf r -> Format.pp_print_string ppf (Pol.describe r))
    ( = )

let test_policy_static () =
  Alcotest.(check (option reason))
    "static never fires" None
    (Pol.evaluate Pol.static_ ~drift_armed:true
       (obs ~drift:1.0 ~cost:1e6 ()))

let test_policy_periodic () =
  let p = Pol.periodic 10 in
  Alcotest.(check (option reason))
    "before period" None
    (Pol.evaluate p ~drift_armed:true (obs ~since:9 ()));
  Alcotest.(check (option reason))
    "at period" (Some (Pol.Periodic 10))
    (Pol.evaluate p ~drift_armed:true (obs ~since:10 ()))

let test_policy_drift_hysteresis () =
  let p = Pol.drift_triggered ~cooldown:0 0.2 in
  let high = obs ~drift:0.3 () in
  Alcotest.(check (option reason))
    "fires armed" (Some (Pol.Drift 0.3))
    (Pol.evaluate p ~drift_armed:true high);
  Alcotest.(check (option reason))
    "silent disarmed" None
    (Pol.evaluate p ~drift_armed:false high);
  Alcotest.(check (option reason))
    "needs a full window" None
    (Pol.evaluate p ~drift_armed:true (obs ~drift:0.3 ~full:false ()));
  Alcotest.(check (option reason))
    "under watermark" None
    (Pol.evaluate p ~drift_armed:true (obs ~drift:0.15 ()));
  (* Re-arming waits for the low watermark (0.1 = 0.2 / 2). *)
  Alcotest.(check bool) "hovering does not re-arm" false
    (Pol.rearms p (obs ~drift:0.15 ()));
  Alcotest.(check bool) "re-arms under low" true
    (Pol.rearms p (obs ~drift:0.05 ()))

let test_policy_regret () =
  let p = Pol.drift_regret ~cooldown:0 0.2 ~regret:1.5 in
  Alcotest.(check (option reason))
    "over factor"
    (Some (Pol.Regret { observed = 200.0; expected = 100.0 }))
    (Pol.evaluate p ~drift_armed:true (obs ~cost:200.0 ()));
  Alcotest.(check (option reason))
    "under factor" None
    (Pol.evaluate p ~drift_armed:true (obs ~cost:140.0 ()));
  Alcotest.(check (option reason))
    "too few observations" None
    (Pol.evaluate p ~drift_armed:true (obs ~cost:200.0 ~n:3 ()))

let test_policy_cooldown () =
  let p = Pol.drift_triggered ~cooldown:100 0.2 in
  Alcotest.(check (option reason))
    "inside cooldown" None
    (Pol.evaluate p ~drift_armed:true (obs ~since:99 ~drift:0.9 ()));
  Alcotest.(check bool) "fires after cooldown" true
    (Pol.evaluate p ~drift_armed:true (obs ~since:100 ~drift:0.9 ()) <> None)

(* ------------------------------------------------------------------ *)
(* Session *)

let test_session_initial_plan () =
  let _, q, history = fixture () in
  let s = Sess.create ~algorithm:P.Corr_seq ~window:40 ~history q in
  Alcotest.(check bool) "fail-fast order [x1; x2]" true
    (Plan.equal (Sess.plan s) (Plan.sequential [ 0; 1 ]));
  Alcotest.(check (float 1.0)) "expected = 100 + P(x1=1)*100" 120.0
    (Sess.expected_cost s);
  Alcotest.(check bool) "serving" true (Sess.state s = Sess.Serving);
  Alcotest.(check int) "search effort recorded" 0
    (Sess.planning_nodes s);
  Alcotest.(check bool) "initial stats populated" true
    ((Sess.initial_stats s).Acq_core.Search.nodes_solved > 0)

let test_session_due_cadence () =
  let _, q, history = fixture () in
  let policy = Pol.drift_triggered ~check_every:10 ~cooldown:0 0.3 in
  let s = Sess.create ~algorithm:P.Corr_seq ~policy ~window:40 ~history q in
  Alcotest.(check bool) "not due at 0" false (Sess.due s);
  for i = 0 to 8 do
    Sess.observe s ~cost:120.0 (phase_a_row i)
  done;
  Alcotest.(check bool) "not due at 9" false (Sess.due s);
  Sess.observe s ~cost:120.0 (phase_a_row 9);
  Alcotest.(check bool) "due at 10" true (Sess.due s)

let test_session_drift_switch () =
  let _, q, history = fixture () in
  let policy = Pol.drift_triggered ~check_every:10 ~cooldown:0 0.3 in
  let installed = ref [] in
  let on_switch plan sw = installed := (plan, sw) :: !installed in
  let s =
    Sess.create ~algorithm:P.Corr_seq ~policy ~on_switch ~window:40 ~history q
  in
  let sw = ref None in
  for i = 0 to 99 do
    match Sess.step s ~cost:120.0 (phase_b_row i) with
    | Some x -> sw := Some x
    | None -> ()
  done;
  (match !sw with
  | None -> Alcotest.fail "expected a plan switch"
  | Some sw ->
      (* Window fills at 40 (first possible drift alarm), the alarm
         must survive to the next check — the switch lands at 50. *)
      Alcotest.(check int) "switch epoch" 50 sw.Sess.epoch;
      (match sw.Sess.reason with
      | Pol.Drift d ->
          Alcotest.(check bool) "drift score above watermark" true (d > 0.3)
      | r -> Alcotest.fail ("expected drift trigger, got " ^ Pol.describe r));
      Alcotest.(check (float 1.0)) "old expected" 120.0 sw.Sess.old_expected;
      Alcotest.(check bool) "plan bytes positive" true (sw.Sess.plan_bytes > 0));
  Alcotest.(check bool) "order reversed to [x2; x1]" true
    (Plan.equal (Sess.plan s) (Plan.sequential [ 1; 0 ]));
  Alcotest.(check int) "exactly one replan" 1 (Sess.replans s);
  Alcotest.(check int) "exactly one switch" 1 (List.length (Sess.switches s));
  Alcotest.(check int) "on_switch called once" 1 (List.length !installed);
  Alcotest.(check bool) "callback got the installed plan" true
    (Plan.equal (fst (List.hd !installed)) (Sess.plan s));
  Alcotest.(check bool) "back to serving" true (Sess.state s = Sess.Serving);
  Alcotest.(check bool) "drift settled after rebase" true (Sess.drift s < 0.1);
  (* The full state trajectory went through every machine state. *)
  let states = List.map snd (Sess.transitions s) in
  List.iter
    (fun st ->
      Alcotest.(check bool) "state visited" true (List.mem st states))
    [ Sess.Serving; Sess.Drifting; Sess.Replanning; Sess.Switching ];
  Alcotest.(check bool) "search effort accounted" true
    (Sess.planning_nodes s > 0)

let test_session_hysteresis_clears () =
  let _, q, history = fixture () in
  (* Regret-only policy: drift off, fires when realized cost runs 50%
     over the estimate. *)
  let policy =
    {
      Pol.static_ with
      check_every = 5;
      cooldown = 0;
      regret_factor = Some 1.5;
      min_observations = 3;
    }
  in
  let s = Sess.create ~algorithm:P.Corr_seq ~policy ~window:40 ~history q in
  let expected = Sess.expected_cost s in
  (* Five pricey epochs raise the alarm... *)
  for i = 0 to 4 do
    ignore (Sess.step s ~cost:(expected *. 1.6) (phase_a_row i))
  done;
  Alcotest.(check bool) "alarm raised" true (Sess.state s = Sess.Drifting);
  (* ...five free ones drag the mean back under the bar before the
     confirming check: hysteresis clears without a replan. *)
  for i = 5 to 9 do
    ignore (Sess.step s ~cost:0.0 (phase_a_row i))
  done;
  Alcotest.(check bool) "alarm cleared" true (Sess.state s = Sess.Serving);
  Alcotest.(check int) "no replans" 0 (Sess.replans s);
  Alcotest.(check (list (pair int reason))) "no switches recorded" []
    (List.map (fun (sw : Sess.switch) -> (sw.Sess.epoch, sw.Sess.reason))
       (Sess.switches s))

let test_session_same_plan_no_switch () =
  let _, q, history = fixture () in
  let policy =
    {
      Pol.static_ with
      check_every = 5;
      cooldown = 0;
      regret_factor = Some 1.5;
      min_observations = 3;
    }
  in
  let s = Sess.create ~algorithm:P.Corr_seq ~policy ~window:40 ~history q in
  let expected = Sess.expected_cost s in
  (* Sustained (phantom) regret on phase-A data: the confirmed trigger
     replans, the window agrees with history, the plan comes back
     identical — statistics refresh, no switch, no dissemination. *)
  for i = 0 to 59 do
    ignore (Sess.step s ~cost:(expected *. 2.0) (phase_a_row i))
  done;
  Alcotest.(check bool) "replanned at least once" true (Sess.replans s >= 1);
  Alcotest.(check int) "never switched" 0 (List.length (Sess.switches s));
  Alcotest.(check bool) "plan unchanged" true
    (Plan.equal (Sess.plan s) (Plan.sequential [ 0; 1 ]));
  Alcotest.(check bool) "serving" true (Sess.state s = Sess.Serving)

let test_session_failed_replan () =
  let _, q, history = fixture () in
  let policy = Pol.drift_triggered ~check_every:10 ~cooldown:0 0.3 in
  (* A zero-node budget: every confirmed replan exhausts the Search
     budget and the old plan keeps serving. *)
  let s =
    Sess.create ~algorithm:P.Corr_seq ~policy ~replan_budget:0 ~window:40
      ~history q
  in
  (* 50 epochs: alarm at 40, confirmed-but-failed replan at 50. *)
  for i = 0 to 49 do
    ignore (Sess.step s ~cost:120.0 (phase_b_row i))
  done;
  Alcotest.(check bool) "failed at least once" true (Sess.failed_replans s >= 1);
  Alcotest.(check int) "no successful replans" 0 (Sess.replans s);
  Alcotest.(check int) "no switches" 0 (List.length (Sess.switches s));
  Alcotest.(check bool) "old plan still serving" true
    (Plan.equal (Sess.plan s) (Plan.sequential [ 0; 1 ]));
  Alcotest.(check bool) "recovered to serving" true
    (Sess.state s = Sess.Serving)

let test_session_budget_starved_defers () =
  let _, q, history = fixture () in
  let policy = Pol.drift_triggered ~check_every:10 ~cooldown:0 0.3 in
  let s = Sess.create ~algorithm:P.Corr_seq ~policy ~window:40 ~history q in
  for i = 0 to 39 do
    Sess.observe s ~cost:120.0 (phase_b_row i)
  done;
  Alcotest.(check bool) "first check raises the alarm" true
    (Sess.check ~max_nodes:0 s = None && Sess.state s = Sess.Drifting);
  Alcotest.(check bool) "starved check defers, stays drifting" true
    (Sess.check ~max_nodes:0 s = None && Sess.state s = Sess.Drifting);
  (* Budget restored: the still-confirmed trigger replans immediately. *)
  Alcotest.(check bool) "funded check switches" true
    (Sess.check s <> None && Sess.state s = Sess.Serving)

let test_session_cache_shared () =
  let _, q, history = fixture () in
  let cache = C.create ~capacity:8 () in
  let policy = Pol.drift_triggered ~check_every:10 ~cooldown:0 0.3 in
  let mk () =
    Sess.create ~algorithm:P.Corr_seq ~policy ~cache ~window:40 ~history q
  in
  let s1 = mk () in
  ignore s1;
  let s2 = mk () in
  (* The second session's initial plan comes straight from the cache. *)
  Alcotest.(check int) "one miss, one hit" 1 (C.stats cache).C.hits;
  (* Replans are keyed by the window's rows: s3's window views the same
     ring as s2's from the same generation, so it holds the same rows. *)
  let s3 = mk () in
  let ring = Acq_prob.Sliding.create (drift_schema ()) ~capacity:40 in
  Alcotest.(check bool) "s2 on the ring" true (Sess.attach s2 ring);
  Alcotest.(check bool) "s3 on the ring" true (Sess.attach s3 ring);
  for i = 0 to 59 do
    Acq_prob.Sliding.push ring (phase_b_row i);
    List.iter (fun s -> ignore (Sess.step s ~cost:120.0 (phase_b_row i))) [ s2; s3 ]
  done;
  Alcotest.(check int) "s2's replan missed" 2 (C.stats cache).C.misses;
  Alcotest.(check int) "s3's replan hit s2's entry" 3 (C.stats cache).C.hits;
  Alcotest.(check bool) "cached switch marked" true
    (List.exists
       (fun (sw : Sess.switch) -> sw.Sess.cache_hit)
       (Sess.switches s3));
  (* The same trajectory on another ring is another stream: its rows
     are not the ring's, so the plan is not shared. *)
  let s4 = mk () in
  for i = 0 to 59 do
    ignore (Sess.step s4 ~cost:120.0 (phase_b_row i))
  done;
  Alcotest.(check int) "private window misses" 3 (C.stats cache).C.misses;
  Alcotest.(check bool) "same plan all the same" true
    (Plan.equal (Sess.plan s4) (Sess.plan s3))

(* ------------------------------------------------------------------ *)
(* Supervisor *)

let test_supervisor_validation () =
  try
    ignore (Sup.create []);
    Alcotest.fail "expected empty-session failure"
  with Invalid_argument _ -> ()

let test_supervisor_metering_and_switches () =
  let _, q, history = fixture () in
  let policy = Pol.drift_triggered ~check_every:10 ~cooldown:0 0.3 in
  let mk () = Sess.create ~algorithm:P.Corr_seq ~policy ~window:40 ~history q in
  let sup = Sup.create [ mk (); mk () ] in
  for i = 0 to 59 do
    let outcomes = Sup.step sup (phase_b_row i) in
    Alcotest.(check int) "one outcome per session" 2 (Array.length outcomes)
  done;
  Alcotest.(check int) "epochs" 60 (Sup.epoch sup);
  (* Phase B satisfies x1=1 AND x2=1 on every i mod 5 = 0 row: 12 of
     60 rows, for each of the two sessions. *)
  Alcotest.(check int) "matches metered per session" 24 (Sup.matches sup);
  Alcotest.(check bool) "acquisition metered" true
    (Sup.acquisition_cost sup > 0.0);
  let switches = Sup.switches sup in
  Alcotest.(check int) "both sessions switched" 2 (List.length switches);
  Alcotest.(check (list int)) "tagged with session index" [ 0; 1 ]
    (List.sort compare (List.map fst switches));
  Alcotest.(check int) "switch bytes summed"
    (List.fold_left
       (fun a (_, (sw : Sess.switch)) -> a + sw.Sess.plan_bytes)
       0 switches)
    (Sup.switch_bytes sup);
  Alcotest.(check int) "nothing deferred" 0 (Sup.deferred_replans sup)

let test_supervisor_shared_budget () =
  let _, q, history = fixture () in
  let policy = Pol.drift_triggered ~check_every:10 ~cooldown:0 0.3 in
  let mk () = Sess.create ~algorithm:P.Corr_seq ~policy ~window:40 ~history q in
  let sup = Sup.create ~planning_budget:0 [ mk (); mk () ] in
  for i = 0 to 59 do
    ignore (Sup.step sup (phase_b_row i))
  done;
  Alcotest.(check int) "no switches without budget" 0
    (List.length (Sup.switches sup));
  Alcotest.(check bool) "confirmed triggers deferred" true
    (Sup.deferred_replans sup > 0);
  Alcotest.(check int) "budget exhausted" 0 (Sup.budget_remaining sup);
  List.iter
    (fun s ->
      Alcotest.(check bool) "sessions parked drifting" true
        (Sess.state s = Sess.Drifting))
    (Sup.sessions sup)

let test_supervisor_budget_drains () =
  let _, q, history = fixture () in
  let policy = Pol.drift_triggered ~check_every:10 ~cooldown:0 0.3 in
  let mk () = Sess.create ~algorithm:P.Corr_seq ~policy ~window:40 ~history q in
  let budget = 1_000_000 in
  let sup = Sup.create ~planning_budget:budget [ mk () ] in
  for i = 0 to 59 do
    ignore (Sup.step sup (phase_b_row i))
  done;
  let spent = budget - Sup.budget_remaining sup in
  Alcotest.(check bool) "replan charged to the shared budget" true (spent > 0);
  Alcotest.(check int) "charge equals the session's planning nodes" spent
    (List.fold_left (fun a s -> a + Sess.planning_nodes s) 0 (Sup.sessions sup))

let test_supervisor_register_drift_unregister () =
  (* The daemon lifecycle: dynamic registration, a drift that parks on
     an exhausted budget, then unregistration that releases the park
     and leaves no leaked sessions or dangling budget claims. *)
  let _, q, history = fixture () in
  let policy = Pol.drift_triggered ~check_every:10 ~cooldown:0 0.3 in
  let mk () = Sess.create ~algorithm:P.Corr_seq ~policy ~window:40 ~history q in
  let sup = Sup.create_empty ~planning_budget:0 () in
  Alcotest.(check int) "starts empty" 0 (List.length (Sup.sessions sup));
  Alcotest.(check (array int)) "empty step" [||]
    (Array.map (fun _ -> 0) (Sup.step sup (phase_b_row 0)));
  let id_a = Sup.register sup (mk ()) in
  let id_b = Sup.register sup (mk ()) in
  Alcotest.(check bool) "distinct ids" true (id_a <> id_b);
  for i = 0 to 59 do
    let outcomes = Sup.step sup (phase_b_row i) in
    Alcotest.(check int) "one outcome per live session" 2
      (Array.length outcomes)
  done;
  (* Budget 0: both sessions confirmed their drift trigger and parked. *)
  Alcotest.(check int) "both parked" 2 (Sup.parked_sessions sup);
  Alcotest.(check bool) "replans deferred" true (Sup.deferred_replans sup > 0);
  Alcotest.(check bool) "released a parked replan" true
    (Sup.unregister sup id_a);
  Alcotest.(check int) "one park released" 1 (Sup.released_parked sup);
  Alcotest.(check int) "one session left" 1 (List.length (Sup.sessions sup));
  Alcotest.(check int) "one park left" 1 (Sup.parked_sessions sup);
  Alcotest.(check bool) "double unregister is false" false
    (Sup.unregister sup id_a);
  Alcotest.(check bool) "lookup removed id" true (Sup.session sup id_a = None);
  (* The survivor still serves alone. *)
  let outcomes = Sup.step sup (phase_b_row 60) in
  Alcotest.(check int) "survivor outcome" 1 (Array.length outcomes);
  Alcotest.(check bool) "second release" true (Sup.unregister sup id_b);
  Alcotest.(check int) "no sessions leaked" 0 (List.length (Sup.sessions sup));
  Alcotest.(check int) "no parks leaked" 0 (Sup.parked_sessions sup);
  Alcotest.(check int) "no live budget charges" 0 (Sup.charged_nodes sup);
  Alcotest.(check int) "unregistrations counted" 2 (Sup.unregistered sup);
  Alcotest.(check (array int)) "empty again" [||]
    (Array.map (fun _ -> 0) (Sup.step sup (phase_b_row 61)))

let test_supervisor_register_charges_budget () =
  (* A dynamically registered session replans out of the shared budget
     and its charge is settled (dropped from charged_nodes) when it
     leaves. *)
  let _, q, history = fixture () in
  let policy = Pol.drift_triggered ~check_every:10 ~cooldown:0 0.3 in
  let budget = 1_000_000 in
  let sup = Sup.create_empty ~planning_budget:budget () in
  let id =
    Sup.register sup
      (Sess.create ~algorithm:P.Corr_seq ~policy ~window:40 ~history q)
  in
  for i = 0 to 59 do
    ignore (Sup.step sup (phase_b_row i))
  done;
  let spent = budget - Sup.budget_remaining sup in
  Alcotest.(check bool) "replan charged" true (spent > 0);
  Alcotest.(check int) "ledger matches" spent (Sup.charged_nodes sup);
  Alcotest.(check bool) "switched" true (List.length (Sup.switches sup) > 0);
  Alcotest.(check (list int)) "switches tagged with id" [ id ]
    (List.sort_uniq compare (List.map fst (Sup.switches sup)));
  ignore (Sup.unregister sup id : bool);
  Alcotest.(check int) "charge settled on departure" 0
    (Sup.charged_nodes sup);
  Alcotest.(check int) "spent nodes stay spent" (budget - spent)
    (Sup.budget_remaining sup)

let test_supervisor_late_joiner_own_window () =
  (* A session that joins mid-stream replans from its own window: the
     plan and expected cost it installs are those the same session
     plans when served alone, not those planned from the window of an
     earlier session of the same shape. *)
  let _, q, history = fixture () in
  let policy = Pol.periodic ~check_every:10 20 in
  let cache = C.create ~capacity:16 () in
  let mk ?cache () =
    Sess.create ?cache ~algorithm:P.Corr_seq ~policy ~window:40 ~history q
  in
  let row i = if i < 30 then phase_a_row i else phase_b_row i in
  let sup = Sup.create_empty () in
  ignore (Sup.register sup (mk ~cache ()) : int);
  let late = mk ~cache () and alone = mk () in
  for i = 0 to 99 do
    if i = 15 then ignore (Sup.register sup late : int);
    ignore (Sup.step sup (row i));
    if i >= 15 then begin
      let o = Sess.execute alone ~lookup:(fun a -> (row i).(a)) in
      ignore (Sess.step alone ~cost:o.Acq_plan.Executor.cost (row i))
    end
  done;
  Alcotest.(check int) "late joiner replanned" 2 (Sess.replans late);
  Alcotest.(check int) "as often as alone" (Sess.replans alone)
    (Sess.replans late);
  Alcotest.(check (float 0.0)) "expected cost from its own window"
    (Sess.expected_cost alone) (Sess.expected_cost late);
  Alcotest.(check bool) "same plan as alone" true
    (Plan.equal (Sess.plan alone) (Sess.plan late))

(* 500 sessions over 25 lab shapes, registered round-robin as the
   daemon's subscriptions arrive, on one shared plan cache. *)
let lab_population ?(policy = Pol.drift_triggered ~check_every:32 ~cooldown:64 0.05) () =
  let ds = Acq_data.Lab_gen.generate (Rng.create 901) ~rows:4_000 in
  let history, live = DS.split_by_time ds ~train_fraction:0.5 in
  let shapes =
    Array.init 25 (fun i ->
        Acq_workload.Query_gen.lab_query (Rng.create (300 + i)) ~train:history)
  in
  let cache = C.create ~capacity:64 () in
  let sup = Sup.create_empty () in
  let shape_of = Hashtbl.create 512 in
  for j = 0 to 499 do
    let s =
      Sess.create ~cache ~policy ~algorithm:P.Heuristic ~window:512 ~history
        shapes.(j mod 25)
    in
    Hashtbl.replace shape_of (Sup.register sup s) (j mod 25)
  done;
  (sup, live, shape_of)

let test_supervisor_one_execution_per_plan () =
  let sup, live, shape_of = lab_population () in
  let distinct () =
    List.sort_uniq compare
      (List.map2
         (fun id s ->
           (Hashtbl.find shape_of id, Acq_plan.Serialize.encode (Sess.plan s)))
         (Sup.ids sup) (Sup.sessions sup))
    |> List.length
  in
  let ticks = 1_500 in
  let most = ref 0 in
  for i = 0 to ticks - 1 do
    let bound = distinct () in
    Alcotest.(check int) "one group per distinct (query, plan)" bound
      (Sup.plan_groups sup);
    let before = Sup.executions sup in
    ignore (Sup.step sup (DS.row live (i mod DS.nrows live)));
    let ran = Sup.executions sup - before in
    if ran > bound then
      Alcotest.failf "tick %d: %d executions for %d distinct plans" i ran bound;
    most := max !most ran
  done;
  Alcotest.(check bool) "replans moved sessions between groups" true
    (Sup.switches sup <> []);
  Alcotest.(check bool)
    (Printf.sprintf "executions per tick (at most %d) well under 500" !most)
    true (!most <= 100)

let test_supervisor_tick_allocation () =
  (* The tick allocates per plan group, not per session: under a policy
     that never replans, 1024 ticks over 500 sessions average fewer
     than 4 minor words per session per tick. *)
  let sup, live, _ = lab_population ~policy:Pol.static_ () in
  let rows = Array.init 1_024 (fun i -> DS.row live (i mod DS.nrows live)) in
  ignore (Sup.step sup rows.(0));
  let before = Gc.minor_words () in
  Array.iter (fun r -> ignore (Sup.step sup r)) rows;
  let per = (Gc.minor_words () -. before) /. (1_024.0 *. 500.0) in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per session per tick < 4" per)
    true (per < 4.0)

(* Plan groups execute in group order, so a tick's matches arrive
   grouped and have to be put back into registration order: three
   shapes registered round-robin match out of order on most ticks, and
   iter_matches must list exactly the matching sessions, ascending.
   The 500-session lab population checks the same over 25 groups. *)
let check_matches_in_order sup row =
  let outcomes = Sup.step sup row in
  let want =
    List.filteri (fun slot _ -> outcomes.(slot).Acq_plan.Executor.verdict) (Sup.ids sup)
  in
  let got = ref [] in
  Sup.iter_matches sup (fun id o ->
      if not o.Acq_plan.Executor.verdict then Alcotest.fail "a non-match listed";
      got := id :: !got);
  Alcotest.(check (list int)) "matches in registration order" want (List.rev !got);
  List.length want

let test_supervisor_matches_in_order () =
  let schema, _, history = fixture () in
  let p = Pred.inside in
  let shapes =
    [|
      Q.create schema [ p ~attr:1 ~lo:1 ~hi:1 ];
      Q.create schema [ p ~attr:0 ~lo:0 ~hi:0 ];
      Q.create schema [ p ~attr:0 ~lo:0 ~hi:0; p ~attr:1 ~lo:1 ~hi:1 ];
    |]
  in
  let sup = Sup.create_empty () in
  for j = 0 to 8 do
    ignore
      (Sup.register sup
         (Sess.create ~policy:Pol.static_ ~algorithm:P.Heuristic ~window:16
            ~history shapes.(j mod 3))
        : int)
  done;
  Alcotest.(check int) "three plan groups" 3 (Sup.plan_groups sup);
  let all_three = ref 0 in
  for i = 0 to 99 do
    if check_matches_in_order sup (phase_a_row i) = 9 then incr all_three
  done;
  Alcotest.(check bool) "every group matched on some tick" true (!all_three > 0);
  let sup, live, _ = lab_population () in
  for i = 0 to 299 do
    ignore (check_matches_in_order sup (DS.row live (i mod DS.nrows live)) : int)
  done

(* Sharing must not change any session's output. The supervisor (one
   ring, plan groups, a plan cache shared under window keys) against
   every session served alone on a private window without a cache:
   random shapes, windows, and join and leave ticks. The shapes are
   distinct predicate sets: the cache keys permutations of one set
   apart (Plan_cache.key), independently of windows and groups. *)
type member = { shape : int; window : int; join : int; leave : int }

let sharing_queries schema =
  let p = Pred.inside in
  [|
    Q.create schema [ p ~attr:0 ~lo:1 ~hi:1; p ~attr:1 ~lo:1 ~hi:1 ];
    Q.create schema [ p ~attr:0 ~lo:0 ~hi:0; p ~attr:1 ~lo:1 ~hi:1 ];
    Q.create schema [ p ~attr:1 ~lo:0 ~hi:0; p ~attr:0 ~lo:1 ~hi:1 ];
  |]

(* Members come in clones (same shape, window and join tick, their own
   leave tick), so windows coincide and plans are shared. *)
let sharing_gen =
  QCheck2.Gen.(
    let clones =
      map
        (fun ((shape, window, join), spans) ->
          List.map (fun span -> { shape; window; join; leave = join + span }) spans)
        (pair
           (triple (int_bound 2) (oneofl [ 12; 24; 40 ])
              (oneofl [ 0; 0; 7; 19; 33; 60 ]))
           (list_size (int_range 1 3) (int_range 20 160)))
    in
    pair (map List.concat (list_size (int_range 1 5) clones)) (int_bound 3))

let sharing_print (members, flips) =
  Printf.sprintf "flips=%d members=[%s]" flips
    (String.concat "; "
       (List.map
          (fun m ->
            Printf.sprintf "{shape=%d window=%d join=%d leave=%d}" m.shape
              m.window m.join m.leave)
          members))

let switch_log (sw : Sess.switch) =
  Printf.sprintf "%d %s %h %h %d %h %d" sw.Sess.epoch
    (Pol.describe sw.Sess.reason) sw.Sess.old_expected sw.Sess.new_expected
    sw.Sess.plan_bytes sw.Sess.drift
    sw.Sess.search.Acq_core.Search.nodes_solved

let prop_sharing_is_invisible =
  QCheck2.Test.make ~count:40 ~name:"sharing matches private sessions"
    ~print:sharing_print sharing_gen (fun (members, flips) ->
      let _, _, history = fixture () in
      let queries = sharing_queries (DS.schema history) in
      (* Phases alternate every [period] tuples, so windows drift and
         plans switch back and forth. *)
      let period = 25 + (10 * flips) in
      let row i =
        if i / period mod 2 = 0 then phase_a_row i else phase_b_row i
      in
      let policy m =
        if m.shape = 1 then Pol.periodic ~check_every:6 18
        else Pol.drift_triggered ~check_every:4 ~cooldown:8 0.1
      in
      let mk ?cache m =
        Sess.create ?cache ~policy:(policy m) ~algorithm:P.Corr_seq
          ~window:m.window ~history queries.(m.shape)
      in
      let members = Array.of_list members in
      let cache = C.create ~capacity:8 () in
      let sup = Sup.create_empty () in
      let shared = Array.map (fun m -> (m, mk ~cache m, ref (-1))) members in
      let alone = Array.map (fun m -> mk m) members in
      let log_shared = Array.map (fun _ -> Buffer.create 256) members in
      let log_alone = Array.map (fun _ -> Buffer.create 256) members in
      let out b (o : Acq_plan.Executor.outcome) =
        Printf.bprintf b "%b %h %s;" o.verdict o.cost
          (String.concat "," (List.map string_of_int o.acquired))
      in
      let last = Array.fold_left (fun n m -> max n m.leave) 0 members in
      for i = 0 to last do
        Array.iter
          (fun (m, s, id) ->
            if m.join = i then id := Sup.register sup s;
            if m.leave = i then ignore (Sup.unregister sup !id : bool))
          shared;
        let r = row i in
        let outcomes = Sup.step sup r in
        List.iteri
          (fun slot id ->
            Array.iteri
              (fun k (_, _, id') -> if !id' = id then out log_shared.(k) outcomes.(slot))
              shared)
          (Sup.ids sup);
        Array.iteri
          (fun k m ->
            if m.join <= i && i < m.leave then begin
              let s = alone.(k) in
              let o = Sess.execute s ~lookup:(fun a -> r.(a)) in
              out log_alone.(k) o;
              ignore (Sess.step s ~cost:o.Acq_plan.Executor.cost r)
            end)
          members
      done;
      Array.iteri
        (fun k (_, s, _) ->
          let a = alone.(k) in
          if Buffer.contents log_shared.(k) <> Buffer.contents log_alone.(k)
          then QCheck2.Test.fail_reportf "member %d: outcomes differ" k;
          let sw x = List.map switch_log (Sess.switches x) in
          if sw s <> sw a then
            QCheck2.Test.fail_reportf "member %d: switches differ:\n%s\nvs\n%s" k
              (String.concat "\n" (sw s))
              (String.concat "\n" (sw a));
          if Sess.transitions s <> Sess.transitions a then
            QCheck2.Test.fail_reportf "member %d: transitions differ" k;
          if Sess.expected_cost s <> Sess.expected_cost a then
            QCheck2.Test.fail_reportf "member %d: expected %h vs %h" k
              (Sess.expected_cost s) (Sess.expected_cost a);
          if Sess.planning_nodes s <> Sess.planning_nodes a then
            QCheck2.Test.fail_reportf "member %d: planning nodes differ" k)
        shared;
      true)

(* ------------------------------------------------------------------ *)
(* Telemetry *)

let test_adapt_telemetry () =
  let _, q, history = fixture () in
  let m = Acq_obs.Metrics.create () in
  let telemetry = Acq_obs.Telemetry.create ~metrics:m () in
  let cache = C.create ~telemetry ~capacity:4 () in
  let policy = Pol.drift_triggered ~check_every:10 ~cooldown:0 0.3 in
  let s =
    Sess.create ~telemetry ~cache ~algorithm:P.Corr_seq ~policy ~window:40
      ~history q
  in
  for i = 0 to 59 do
    ignore (Sess.step s ~cost:120.0 (phase_b_row i))
  done;
  let snap = Acq_obs.Metrics.snapshot m in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " recorded") true
        (List.exists
           (fun (k, v) ->
             (* Keys render as name{labels}; match on the family. *)
             String.length k >= String.length name
             && String.sub k 0 (String.length name) = name
             && v > 0.0)
           snap))
    [
      "acqp_adapt_replans_total";
      "acqp_adapt_switches_total";
      "acqp_adapt_switch_bytes_total";
      "acqp_adapt_cache_misses_total";
      "acqp_adapt_cache_size";
    ]

(* ------------------------------------------------------------------ *)
(* End-to-end acceptance: the bench scenario, asserted. *)

let adapt_params = { Acq_data.Synthetic_gen.n = 12; gamma = 2; sel = 0.25 }
let change_points = [ 2_000; 4_000 ]

let acceptance_setup () =
  let history =
    Acq_data.Synthetic_gen.generate (Rng.create 71) adapt_params ~rows:2_000
  in
  let schema = DS.schema history in
  let q = Acq_workload.Query_gen.synthetic_query adapt_params ~schema in
  let options =
    {
      P.default_options with
      candidate_attrs = Some (S.cheap_indices schema);
      max_splits = 3;
    }
  in
  (history, q, options)

let drift_policy () = Pol.drift_triggered ~check_every:32 ~cooldown:128 0.10

let run_policy ~history ~options ~live q policy =
  Acq_sensor.Runtime.run_adaptive ~options ~policy ~window:256
    ~algorithm:P.Heuristic ~history ~live q

let test_adaptive_beats_static_on_drift () =
  let module Rt = Acq_sensor.Runtime in
  let history, q, options = acceptance_setup () in
  let live =
    Acq_data.Synthetic_gen.generate_drifting (Rng.create 72) adapt_params
      ~rows:6_000 ~change_points
  in
  let static_r = run_policy ~history ~options ~live q Pol.static_ in
  let adaptive = run_policy ~history ~options ~live q (drift_policy ()) in
  Alcotest.(check bool) "static correct" true static_r.Rt.a_correct;
  Alcotest.(check bool) "adaptive correct" true adaptive.Rt.a_correct;
  Alcotest.(check int) "static never replans" 0 static_r.Rt.a_replans;
  (* The acceptance bar: >= 15% total energy saved (dissemination of
     every switch included), within change_points + 2 replans. *)
  Alcotest.(check bool)
    (Printf.sprintf "adaptive total %.0f <= 0.85 * static total %.0f"
       adaptive.Rt.a_total_energy static_r.Rt.a_total_energy)
    true
    (adaptive.Rt.a_total_energy <= 0.85 *. static_r.Rt.a_total_energy);
  Alcotest.(check bool)
    (Printf.sprintf "replans %d within change points + 2" adaptive.Rt.a_replans)
    true
    (adaptive.Rt.a_replans <= List.length change_points + 2);
  Alcotest.(check int) "no failed replans" 0 adaptive.Rt.a_failed_replans;
  Alcotest.(check bool) "at least one switch per change point" true
    (List.length adaptive.Rt.switches >= List.length change_points);
  List.iter
    (fun (sw : Sess.switch) ->
      match sw.Sess.reason with
      | Pol.Drift _ -> ()
      | r -> Alcotest.fail ("non-drift trigger fired: " ^ Pol.describe r))
    adaptive.Rt.switches

let test_adaptive_quiet_on_stationary () =
  let module Rt = Acq_sensor.Runtime in
  let history, q, options = acceptance_setup () in
  let live =
    Acq_data.Synthetic_gen.generate (Rng.create 73) adapt_params ~rows:6_000
  in
  let static_r = run_policy ~history ~options ~live q Pol.static_ in
  let adaptive = run_policy ~history ~options ~live q (drift_policy ()) in
  Alcotest.(check int) "no drift replans on stationary data" 0
    adaptive.Rt.a_replans;
  Alcotest.(check int) "no switches" 0 (List.length adaptive.Rt.switches);
  (* Same plan served end to end: energy within noise of static. *)
  Alcotest.(check bool) "energy within 0.5% of static" true
    (Float.abs (adaptive.Rt.a_total_energy -. static_r.Rt.a_total_energy)
    <= 0.005 *. static_r.Rt.a_total_energy)

let test_replan_buffer_reuse () =
  (* The replanning hot path (Sliding.backend) must not rebuild the
     window's statistics storage: once the two rotating cell buffers
     and the identity-id array are warm, each push + backend cycle
     allocates only the view/backend wrappers. Copying the window
     instead would cost capacity * arity boxed ints (>= 64 KiB here)
     per replan. *)
  let module Sl = Acq_prob.Sliding in
  let schema = drift_schema () in
  let w = Sl.create schema ~capacity:4_096 in
  for i = 0 to 4_095 do
    Sl.push w (phase_a_row i)
  done;
  (* Warm both buffers and the cached id array. *)
  for i = 0 to 2 do
    Sl.push w (phase_a_row i);
    ignore (Sl.backend w)
  done;
  let cycles = 40 in
  let before = Gc.allocated_bytes () in
  for i = 0 to cycles - 1 do
    Sl.push w (phase_a_row i);
    ignore (Sl.backend w)
  done;
  let per_cycle = (Gc.allocated_bytes () -. before) /. float_of_int cycles in
  Alcotest.(check bool)
    (Printf.sprintf "steady-state replan allocates O(1) (%.0f bytes/cycle)"
       per_cycle)
    true
    (per_cycle < 8_192.0)

let () =
  Alcotest.run "adapt"
    [
      ( "plan cache",
        [
          Alcotest.test_case "validation" `Quick test_cache_validation;
          Alcotest.test_case "signature normalizes" `Quick
            test_cache_signature_normalizes;
          Alcotest.test_case "permuted query keyed apart" `Quick
            test_cache_permuted_query;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "find_or_plan" `Quick test_cache_find_or_plan;
          Alcotest.test_case "invalidate" `Quick test_cache_invalidate;
        ] );
      ( "policy",
        [
          Alcotest.test_case "static" `Quick test_policy_static;
          Alcotest.test_case "periodic" `Quick test_policy_periodic;
          Alcotest.test_case "drift hysteresis" `Quick
            test_policy_drift_hysteresis;
          Alcotest.test_case "regret" `Quick test_policy_regret;
          Alcotest.test_case "cooldown" `Quick test_policy_cooldown;
        ] );
      ( "session",
        [
          Alcotest.test_case "initial plan" `Quick test_session_initial_plan;
          Alcotest.test_case "due cadence" `Quick test_session_due_cadence;
          Alcotest.test_case "drift switch" `Quick test_session_drift_switch;
          Alcotest.test_case "hysteresis clears" `Quick
            test_session_hysteresis_clears;
          Alcotest.test_case "same plan no switch" `Quick
            test_session_same_plan_no_switch;
          Alcotest.test_case "failed replan" `Quick test_session_failed_replan;
          Alcotest.test_case "budget starved defers" `Quick
            test_session_budget_starved_defers;
          Alcotest.test_case "shared cache" `Quick test_session_cache_shared;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "validation" `Quick test_supervisor_validation;
          Alcotest.test_case "metering and switches" `Quick
            test_supervisor_metering_and_switches;
          Alcotest.test_case "shared budget" `Quick
            test_supervisor_shared_budget;
          Alcotest.test_case "budget drains" `Quick
            test_supervisor_budget_drains;
          Alcotest.test_case "register/drift/unregister" `Quick
            test_supervisor_register_drift_unregister;
          Alcotest.test_case "dynamic budget settlement" `Quick
            test_supervisor_register_charges_budget;
          Alcotest.test_case "late joiner plans from its own window" `Quick
            test_supervisor_late_joiner_own_window;
          Alcotest.test_case "one execution per distinct plan" `Quick
            test_supervisor_one_execution_per_plan;
          Alcotest.test_case "tick allocation per session" `Quick
            test_supervisor_tick_allocation;
          Alcotest.test_case "matches in registration order" `Quick
            test_supervisor_matches_in_order;
          QCheck_alcotest.to_alcotest prop_sharing_is_invisible;
        ] );
      ( "telemetry",
        [ Alcotest.test_case "adapt series" `Quick test_adapt_telemetry ] );
      ( "acceptance",
        [
          Alcotest.test_case "beats static on drifting trace" `Quick
            test_adaptive_beats_static_on_drift;
          Alcotest.test_case "quiet on stationary trace" `Quick
            test_adaptive_quiet_on_stationary;
          Alcotest.test_case "replan reuses window buffers" `Quick
            test_replan_buffer_reuse;
        ] );
    ]
