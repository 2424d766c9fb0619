(* Acq_audit tests: the audit pipeline must be a pure observer —
   audit-on and audit-off runs byte-identical in verdicts, costs, and
   acquisition order on every planner, checked against the tree
   executor's audit hook as oracle — and
   its aggregates must be exactly the closed-form statistics of the
   raw counts. Plus: prediction exactness on the training
   distribution, flight-ring wrap and alarm latching, regret-sign
   invariants, the Policy external cost source, the audited
   allocation bound, and the deterministic calibration-cell merge
   across domain-pool shards. *)

module Rng = Acq_util.Rng
module DS = Acq_data.Dataset
module S = Acq_data.Schema
module A = Acq_data.Attribute
module Pred = Acq_plan.Predicate
module Q = Acq_plan.Query
module Ex = Acq_plan.Executor
module P = Acq_core.Planner
module B = Acq_prob.Backend
module Compile = Acq_exec.Compile
module Batch = Acq_exec.Batch
module Probe = Acq_exec.Probe
module Runner = Acq_exec.Runner
module Cal = Acq_audit.Calibration
module Rec = Acq_audit.Recorder
module Fr = Acq_audit.Flight_recorder
module Audit = Acq_audit.Audit
module Pol = Acq_adapt.Policy

(* ------------------------------------------------------------------ *)
(* Random planning instances — same shape as test_exec: correlated
   columns under a latent regime, mixed costs, random conjunctive
   query. *)

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
    let* costs = array_repeat n_attrs (oneofl [ 1.0; 5.0; 20.0; 100.0 ]) in
    let* n_preds = int_range 1 (min 3 n_attrs) in
    return { seed; n_attrs; domains; costs; n_preds })

let instance_print i =
  Printf.sprintf "{seed=%d; domains=[%s]; costs=[%s]; preds=%d}" i.seed
    (String.concat ";" (Array.to_list (Array.map string_of_int i.domains)))
    (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%g") i.costs)))
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
    Array.init 400 (fun _ ->
        let regime = Rng.float rng 1.0 in
        Array.init i.n_attrs (fun k ->
            if Rng.bernoulli rng 0.75 then
              min (i.domains.(k) - 1)
                (int_of_float (regime *. float_of_int i.domains.(k)))
            else Rng.int rng i.domains.(k)))
  in
  let ds = DS.create schema rows in
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
let planners = [ P.Naive; P.Corr_seq; P.Heuristic; P.Exhaustive ]

let outcome_equal (a : Ex.outcome) (b : Ex.outcome) =
  a.Ex.verdict = b.Ex.verdict
  && Float.equal a.Ex.cost b.Ex.cost
  && a.Ex.acquired = b.Ex.acquired

(* ------------------------------------------------------------------ *)
(* Pure-observer differential: with the audit pipeline armed and its
   probe passed to every call, outcomes and sweep averages are
   byte-identical to the unaudited run on every planner's plan — and
   the tree oracle, fed through [Probe.hook], agrees with both and
   leaves the very same probe counts. *)

let audited_identical ds q =
  let costs = S.costs (DS.schema ds) in
  List.for_all
    (fun algo ->
      let result = P.plan ~options algo q ~train:ds in
      let plan = result.P.plan in
      let prep = Runner.prepare q ~costs plan in
      let audit = Audit.create () in
      Audit.install audit q ~costs ~plan ~expected:result.P.est_cost
        ~backend:(B.of_dataset ~spec:options.P.prob_model ds)
        ~epoch:0;
      let probe =
        match Audit.probe audit with
        | Some p -> p
        | None -> Alcotest.fail "no probe after install"
      in
      let oracle = Probe.create (Compile.compile q plan) in
      let hook = Probe.hook oracle in
      let rows_ok = ref true in
      for r = 0 to DS.nrows ds - 1 do
        let row = DS.row ds r in
        let expect = Ex.run_tuple q ~costs plan row in
        if
          not
            (outcome_equal expect (Runner.run_tuple prep row)
            && outcome_equal expect (Runner.run_tuple ~probe prep row)
            && outcome_equal expect (Ex.run_tuple ~audit:hook q ~costs plan row))
        then rows_ok := false
      done;
      let counts_agree =
        Probe.visits probe = Probe.visits oracle
        && Probe.hits probe = Probe.hits oracle
      in
      Audit.checkpoint audit ~epoch:1 ();
      !rows_ok && counts_agree
      && Float.equal
           (Runner.average_cost_prepared prep ds)
           (Runner.average_cost_prepared ~probe prep ds)
      && Float.equal
           (Ex.average_cost q ~costs plan ds)
           (Ex.average_cost ~audit:hook q ~costs plan ds))
    planners

let prop_audit_is_pure_observer =
  QCheck2.Test.make ~count:50
    ~name:"audit-on = audit-off (verdict, cost, order, Eq.4) on every \
           planner, tree oracle agreeing"
    ~print:instance_print instance_gen (fun i ->
      let ds, q = build_instance i in
      audited_identical ds q)

(* ------------------------------------------------------------------ *)
(* Calibration cells: every exported statistic equals the brute-force
   per-outcome computation. A node aggregate (pred, visits, hits) is
   [hits] positive Bernoulli outcomes (error 1 - pred each) and
   [visits - hits] negative ones (error -pred). *)

let node_gen =
  QCheck2.Gen.(
    let* pred = float_bound_inclusive 1.0 in
    let* visits = int_range 0 50 in
    let* hits = int_range 0 visits in
    return (pred, visits, hits))

let prop_cell_matches_brute_force =
  QCheck2.Test.make ~count:200
    ~name:"cell statistics = brute-force per-outcome sums"
    ~print:(fun nodes ->
      String.concat ";"
        (List.map (fun (p, v, h) -> Printf.sprintf "(%g,%d,%d)" p v h) nodes))
    QCheck2.Gen.(list_size (int_range 1 8) node_gen)
    (fun nodes ->
      let cell = Cal.cell () in
      List.iter
        (fun (pred, visits, hits) -> Cal.observe_binary cell ~pred ~visits ~hits)
        nodes;
      let count = List.fold_left (fun a (_, v, _) -> a + v) 0 nodes in
      let sum f = List.fold_left (fun a n -> a +. f n) 0.0 nodes in
      let err = sum (fun (p, v, h) ->
          (float_of_int h *. (1.0 -. p)) -. (float_of_int (v - h) *. p))
      in
      let sq = sum (fun (p, v, h) ->
          (float_of_int h *. ((1.0 -. p) ** 2.0))
          +. (float_of_int (v - h) *. (p ** 2.0)))
      in
      let gap = sum (fun (p, v, h) ->
          if v = 0 then 0.0
          else
            float_of_int v
            *. Float.abs ((float_of_int h /. float_of_int v) -. p))
      in
      let close a b = Float.abs (a -. b) < 1e-9 in
      cell.Cal.count = count
      && (count = 0
         || close (Cal.mean_err cell) (err /. float_of_int count)
            && close (Cal.brier cell) (sq /. float_of_int count)
            && close (Cal.gap cell) (gap /. float_of_int count)))

let test_cell_rejects_bad_counts () =
  let cell = Cal.cell () in
  Alcotest.check_raises "hits > visits"
    (Invalid_argument "Calibration.observe_binary: need 0 <= hits <= visits")
    (fun () -> Cal.observe_binary cell ~pred:0.5 ~visits:2 ~hits:3)

(* ------------------------------------------------------------------ *)
(* Prediction exactness: on the estimator's own training distribution,
   the empirical backend calibrates to ~0 gap, because the prediction
   walk conditions exactly the way the executor filters. *)

let correlated_instance seed =
  build_instance
    {
      seed;
      n_attrs = 4;
      domains = [| 5; 5; 4; 6 |];
      costs = [| 1.0; 5.0; 20.0; 100.0 |];
      n_preds = 3;
    }

let test_prediction_exact_on_train () =
  let ds, q = correlated_instance 31 in
  let costs = S.costs (DS.schema ds) in
  List.iter
    (fun kind ->
      let backend = B.of_dataset ~spec:{ B.kind; memoize = false } ds in
      let result = P.plan_with_backend ~options P.Heuristic q ~costs backend in
      let r =
        Rec.create q ~costs ~plan:result.P.plan ~expected:result.P.est_cost
          ~backend
      in
      ignore
        (Runner.average_cost ~probe:(Rec.probe r) q ~costs
           result.P.plan ds
          : float);
      let gap = Cal.calibration_error (Rec.snapshot r) in
      if gap > 0.02 then
        Alcotest.failf "%s backend miscalibrated on its own data: gap %.4f"
          (B.kind_to_string kind) gap)
    [ B.Empirical ]

(* ------------------------------------------------------------------ *)
(* Flight recorder: fixed-capacity ring, oldest-first eviction,
   latched alarms with one dump per excursion. *)

let test_flight_ring_wraps () =
  let fr = Fr.create ~capacity:8 () in
  for e = 0 to 19 do
    Fr.record fr ~epoch:e ~kind:Fr.Note ~plan_id:0 ~value:0.0
      ~detail:(string_of_int e)
  done;
  Alcotest.(check int) "recorded" 20 (Fr.recorded fr);
  Alcotest.(check int) "dropped" 12 (Fr.dropped fr);
  let events = Fr.events fr in
  Alcotest.(check int) "surviving" 8 (List.length events);
  List.iteri
    (fun i ev ->
      Alcotest.(check int) "oldest-first seq" (12 + i) ev.Fr.seq;
      Alcotest.(check string) "payload survives" (string_of_int (12 + i))
        ev.Fr.detail)
    events

let test_flight_alarm_latches () =
  let dumps = ref 0 in
  let fr =
    Fr.create ~capacity:32 ~calibration_alarm:0.15
      ~on_dump:(fun _ ~reason:_ -> incr dumps)
      ()
  in
  let feed v = Fr.note_calibration fr ~epoch:0 ~plan_id:0 v in
  feed 0.30;
  Alcotest.(check int) "first crossing dumps" 1 !dumps;
  feed 0.40;
  feed 0.25;
  Alcotest.(check int) "latched while high" 1 !dumps;
  feed 0.10;
  (* above half the threshold: not yet recovered *)
  feed 0.30;
  Alcotest.(check int) "still latched" 1 !dumps;
  feed 0.05;
  (* below threshold / 2: re-arms *)
  feed 0.30;
  Alcotest.(check int) "second excursion dumps again" 2 !dumps;
  Alcotest.(check int) "anomalies counted" 2 (Fr.anomalies fr)

(* ------------------------------------------------------------------ *)
(* Regret: accounting identities — realized cost of the current plan
   matches an independent sweep, regret = current - best exactly, and
   the ratio is consistent. *)

let test_regret_accounting () =
  let ds, q = correlated_instance 57 in
  let costs = S.costs (DS.schema ds) in
  let indep = B.of_dataset ~spec:{ B.kind = B.Independence; memoize = false } ds in
  let current_plan =
    (P.plan_with_backend ~options P.Heuristic q ~costs indep).P.plan
  in
  let o =
    Acq_audit.Regret.assess ~options ~current_plan q
      ~costs ds
  in
  let open Acq_audit.Regret in
  Alcotest.(check int) "rows" (DS.nrows ds) o.rows;
  Alcotest.(check bool) "current realized = independent sweep" true
    (Float.equal o.current_realized
       (Runner.average_cost q ~costs current_plan ds));
  let best =
    match o.best with
    | Some b -> b
    | None -> Alcotest.fail "no arm planned"
  in
  Alcotest.(check bool) "best is cheapest planned arm" true
    (List.for_all
       (fun a -> (not a.planned) || a.realized_cost >= best.realized_cost)
       o.assessments);
  Alcotest.(check bool) "regret = current - best" true
    (Float.equal o.regret (o.current_realized -. best.realized_cost));
  Alcotest.(check bool) "ratio consistent" true
    (Float.equal o.regret_ratio (o.current_realized /. best.realized_cost));
  Alcotest.(check int) "every default arm assessed"
    (List.length default_arms)
    (List.length o.assessments)

(* ------------------------------------------------------------------ *)
(* Policy external cost source (the audit-fed regret trigger). *)

let observation ~observed ~expected ~n =
  {
    Pol.epochs_since_switch = 100;
    window_full = false;
    drift = 0.0;
    observed_cost = observed;
    expected_cost = expected;
    observations = n;
  }

let test_policy_external_cost_source () =
  let base = Pol.drift_regret ~cooldown:0 0.5 ~regret:1.3 in
  let meter = ref (Some (100.0, 60)) in
  let p = Pol.with_cost_source base (fun () -> !meter) in
  let mean, n = Pol.observed_cost p ~internal_sum:0.0 ~internal_n:0 in
  Alcotest.(check (float 1e-9)) "external mean" 100.0 mean;
  Alcotest.(check int) "external count" 60 n;
  (match
     Pol.evaluate p ~drift_armed:true (observation ~observed:mean ~expected:50.0 ~n)
   with
  | Some (Pol.Regret { observed; expected }) ->
      Alcotest.(check (float 1e-9)) "observed" 100.0 observed;
      Alcotest.(check (float 1e-9)) "expected" 50.0 expected
  | other ->
      Alcotest.failf "expected the regret trigger, got %s"
        (match other with
        | None -> "nothing"
        | Some r -> Pol.describe r));
  meter := None;
  let mean, n = Pol.observed_cost p ~internal_sum:0.0 ~internal_n:0 in
  Alcotest.(check int) "empty meter keeps the trigger quiet" 0 n;
  Alcotest.(check bool) "quiet" true
    (Pol.evaluate p ~drift_armed:true (observation ~observed:mean ~expected:50.0 ~n)
    = None);
  (* The internal path is untouched by with_cost_source on other
     policies. *)
  let mean, n = Pol.observed_cost base ~internal_sum:90.0 ~internal_n:3 in
  Alcotest.(check (float 1e-9)) "internal mean" 30.0 mean;
  Alcotest.(check int) "internal count" 3 n

let test_audit_cost_source_end_to_end () =
  let ds, q = correlated_instance 73 in
  let costs = S.costs (DS.schema ds) in
  let result = P.plan ~options P.Heuristic q ~train:ds in
  let prep = Runner.prepare q ~costs result.P.plan in
  let audit = Audit.create () in
  Audit.install audit q ~costs ~plan:result.P.plan
    ~expected:result.P.est_cost
    ~backend:(B.of_dataset ~spec:options.P.prob_model ds)
    ~epoch:0;
  let probe = Option.get (Audit.probe audit) in
  Alcotest.(check bool) "no observations yet" true
    (Audit.cost_source audit () = None);
  let n = 50 in
  let sum = ref 0.0 in
  for r = 0 to n - 1 do
    sum := !sum +. (Runner.run_tuple ~probe prep (DS.row ds r)).Ex.cost
  done;
  match Audit.cost_source audit () with
  | None -> Alcotest.fail "meter empty after tuples"
  | Some (mean, count) ->
      Alcotest.(check int) "count" n count;
      Alcotest.(check bool) "mean = realized mean" true
        (Float.equal mean (!sum /. float_of_int n))

(* ------------------------------------------------------------------ *)
(* Allocation discipline: the audited columnar sweep keeps the
   compiled path's <8 KiB/sweep bound. *)

let test_audited_sweep_zero_alloc () =
  let ds, q = correlated_instance 11 in
  let costs = S.costs (DS.schema ds) in
  let plan = (P.plan ~options P.Heuristic q ~train:ds).P.plan in
  let auto = Compile.compile q plan in
  let b = Batch.create ~costs auto in
  let probe = Probe.create auto in
  let cols = DS.columns ds in
  let nrows = DS.nrows ds in
  let sink = ref 0.0 in
  for _ = 1 to 3 do
    sink := !sink +. Batch.sweep_columns ~probe b cols ~nrows
  done;
  let cycles = 40 in
  let before = Gc.allocated_bytes () in
  for _ = 1 to cycles do
    sink := !sink +. Batch.sweep_columns ~probe b cols ~nrows
  done;
  let per_cycle = (Gc.allocated_bytes () -. before) /. float_of_int cycles in
  Alcotest.(check bool)
    (Printf.sprintf "audited sweep allocates O(1) (%.0f bytes/cycle)" per_cycle)
    true
    (per_cycle < 8_192.0);
  ignore !sink

(* The three probe feeders — the tree interpreter's hook, the compiled
   per-tuple run, and the compiled sweep (which folds its cost cells in
   registers) — leave bit-identical counts and cost cells. *)
let test_probe_feeders_agree () =
  let ds, q = correlated_instance 23 in
  let costs = S.costs (DS.schema ds) in
  let plan = (P.plan ~options P.Heuristic q ~train:ds).P.plan in
  let auto = Compile.compile q plan in
  let b = Batch.create ~costs auto in
  let fresh () =
    let p = Probe.create auto in
    Probe.set_predicted_cost p 3.25;
    p
  in
  let tree = fresh () and per_tuple = fresh () and swept = fresh () in
  for r = 0 to DS.nrows ds - 1 do
    let row = DS.row ds r in
    ignore (Ex.run_tuple ~audit:(Probe.hook tree) q ~costs plan row : Ex.outcome);
    ignore (Batch.run_tuple ~probe:per_tuple b row : Ex.outcome)
  done;
  ignore
    (Batch.sweep_columns ~probe:swept b (DS.columns ds) ~nrows:(DS.nrows ds)
      : float);
  List.iter
    (fun (name, p) ->
      Alcotest.(check (array int))
        (name ^ " visits") (Probe.visits tree) (Probe.visits p);
      Alcotest.(check (array int)) (name ^ " hits") (Probe.hits tree) (Probe.hits p);
      Alcotest.(check bool) (name ^ " cost cells") true
        (Array.for_all2 Float.equal (Probe.cost_cells tree) (Probe.cost_cells p)))
    [ ("per-tuple", per_tuple); ("sweep", swept) ];
  Alcotest.(check int) "every tuple counted" (DS.nrows ds)
    (Probe.cost_stats swept).Probe.count

(* ------------------------------------------------------------------ *)
(* Shard merge: one probe per domain, one tracker per shard, merged in
   submission order. Additive statistics (counts, error sums) match
   the whole-dataset run; the full merged tracker is bit-identical to
   a sequential merge of the same shards and across repeated pool
   runs. The per-node gap is absorbed at shard granularity, so it is
   compared shard-merge against shard-merge, not against the
   whole-run absorb. *)

let shard_rows ds ~domains =
  let nrows = DS.nrows ds in
  let chunk = (nrows + domains - 1) / domains in
  List.init domains (fun d ->
      let lo = d * chunk in
      let hi = min nrows (lo + chunk) in
      Array.init (max 0 (hi - lo)) (fun i -> DS.row ds (lo + i)))

let shard_tracker ds q plan auto predictions names rows =
  let costs = S.costs (DS.schema ds) in
  let probe = Probe.create auto in
  let prep = Runner.prepare q ~costs plan in
  Array.iter
    (fun row -> ignore (Runner.run_tuple ~probe prep row : Ex.outcome))
    rows;
  let t = Cal.create names in
  Cal.absorb_nodes t auto ~predictions ~visits:(Probe.visits probe)
    ~hits:(Probe.hits probe);
  t

let test_calibration_merge_across_shards () =
  let ds, q = correlated_instance 91 in
  let costs = S.costs (DS.schema ds) in
  let names = S.names (DS.schema ds) in
  let plan = (P.plan ~options P.Heuristic q ~train:ds).P.plan in
  let auto = Compile.compile q plan in
  let backend = B.empirical ds in
  let predictions =
    Rec.predictions q ~backend plan ~n_nodes:(Compile.n_nodes auto)
  in
  (* Reference for the additive statistics: one probe over the whole
     dataset. *)
  let whole = Probe.create auto in
  let prep = Runner.prepare q ~costs plan in
  for r = 0 to DS.nrows ds - 1 do
    ignore (Runner.run_tuple ~probe:whole prep (DS.row ds r) : Ex.outcome)
  done;
  let reference = Cal.create names in
  Cal.absorb_nodes reference auto ~predictions ~visits:(Probe.visits whole)
    ~hits:(Probe.hits whole);
  let shards = shard_rows ds ~domains:4 in
  let merge trackers =
    let dst = Cal.create names in
    List.iter (fun src -> Cal.merge_into ~src ~dst) trackers;
    dst
  in
  let pool_merge () =
    Acq_par.Domain_pool.with_pool ~domains:4 (fun pool ->
        let futures =
          List.map
            (fun rows ->
              Acq_par.Domain_pool.submit pool (fun _obs ->
                  shard_tracker ds q plan auto predictions names rows))
            shards
        in
        merge (List.map (Acq_par.Domain_pool.await_exn pool) futures))
  in
  let merged = pool_merge () in
  let merged' = pool_merge () in
  let sequential =
    merge (List.map (shard_tracker ds q plan auto predictions names) shards)
  in
  let ref_cell = Cal.node_cell reference in
  let m_cell = Cal.node_cell merged in
  Alcotest.(check int) "counts sum exactly" ref_cell.Cal.count m_cell.Cal.count;
  Array.iteri
    (fun i _ ->
      Alcotest.(check int)
        (Printf.sprintf "attr %d count" i)
        (Cal.attr_cell reference i).Cal.count
        (Cal.attr_cell merged i).Cal.count)
    names;
  let close what a b =
    if Float.abs (a -. b) > 1e-6 then
      Alcotest.failf "%s: merged %.9f vs whole-run %.9f" what a b
  in
  close "sum_err" m_cell.Cal.sum_err ref_cell.Cal.sum_err;
  close "sum_sq_err" m_cell.Cal.sum_sq_err ref_cell.Cal.sum_sq_err;
  (* Determinism: the pool merge is bit-identical to the sequential
     merge of the same shards, and across repeated pool runs. *)
  let cells_equal a b =
    a.Cal.count = b.Cal.count
    && Float.equal a.Cal.sum_err b.Cal.sum_err
    && Float.equal a.Cal.sum_sq_err b.Cal.sum_sq_err
    && Float.equal a.Cal.sum_gap b.Cal.sum_gap
    && Float.equal a.Cal.max_abs_err b.Cal.max_abs_err
  in
  let trackers_equal a b =
    cells_equal (Cal.node_cell a) (Cal.node_cell b)
    && Array.for_all Fun.id
         (Array.mapi
            (fun i _ -> cells_equal (Cal.attr_cell a i) (Cal.attr_cell b i))
            names)
  in
  Alcotest.(check bool) "pool merge = sequential merge" true
    (trackers_equal merged sequential);
  Alcotest.(check bool) "pool runs bit-identical" true
    (trackers_equal merged merged')

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "audit"
    [
      ( "pure observer",
        [
          q prop_audit_is_pure_observer;
          Alcotest.test_case "audited sweep alloc bound" `Quick
            test_audited_sweep_zero_alloc;
          Alcotest.test_case "probe feeders agree" `Quick test_probe_feeders_agree;
        ] );
      ( "calibration",
        [
          q prop_cell_matches_brute_force;
          Alcotest.test_case "rejects bad counts" `Quick
            test_cell_rejects_bad_counts;
          Alcotest.test_case "exact on training data" `Quick
            test_prediction_exact_on_train;
          Alcotest.test_case "shard merge deterministic" `Quick
            test_calibration_merge_across_shards;
        ] );
      ( "flight recorder",
        [
          Alcotest.test_case "ring wraps oldest-first" `Quick
            test_flight_ring_wraps;
          Alcotest.test_case "alarm latches" `Quick test_flight_alarm_latches;
        ] );
      ( "regret",
        [ Alcotest.test_case "accounting identities" `Quick test_regret_accounting ]
      );
      ( "policy",
        [
          Alcotest.test_case "external cost source" `Quick
            test_policy_external_cost_source;
          Alcotest.test_case "audit cost source end-to-end" `Quick
            test_audit_cost_source_end_to_end;
        ] );
    ]
