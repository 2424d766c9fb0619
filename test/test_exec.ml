(* Compiled-executor tests: the flat automaton (Acq_exec.Compile) and
   the batch interpreter (Acq_exec.Batch) must be byte-identical to
   the tree executor — same verdicts, same Float-equal costs, same
   acquisition order, same Eq.-4 averages, same telemetry counters —
   on every planner's output, under uniform and board cost models.
   Plus: wire-format round trips, Dataset.columns snapshot semantics
   (including after Sliding rotation), zero-allocation sweeps, and the
   production path through Runner, Runtime, Experiment, and the
   adaptive Session checked against the tree executor as oracle. *)

module Rng = Acq_util.Rng
module DS = Acq_data.Dataset
module S = Acq_data.Schema
module A = Acq_data.Attribute
module Pred = Acq_plan.Predicate
module Q = Acq_plan.Query
module Plan = Acq_plan.Plan
module Ex = Acq_plan.Executor
module P = Acq_core.Planner
module Compile = Acq_exec.Compile
module Batch = Acq_exec.Batch
module Runner = Acq_exec.Runner
module M = Acq_obs.Metrics
module T = Acq_obs.Telemetry

(* ------------------------------------------------------------------ *)
(* Random planning instances — same shape as test_props: correlated
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

let board_instance_gen =
  QCheck2.Gen.(
    let* i = instance_gen in
    let* n_boards = int_range 1 3 in
    let* board = array_repeat i.n_attrs (int_range 0 (n_boards - 1)) in
    let* wakeup = array_repeat n_boards (oneofl [ 0.0; 10.0; 50.0; 90.0 ]) in
    let* read = array_repeat i.n_attrs (oneofl [ 1.0; 5.0; 20.0 ]) in
    return (i, board, wakeup, read))

let outcome_equal (a : Ex.outcome) (b : Ex.outcome) =
  a.Ex.verdict = b.Ex.verdict
  && Float.equal a.Ex.cost b.Ex.cost
  && a.Ex.acquired = b.Ex.acquired

(* Tree and compiled agree on every tuple (verdict, cost, acquisition
   order) and on the Eq.-4 sweep average — exactly, not within
   epsilon. *)
let differential ?model ds q =
  let costs = S.costs (DS.schema ds) in
  let opts =
    match model with
    | None -> options
    | Some _ -> { options with cost_model = model }
  in
  List.for_all
    (fun algo ->
      let plan = (P.plan ~options:opts algo q ~train:ds).P.plan in
      let b = Batch.create ?model ~costs (Compile.compile q plan) in
      let rows_ok = ref true in
      for r = 0 to DS.nrows ds - 1 do
        let row = DS.row ds r in
        if
          not
            (outcome_equal
               (Ex.run_tuple ?model q ~costs plan row)
               (Batch.run_tuple b row))
        then rows_ok := false
      done;
      !rows_ok
      && Float.equal
           (Ex.average_cost ?model q ~costs plan ds)
           (Batch.average_cost b ds))
    planners

let prop_compiled_equals_tree =
  QCheck2.Test.make ~count:50
    ~name:"compiled = tree (verdict, cost, order, Eq.4) on every planner"
    ~print:instance_print instance_gen (fun i ->
      let ds, q = build_instance i in
      differential ds q)

let prop_compiled_equals_tree_boards =
  QCheck2.Test.make ~count:50
    ~name:"compiled = tree under random board models"
    ~print:(fun (i, _, _, _) -> instance_print i)
    board_instance_gen
    (fun (i, board, wakeup, read) ->
      let ds, q = build_instance i in
      differential ~model:(Acq_plan.Cost_model.boards ~board ~wakeup ~read) ds q)

(* Brute-force oracle: the compiled verdict is the WHERE clause,
   checked against direct predicate evaluation on the full tuple. *)
let prop_compiled_oracle =
  QCheck2.Test.make ~count:50
    ~name:"compiled verdicts match brute-force predicate evaluation"
    ~print:instance_print instance_gen (fun i ->
      let ds, q = build_instance i in
      let costs = S.costs (DS.schema ds) in
      List.for_all
        (fun algo ->
          let plan = (P.plan ~options algo q ~train:ds).P.plan in
          let b = Batch.create ~costs (Compile.compile q plan) in
          let ok = ref true in
          for r = 0 to DS.nrows ds - 1 do
            let row = DS.row ds r in
            if (Batch.run_tuple b row).Ex.verdict <> Q.eval q row then
              ok := false
          done;
          !ok)
        planners)

(* ------------------------------------------------------------------ *)
(* Wire format *)

let prop_wire_roundtrip =
  QCheck2.Test.make ~count:60 ~name:"Compile.of_string (to_string a) = a"
    ~print:instance_print instance_gen (fun i ->
      let ds, q = build_instance i in
      List.for_all
        (fun algo ->
          let plan = (P.plan ~options algo q ~train:ds).P.plan in
          let a = Compile.compile q plan in
          let s = Compile.to_string a in
          String.length s = Compile.size a
          && Compile.equal (Compile.of_string s) a)
        planners)

let test_wire_rejects_garbage () =
  let ds, q =
    build_instance
      { seed = 42; n_attrs = 3; domains = [| 2; 3; 4 |];
        costs = [| 1.0; 5.0; 20.0 |]; n_preds = 2 }
  in
  let plan = (P.plan ~options P.Heuristic q ~train:ds).P.plan in
  let s = Compile.to_string (Compile.compile q plan) in
  let rejects bytes =
    match Compile.of_string bytes with
    | exception Failure _ -> true
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "bad magic" true
    (rejects ("XXX" ^ String.sub s 3 (String.length s - 3)));
  Alcotest.(check bool) "truncated" true
    (rejects (String.sub s 0 (String.length s - 1)));
  Alcotest.(check bool) "trailing bytes" true (rejects (s ^ "\000"));
  Alcotest.(check bool) "empty" true (rejects "")

(* Constant plans compile to entry = accept/reject with no nodes, and
   still round-trip. *)
let test_wire_constant_plans () =
  let schema = S.create [ A.discrete ~name:"x" ~cost:1.0 ~domain:2 ] in
  let q = Q.create schema [ Pred.inside ~attr:0 ~lo:0 ~hi:0 ] in
  List.iter
    (fun (v, target) ->
      let a = Compile.compile q (Plan.const v) in
      Alcotest.(check int) "no nodes" 0 (Compile.n_nodes a);
      Alcotest.(check int) "entry" target (Compile.entry a);
      Alcotest.(check bool) "round trips" true
        (Compile.equal (Compile.of_string (Compile.to_string a)) a))
    [ (true, Compile.accept); (false, Compile.reject) ]

(* ------------------------------------------------------------------ *)
(* Dataset.columns *)

let test_columns_matches_rows () =
  let ds, _ =
    build_instance
      { seed = 7; n_attrs = 4; domains = [| 3; 2; 5; 4 |];
        costs = [| 1.0; 5.0; 20.0; 100.0 |]; n_preds = 2 }
  in
  let cols = DS.columns ds in
  Alcotest.(check int) "arity" (S.arity (DS.schema ds)) (Array.length cols);
  Array.iter
    (fun col -> Alcotest.(check int) "column length" (DS.nrows ds)
        (Array.length col))
    cols;
  for r = 0 to DS.nrows ds - 1 do
    let row = DS.row ds r in
    Array.iteri
      (fun c col ->
        if col.(r) <> row.(c) then
          Alcotest.failf "cols.(%d).(%d) = %d but row has %d" c r col.(r)
            row.(c))
      cols
  done

let test_columns_after_sliding_rotation () =
  let module Sl = Acq_prob.Sliding in
  let schema =
    S.create
      [ A.discrete ~name:"x" ~cost:1.0 ~domain:7;
        A.discrete ~name:"y" ~cost:2.0 ~domain:5 ]
  in
  let w = Sl.create schema ~capacity:16 in
  let row i = [| i mod 7; i mod 5 |] in
  (* Overfill so both rotating cell buffers have been in play. *)
  for i = 0 to 40 do
    Sl.push w (row i)
  done;
  let ds = Sl.to_dataset w in
  let cols = DS.columns ds in
  (* Window holds rows 25..40; columns must read them in order. *)
  for r = 0 to 15 do
    let expect = row (25 + r) in
    Alcotest.(check int) "x cell" expect.(0) cols.(0).(r);
    Alcotest.(check int) "y cell" expect.(1) cols.(1).(r)
  done;
  (* The snapshot is a copy: pushing more tuples (rotating the buffer
     the dataset aliases) must not reach into the transpose we took. *)
  for i = 41 to 80 do
    Sl.push w (row i)
  done;
  for r = 0 to 15 do
    let expect = row (25 + r) in
    Alcotest.(check int) "x cell stable" expect.(0) cols.(0).(r);
    Alcotest.(check int) "y cell stable" expect.(1) cols.(1).(r)
  done

(* ------------------------------------------------------------------ *)
(* Allocation discipline *)

let test_sweep_zero_alloc () =
  (* The batched hot loop must not allocate per tuple: once the batch
     state and the columnar snapshot are in hand, a full sweep costs a
     handful of words (the sweep closure and instrument lookup), not
     O(rows). 400 rows of boxed outcomes would be tens of KiB. *)
  let ds, q =
    build_instance
      { seed = 11; n_attrs = 4; domains = [| 4; 3; 5; 2 |];
        costs = [| 1.0; 5.0; 20.0; 100.0 |]; n_preds = 3 }
  in
  let costs = S.costs (DS.schema ds) in
  let plan = (P.plan ~options P.Heuristic q ~train:ds).P.plan in
  let b = Batch.create ~costs (Compile.compile q plan) in
  let cols = DS.columns ds in
  let nrows = DS.nrows ds in
  let sink = ref 0.0 in
  for _ = 1 to 3 do
    sink := !sink +. Batch.sweep_columns b cols ~nrows
  done;
  let cycles = 40 in
  let before = Gc.allocated_bytes () in
  for _ = 1 to cycles do
    sink := !sink +. Batch.sweep_columns b cols ~nrows
  done;
  let per_cycle = (Gc.allocated_bytes () -. before) /. float_of_int cycles in
  Alcotest.(check bool)
    (Printf.sprintf "sweep allocates O(1) (%.0f bytes/cycle)" per_cycle)
    true
    (per_cycle < 8_192.0);
  ignore !sink

(* ------------------------------------------------------------------ *)
(* Runner plumbing: the production path against the tree oracle *)

let test_runner_modes_agree () =
  let ds, q =
    build_instance
      { seed = 23; n_attrs = 4; domains = [| 3; 4; 2; 5 |];
        costs = [| 5.0; 1.0; 100.0; 20.0 |]; n_preds = 3 }
  in
  let costs = S.costs (DS.schema ds) in
  let plan = (P.plan ~options P.Heuristic q ~train:ds).P.plan in
  let prepared = Runner.prepare q ~costs plan in
  for r = 0 to DS.nrows ds - 1 do
    let row = DS.row ds r in
    if
      not
        (outcome_equal (Ex.run_tuple q ~costs plan row)
           (Runner.run_tuple prepared row))
    then Alcotest.failf "runner disagrees with the tree oracle on row %d" r
  done;
  Alcotest.(check bool) "Eq.4 identical" true
    (Float.equal
       (Ex.average_cost q ~costs plan ds)
       (Runner.average_cost_prepared prepared ds))

(* The runner records the very same telemetry totals as the tree
   oracle: per-attribute acquisition counters, tuple/match counters,
   and the traversal-depth histogram (the compiled sweep batches the
   updates; the sums must not change). *)
let test_instrumentation_parity () =
  let ds, q =
    build_instance
      { seed = 31; n_attrs = 4; domains = [| 4; 2; 3; 5 |];
        costs = [| 1.0; 100.0; 5.0; 20.0 |]; n_preds = 3 }
  in
  let costs = S.costs (DS.schema ds) in
  let plan = (P.plan ~options P.Heuristic q ~train:ds).P.plan in
  let series sweep =
    let m = M.create () in
    let obs = T.create ~metrics:m () in
    ignore (sweep obs : float);
    List.filter
      (fun (k, _) -> String.length k >= 4 && String.sub k 0 4 = "acqp")
      (M.snapshot m)
  in
  let tree = series (fun obs -> Ex.average_cost ~obs q ~costs plan ds) in
  let compiled = series (fun obs -> Runner.average_cost ~obs q ~costs plan ds) in
  Alcotest.(check bool) "counters recorded" true (tree <> []);
  Alcotest.(check (list (pair string (float 0.0)))) "identical series" tree
    compiled

(* A prepared plan caches the instruments of the registry it last ran
   under; a run under another registry must re-resolve, not keep
   counting into the first one it saw. *)
let test_runner_instr_follows_registry () =
  let ds, q =
    build_instance
      { seed = 37; n_attrs = 4; domains = [| 3; 4; 2; 5 |];
        costs = [| 5.0; 1.0; 100.0; 20.0 |]; n_preds = 3 }
  in
  let costs = S.costs (DS.schema ds) in
  let plan = (P.plan ~options P.Heuristic q ~train:ds).P.plan in
  let prepared = Runner.prepare q ~costs plan in
  let tuples m =
    Option.value ~default:0.0
      (M.find (M.snapshot m) "acqp_executor_tuples_total")
  in
  let run obs rows =
    for r = 0 to rows - 1 do
      ignore (Runner.run_tuple ~obs prepared (DS.row ds r) : Ex.outcome)
    done
  in
  let a = M.create () and b = M.create () in
  let obs_a = T.create ~metrics:a () and obs_b = T.create ~metrics:b () in
  run obs_a 3;
  run obs_b 5;
  run T.noop 7;
  run obs_a 2;
  (* A fresh handle over registry [b]: the key is the registry. *)
  run (T.create ~metrics:b ()) 4;
  Alcotest.(check (float 0.0)) "registry A" 5.0 (tuples a);
  Alcotest.(check (float 0.0)) "registry B" 9.0 (tuples b);
  (* Per-attribute counters follow the same routing: each registry
     holds exactly what the tree oracle records for its rows. *)
  let oracle rows =
    let m = M.create () in
    let obs = T.create ~metrics:m () in
    List.iter
      (fun r -> ignore (Ex.run_tuple ~obs q ~costs plan (DS.row ds r) : Ex.outcome))
      rows;
    M.snapshot m
  in
  Alcotest.(check (list (pair string (float 0.0))))
    "registry A series" (oracle [ 0; 1; 2; 0; 1 ]) (M.snapshot a);
  Alcotest.(check (list (pair string (float 0.0))))
    "registry B series" (oracle [ 0; 1; 2; 3; 4; 0; 1; 2; 3 ]) (M.snapshot b)

(* Once resolved, the live instruments cost no allocation per tuple:
   a prepared plan allocates exactly as many words per run under a
   live registry as under noop. *)
let test_runner_live_alloc () =
  let ds, q =
    build_instance
      { seed = 41; n_attrs = 4; domains = [| 4; 3; 5; 2 |];
        costs = [| 1.0; 5.0; 20.0; 100.0 |]; n_preds = 3 }
  in
  let costs = S.costs (DS.schema ds) in
  let plan = (P.plan ~options P.Heuristic q ~train:ds).P.plan in
  let prepared = Runner.prepare q ~costs plan in
  let words obs =
    let rows = Array.init (DS.nrows ds) (DS.row ds) in
    Array.iter (fun r -> ignore (Runner.run_tuple ~obs prepared r : Ex.outcome)) rows;
    let before = Gc.minor_words () in
    Array.iter (fun r -> ignore (Runner.run_tuple ~obs prepared r : Ex.outcome)) rows;
    Gc.minor_words () -. before
  in
  let live = T.create ~metrics:(M.create ()) () in
  Alcotest.(check (float 0.0)) "live words = noop words" (words T.noop)
    (words live)

(* ------------------------------------------------------------------ *)
(* The production path through the stack, against the tree oracle *)

(* The motes' verdicts and acquisition energy equal the tree
   executor's verdict count and cost sum over the same live trace. *)
let test_runtime_exec_parity () =
  let ds = Acq_data.Lab_gen.generate (Rng.create 77) ~rows:1_200 in
  let history, live = DS.split_by_time ds ~train_fraction:0.5 in
  let q = Acq_workload.Query_gen.lab_query (Rng.create 7) ~train:history in
  let module Rt = Acq_sensor.Runtime in
  let r = Rt.run ~algorithm:P.Heuristic ~history ~live q in
  let costs = S.costs (Q.schema q) in
  let matches = ref 0 and cost = ref 0.0 in
  for row = 0 to DS.nrows live - 1 do
    let o = Ex.run_tuple q ~costs r.Rt.plan (DS.row live row) in
    if o.Ex.verdict then incr matches;
    cost := !cost +. o.Ex.cost
  done;
  Alcotest.(check bool) "verdicts correct" true r.Rt.correct;
  Alcotest.(check int) "matches = oracle verdict count" !matches r.Rt.matches;
  (* Motes keep per-mote energy meters that are merged at the end, so
     the summation order differs from this epoch-order sum. *)
  Alcotest.(check bool) "acquisition energy = oracle cost sum" true
    (Float.abs (!cost -. r.Rt.acquisition_energy) <= 1e-9 *. Float.max 1.0 !cost)

let test_experiment_exec_parity () =
  let ds, q =
    build_instance
      { seed = 51; n_attrs = 4; domains = [| 3; 3; 4; 2 |];
        costs = [| 20.0; 1.0; 5.0; 100.0 |]; n_preds = 2 }
  in
  let train, test = DS.split_by_time ds ~train_fraction:0.5 in
  let specs =
    [
      { Acq_workload.Experiment.name = "heuristic";
        build = (fun q -> P.plan ~options P.Heuristic q ~train) };
      { Acq_workload.Experiment.name = "naive";
        build = (fun q -> P.plan ~options P.Naive q ~train) };
    ]
  in
  let costs = S.costs (DS.schema ds) in
  match Acq_workload.Experiment.run ~specs ~queries:[ q ] ~train ~test () with
  | [ qr ] ->
      List.iteri
        (fun i (spec : Acq_workload.Experiment.algo_spec) ->
          let plan = (spec.build q).P.plan in
          Alcotest.(check bool)
            (spec.name ^ " test cost = oracle") true
            (Float.equal qr.Acq_workload.Experiment.test_costs.(i)
               (Ex.average_cost q ~costs plan test));
          Alcotest.(check bool)
            (spec.name ^ " train cost = oracle") true
            (Float.equal qr.Acq_workload.Experiment.train_costs.(i)
               (Ex.average_cost q ~costs plan train)))
        specs;
      Alcotest.(check bool) "run consistent" true
        qr.Acq_workload.Experiment.consistent
  | _ -> Alcotest.fail "expected one query run"

(* Adaptive session: the prepared automaton tracks the installed plan
   across a drift-triggered switch, and execute serves the same
   outcomes as the tree oracle. *)
let test_session_compiled_recompiles_on_switch () =
  let module Sess = Acq_adapt.Session in
  let module Pol = Acq_adapt.Policy in
  let schema =
    S.create
      [ A.discrete ~name:"x1" ~cost:10.0 ~domain:4;
        A.discrete ~name:"x2" ~cost:10.0 ~domain:4 ]
  in
  let q =
    Q.create schema
      [ Pred.inside ~attr:0 ~lo:0 ~hi:1; Pred.inside ~attr:1 ~lo:0 ~hi:1 ]
  in
  (* Phase A: x1 selective; phase B: x2 selective — drift forces a
     different sequential order. *)
  let phase_a_row i = [| 2 + (i mod 2); i mod 2 |] in
  let phase_b_row i = [| i mod 2; 2 + (i mod 2) |] in
  let history = DS.create schema (Array.init 200 phase_a_row) in
  let policy = Pol.drift_triggered ~check_every:10 ~cooldown:0 0.3 in
  let s =
    Sess.create ~algorithm:P.Corr_seq ~policy ~window:40 ~history q
  in
  let check_execute_matches_tree i =
    let row = phase_b_row i in
    let costs = S.costs schema in
    let compiled = Sess.execute s ~lookup:(fun a -> row.(a)) in
    let tree = Ex.run_tuple q ~costs (Sess.plan s) row in
    Alcotest.(check bool) "execute = tree executor" true
      (outcome_equal compiled tree)
  in
  check_execute_matches_tree 0;
  let initial_plan = Sess.plan s in
  Alcotest.(check bool) "prepared tracks initial plan" true
    (Plan.equal (Runner.plan (Sess.prepared s)) initial_plan);
  let switched = ref false in
  for i = 0 to 99 do
    if Sess.step s ~cost:120.0 (phase_b_row i) <> None then switched := true
  done;
  Alcotest.(check bool) "a switch happened" true !switched;
  Alcotest.(check bool) "plan actually changed" false
    (Plan.equal (Sess.plan s) initial_plan);
  Alcotest.(check bool) "prepared recompiled to new plan" true
    (Plan.equal (Runner.plan (Sess.prepared s)) (Sess.plan s));
  check_execute_matches_tree 1

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "exec"
    [
      ( "differential",
        [
          q prop_compiled_equals_tree;
          q prop_compiled_equals_tree_boards;
          q prop_compiled_oracle;
        ] );
      ( "wire format",
        [
          q prop_wire_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_wire_rejects_garbage;
          Alcotest.test_case "constant plans" `Quick test_wire_constant_plans;
        ] );
      ( "columns",
        [
          Alcotest.test_case "matches rows" `Quick test_columns_matches_rows;
          Alcotest.test_case "after sliding rotation" `Quick
            test_columns_after_sliding_rotation;
        ] );
      ( "batch",
        [ Alcotest.test_case "zero per-tuple alloc" `Quick test_sweep_zero_alloc ]
      );
      ( "plumbing",
        [
          Alcotest.test_case "runner modes agree" `Quick test_runner_modes_agree;
          Alcotest.test_case "instrumentation parity" `Quick
            test_instrumentation_parity;
          Alcotest.test_case "instruments follow the registry" `Quick
            test_runner_instr_follows_registry;
          Alcotest.test_case "live instruments allocate nothing" `Quick
            test_runner_live_alloc;
          Alcotest.test_case "runtime parity" `Quick test_runtime_exec_parity;
          Alcotest.test_case "experiment parity" `Quick
            test_experiment_exec_parity;
          Alcotest.test_case "session recompiles on switch" `Quick
            test_session_compiled_recompiles_on_switch;
        ] );
    ]
