(* Benchmark harness.

   Default invocation reproduces every table and figure of the paper's
   evaluation at CI scale, writes every BENCH section's results file,
   then runs the Bechamel micro-benchmarks (one Test.make per
   table/figure, timing that experiment's planning kernel).

   Each BENCH section is declared once in [sections] as a name and a
   thunk building its JSON document; the harness writes it to
   BENCH_<name>.json, validates it against bench/BENCH_<name>.schema.json
   and prints a one-line report from its "summary". Timed fields are
   medians with q1/q3 over a fixed number of trials after a warm-up.

     dune exec bench/main.exe                       # everything, quick
     dune exec bench/main.exe -- fig8a fig12        # selected experiments
     dune exec bench/main.exe -- --full             # paper-scale counts
     dune exec bench/main.exe -- --micro            # micro-benchmarks only
     dune exec bench/main.exe -- --no-micro         # skip micro-benchmarks
     dune exec bench/main.exe -- --list             # experiments and sections
     dune exec bench/main.exe -- --smoke exec       # write + validate one section
     dune exec bench/main.exe -- --validate exec BENCH_exec.json
*)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Micro-benchmark kernels: one per reproduced table/figure, each
   timing the planning (or probability) kernel that experiment
   stresses, on a small fixed instance. *)

module K = struct
  module P = Acq_core.Planner
  module Rng = Acq_util.Rng

  let lab = lazy (Acq_data.Lab_gen.generate (Rng.create 901) ~rows:4_000)

  let lab_coarse =
    lazy
      (Acq_data.Dataset.coarsen (Lazy.force lab)
         ~factors:Acq_workload.Figures.coarse_factors)

  let garden5 =
    lazy (Acq_data.Garden_gen.generate (Rng.create 902) ~n_motes:5 ~rows:4_000)

  let garden11 =
    lazy (Acq_data.Garden_gen.generate (Rng.create 903) ~n_motes:11 ~rows:4_000)

  let synthetic =
    lazy
      (Acq_data.Synthetic_gen.generate (Rng.create 904)
         { Acq_data.Synthetic_gen.n = 10; gamma = 1; sel = 0.5 }
         ~rows:4_000)

  let lab_query ds seed =
    Acq_workload.Query_gen.lab_query (Rng.create seed) ~train:ds

  let garden_query ds n seed =
    Acq_workload.Query_gen.garden_query (Rng.create seed)
      ~schema:(Acq_data.Dataset.schema ds) ~n_motes:n

  let plan algo options q train () =
    ignore (P.plan ~options algo q ~train : P.result)

  let opts = P.default_options

  let cheap ds = Acq_data.Schema.cheap_indices (Acq_data.Dataset.schema ds)

  let tests =
    [
      (* fig1: correlation statistics over the lab trace. *)
      Test.make ~name:"fig1/mutual-information"
        (Staged.stage (fun () ->
             let ds = Lazy.force lab_coarse in
             ignore
               (Acq_prob.Mutual_info.mi ds Acq_data.Lab_gen.idx_hour
                  Acq_data.Lab_gen.idx_light
                 : float)));
      (* fig2: one-split conditional plan. *)
      Test.make ~name:"fig2/heuristic-1split"
        (Staged.stage
           (let ds = Lazy.force lab in
            let q = lab_query ds 91 in
            plan P.Heuristic { opts with max_splits = 1 } q ds));
      (* fig3: exhaustive enumeration on 3 binary attributes. *)
      Test.make ~name:"fig3/enumerate"
        (Staged.stage (fun () ->
             let schema =
               Acq_data.Schema.create
                 [
                   Acq_data.Attribute.discrete ~name:"x1" ~cost:10.0 ~domain:2;
                   Acq_data.Attribute.discrete ~name:"x2" ~cost:10.0 ~domain:2;
                   Acq_data.Attribute.discrete ~name:"x3" ~cost:1.0 ~domain:2;
                 ]
             in
             let rng = Rng.create 92 in
             let rows =
               Array.init 500 (fun _ ->
                   [| Rng.int rng 2; Rng.int rng 2; Rng.int rng 2 |])
             in
             let ds = Acq_data.Dataset.create schema rows in
             let q =
               Acq_plan.Query.create schema
                 [
                   Acq_plan.Predicate.inside ~attr:0 ~lo:1 ~hi:1;
                   Acq_plan.Predicate.inside ~attr:1 ~lo:1 ~hi:1;
                 ]
             in
             ignore
               (Acq_core.Enumerate.all_plans q
                  ~costs:(Acq_data.Schema.costs schema)
                  (Acq_prob.Backend.empirical ds)
                 : (Acq_plan.Plan.t * float) list)));
      (* fig8a: exhaustive planning on the coarsened lab problem. *)
      Test.make ~name:"fig8a/exhaustive-r2"
        (Staged.stage
           (let ds = Lazy.force lab_coarse in
            let q = lab_query ds 93 in
            plan P.Exhaustive
              { opts with split_points_per_attr = 2; exhaustive_budget = 5_000_000 }
              q ds));
      (* fig8b: heuristic at a large SPSF. *)
      Test.make ~name:"fig8b/heuristic-r8"
        (Staged.stage
           (let ds = Lazy.force lab_coarse in
            let q = lab_query ds 94 in
            plan P.Heuristic { opts with split_points_per_attr = 8 } q ds));
      (* fig8c: heuristic-10 on the full-resolution lab data. *)
      Test.make ~name:"fig8c/heuristic-10"
        (Staged.stage
           (let ds = Lazy.force lab in
            let q = lab_query ds 95 in
            plan P.Heuristic { opts with max_splits = 10 } q ds));
      (* fig9: plan printing path. *)
      Test.make ~name:"fig9/plan-and-print"
        (Staged.stage
           (let ds = Lazy.force lab in
            let q = lab_query ds 96 in
            fun () ->
              let p = (P.plan ~options:opts P.Heuristic q ~train:ds).P.plan in
              ignore (Acq_plan.Printer.to_string q p : string)));
      (* fig10/fig11: greedy conditional planning over garden schemas. *)
      Test.make ~name:"fig10/heuristic-garden5"
        (Staged.stage
           (let ds = Lazy.force garden5 in
            let q = garden_query ds 5 97 in
            plan P.Heuristic
              { opts with split_points_per_attr = 4;
                candidate_attrs = Some (cheap ds) }
              q ds));
      Test.make ~name:"fig11/heuristic-garden11"
        (Staged.stage
           (let ds = Lazy.force garden11 in
            let q = garden_query ds 11 98 in
            plan P.Heuristic
              { opts with split_points_per_attr = 4;
                candidate_attrs = Some (cheap ds) }
              q ds));
      (* fig12: synthetic-data planning. *)
      Test.make ~name:"fig12/heuristic-synthetic"
        (Staged.stage
           (let ds = Lazy.force synthetic in
            let q =
              Acq_workload.Query_gen.synthetic_query
                { Acq_data.Synthetic_gen.n = 10; gamma = 1; sel = 0.5 }
                ~schema:(Acq_data.Dataset.schema ds)
            in
            plan P.Heuristic
              { opts with candidate_attrs = Some (cheap ds) }
              q ds));
      (* scale: the sequential planners. *)
      Test.make ~name:"scale/optseq-m10"
        (Staged.stage
           (let ds = Lazy.force garden5 in
            let q = garden_query ds 5 99 in
            let est = Acq_prob.Backend.empirical ds in
            let costs = Acq_data.Schema.costs (Acq_data.Dataset.schema ds) in
            fun () -> ignore (Acq_core.Optseq.order q ~costs est : int list * float)));
      Test.make ~name:"scale/greedyseq-m22"
        (Staged.stage
           (let ds = Lazy.force garden11 in
            let q = garden_query ds 11 100 in
            let est = Acq_prob.Backend.empirical ds in
            let costs = Acq_data.Schema.costs (Acq_data.Dataset.schema ds) in
            fun () ->
              ignore (Acq_core.Greedyseq.order q ~costs est : int list * float)));
      (* ablate-size: plan serialization (the bytes the radio ships). *)
      Test.make ~name:"ablate-size/serialize"
        (Staged.stage
           (let ds = Lazy.force garden5 in
            let q = garden_query ds 5 101 in
            let p =
              (P.plan
                 ~options:{ opts with max_splits = 10; split_points_per_attr = 4 }
                 P.Heuristic q ~train:ds)
                .P.plan
            in
            fun () ->
              ignore (Acq_plan.Serialize.decode (Acq_plan.Serialize.encode p)
                       : Acq_plan.Plan.t)));
      (* ablate-model: Chow-Liu learning and inference. *)
      Test.make ~name:"ablate-model/chow-liu-learn"
        (Staged.stage (fun () ->
             ignore (Acq_prob.Chow_liu.learn (Lazy.force lab_coarse)
                      : Acq_prob.Chow_liu.t)));
      (* ablate-spsf: greedy split search at a fine grid. *)
      Test.make ~name:"ablate-spsf/heuristic-r16"
        (Staged.stage
           (let ds = Lazy.force lab in
            let q = lab_query ds 102 in
            plan P.Heuristic { opts with split_points_per_attr = 16 } q ds));
      (* obs: telemetry overhead on the executor hot loop — the same
         average_cost call with a no-op handle vs a live registry. *)
      Test.make ~name:"obs/avg-cost-noop"
        (Staged.stage
           (let ds = Lazy.force lab in
            let q = lab_query ds 91 in
            let costs = Acq_data.Schema.costs (Acq_data.Dataset.schema ds) in
            let p = (P.plan ~options:opts P.Heuristic q ~train:ds).P.plan in
            fun () ->
              ignore
                (Acq_plan.Executor.average_cost ~obs:Acq_obs.Telemetry.noop q
                   ~costs p ds
                  : float)));
      Test.make ~name:"obs/avg-cost-live"
        (Staged.stage
           (let ds = Lazy.force lab in
            let q = lab_query ds 91 in
            let costs = Acq_data.Schema.costs (Acq_data.Dataset.schema ds) in
            let p = (P.plan ~options:opts P.Heuristic q ~train:ds).P.plan in
            let m = Acq_obs.Metrics.create () in
            let obs = Acq_obs.Telemetry.create ~metrics:m () in
            fun () ->
              ignore
                (Acq_plan.Executor.average_cost ~obs q ~costs p ds : float)));
      (* adapt: the per-epoch session duty cycle (observe + window
         push) and the plan-cache key normalization. *)
      Test.make ~name:"adapt/session-observe"
        (Staged.stage
           (let ds = Lazy.force synthetic in
            let q =
              Acq_workload.Query_gen.synthetic_query
                { Acq_data.Synthetic_gen.n = 10; gamma = 1; sel = 0.5 }
                ~schema:(Acq_data.Dataset.schema ds)
            in
            let session =
              Acq_adapt.Session.create ~algorithm:P.Heuristic ~window:256
                ~history:ds q
            in
            let n = Acq_data.Dataset.nrows ds in
            let i = ref 0 in
            fun () ->
              Acq_adapt.Session.observe session ~cost:100.0
                (Acq_data.Dataset.row ds (!i mod n));
              incr i));
      Test.make ~name:"adapt/cache-signature"
        (Staged.stage
           (let ds = Lazy.force synthetic in
            let q =
              Acq_workload.Query_gen.synthetic_query
                { Acq_data.Synthetic_gen.n = 10; gamma = 1; sel = 0.5 }
                ~schema:(Acq_data.Dataset.schema ds)
            in
            fun () ->
              ignore
                (Acq_adapt.Plan_cache.signature ~options:opts ~stats_epoch:7
                   ~algorithm:P.Heuristic q
                  : string)));
    ]
end

(* ------------------------------------------------------------------ *)
(* The section harness. A section is declared once, as a name and a
   thunk that builds its JSON document. Everything else derives from
   the name: the output file BENCH_<name>.json, the checked-in schema
   bench/BENCH_<name>.schema.json, validation against it, and a
   one-line console report read from the document's own "summary". *)

module J = Acq_obs.Json

type section = { name : string; run : unit -> J.t }

let output_path name = "BENCH_" ^ name ^ ".json"

let schema_path name =
  Filename.concat "bench" ("BENCH_" ^ name ^ ".schema.json")

let jint n = J.Num (float_of_int n)

(* Measurement discipline: every timed field is a spread over
   [n_trials] samples taken after one untimed warm-up. Gates read the
   median; q1/q3 record how far the host let it move. With five
   samples the quartiles are exact order statistics (the 2nd, 3rd and
   4th smallest), so unit conversions commute with them. *)

let n_trials = 5

type spread = { q1 : float; median : float; q3 : float }

let spread xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let at k = a.(k * (Array.length a - 1) / 4) in
  { q1 = at 1; median = at 2; q3 = at 3 }

let scale k s = { q1 = k *. s.q1; median = k *. s.median; q3 = k *. s.q3 }

(* Seconds to a rate: a decreasing map, so the quartiles swap. *)
let per work s = { q1 = work /. s.q3; median = work /. s.median; q3 = work /. s.q1 }

let spread_json s =
  J.Obj [ ("q1", J.Num s.q1); ("median", J.Num s.median); ("q3", J.Num s.q3) ]

let seconds f =
  let t0 = Unix.gettimeofday () in
  f ();
  Float.max 1e-9 (Unix.gettimeofday () -. t0)

(* The harness's one timing loop: one untimed warm-up, then [n_trials]
   calls of [sample], and one spread per reading [sample] returns. *)
let trials sample =
  ignore (sample () : float array);
  let samples = List.init n_trials (fun _ -> sample ()) in
  Array.mapi
    (fun k _ -> spread (List.map (fun s -> s.(k)) samples))
    (List.hd samples)

(* Paired comparison: each trial alternates [rounds] runs of [a] and
   [b], so host drift lands on both sides of a pair alike, and the
   ratio t_a / t_b (the speedup of [b] over [a]) is taken per trial
   before the median. Returns the per-trial seconds spreads of [a] and
   [b] and the ratio's. *)
let paired ?(rounds = 1) a b =
  let s =
    trials (fun () ->
        let ta = ref 0.0 and tb = ref 0.0 in
        for _ = 1 to rounds do
          ta := !ta +. seconds a;
          tb := !tb +. seconds b
        done;
        [| !ta; !tb; !ta /. !tb |])
  in
  (s.(0), s.(1), s.(2))

(* Check [v] against the subset of JSON Schema the checked-in schemas
   use: type, required, properties, items, minItems, minimum, maximum,
   const, enum — plus a custom [requiredMetricNames] list of metric
   families that must have been recorded somewhere in the document.
   Returns human-readable errors. *)
let schema_errors schema v =
  let errs = ref [] in
  let err path msg = errs := Printf.sprintf "%s: %s" path msg :: !errs in
  let rec go path s v =
    let field name =
      match s with J.Obj kvs -> List.assoc_opt name kvs | _ -> None
    in
    (match field "type" with
    | Some (J.Str t) ->
        let ok =
          match (t, v) with
          | "object", J.Obj _
          | "array", J.Arr _
          | "string", J.Str _
          | "number", J.Num _
          | "boolean", J.Bool _ ->
              true
          | _ -> false
        in
        if not ok then err path ("expected " ^ t)
    | _ -> ());
    (match (field "required", v) with
    | Some (J.Arr req), J.Obj kvs ->
        List.iter
          (function
            | J.Str k ->
                if not (List.mem_assoc k kvs) then
                  err path ("missing field " ^ k)
            | _ -> ())
          req
    | _ -> ());
    (match (field "properties", v) with
    | Some (J.Obj props), J.Obj kvs ->
        List.iter
          (fun (k, sub) ->
            match List.assoc_opt k kvs with
            | Some vv -> go (path ^ "." ^ k) sub vv
            | None -> ())
          props
    | _ -> ());
    (match (field "items", v) with
    | Some sub, J.Arr elems ->
        List.iteri
          (fun i vv -> go (Printf.sprintf "%s[%d]" path i) sub vv)
          elems
    | _ -> ());
    (match (field "minItems", v) with
    | Some (J.Num n), J.Arr elems ->
        if List.length elems < int_of_float n then
          err path (Printf.sprintf "fewer than %.0f items" n)
    | _ -> ());
    (match (field "minimum", v) with
    | Some (J.Num lo), J.Num x ->
        if x < lo then err path (Printf.sprintf "%g below minimum %g" x lo)
    | Some (J.Num _), _ -> err path "minimum given for non-number"
    | _ -> ());
    (match (field "maximum", v) with
    | Some (J.Num hi), J.Num x ->
        if x > hi then err path (Printf.sprintf "%g above maximum %g" x hi)
    | Some (J.Num _), _ -> err path "maximum given for non-number"
    | _ -> ());
    (match field "enum" with
    | Some (J.Arr allowed) ->
        if not (List.mem v allowed) then
          err path ("not one of " ^ J.to_string (J.Arr allowed))
    | _ -> ());
    match field "const" with
    | Some c -> if c <> v then err path ("not the required constant " ^ J.to_string c)
    | None -> ()
  in
  go "$" schema v;
  (match J.member "requiredMetricNames" schema with
  | Some (J.Arr names) ->
      let mentioned = ref [] in
      let rec collect v =
        match v with
        | J.Obj kvs ->
            List.iter
              (fun (k, vv) ->
                (match (k, vv) with
                | "name", J.Str s -> mentioned := s :: !mentioned
                | _ -> ());
                collect vv)
              kvs
        | J.Arr l -> List.iter collect l
        | _ -> ()
      in
      collect v;
      List.iter
        (function
          | J.Str n ->
              if not (List.mem n !mentioned) then
                err "$" ("metric never recorded: " ^ n)
          | _ -> ())
        names
  | _ -> ());
  List.rev !errs

let validate name path =
  let load p =
    match In_channel.with_open_bin p In_channel.input_all with
    | exception Sys_error e ->
        Printf.eprintf "%s: cannot read (%s)\n" p e;
        exit 1
    | s -> (
        match J.parse s with
        | Ok v -> v
        | Error e ->
            Printf.eprintf "%s: invalid JSON: %s\n" p e;
            exit 1)
  in
  let schema_path = schema_path name in
  let doc = load path in
  let schema = load schema_path in
  match schema_errors schema doc with
  | [] -> Printf.printf "%s conforms to %s\n" path schema_path
  | errs ->
      List.iter (fun e -> Printf.eprintf "%s: %s\n" path e) errs;
      exit 1

let rec show = function
  | J.Num x -> Printf.sprintf "%.4g" x
  | J.Bool b -> string_of_bool b
  | J.Str s -> s
  | J.Obj [ ("q1", q1); ("median", m); ("q3", q3) ] ->
      Printf.sprintf "%s [%s, %s]" (show m) (show q1) (show q3)
  | v -> J.to_string v

(* Run a section, write its document, and report its summary. *)
let emit s =
  let doc = s.run () in
  let path = output_path s.name in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (J.to_string doc);
      output_char oc '\n');
  let summary =
    match J.member "summary" doc with Some (J.Obj kvs) -> kvs | _ -> []
  in
  Printf.printf "wrote %s: %s\n%!" path
    (String.concat ", " (List.map (fun (k, v) -> k ^ " " ^ show v) summary))

(* ------------------------------------------------------------------ *)
(* obs: representative workloads run under a live metrics registry;
   each entry records the run's planner search statistics next to
   every counter it produced — planner search effort, per-attribute
   executor acquisitions, and per-mote runtime energy. The schema's
   requiredMetricNames pins the families that must appear. *)

(* tick_overhead: the serving tick's cost under a live registry over
   its cost under Telemetry.noop. Two populations of tick-selective-like
   sessions — 25 lab shapes x 20 sessions, window 512, as acqpd
   subscribes them — each stepped by its own Supervisor once the
   windows are full. They are built and warmed side by side, session by
   session and row by row, so neither inherits a worse heap layout, and
   they see the same rows, so they do the same work apart from the
   telemetry. Replans are off (Policy.static_): the timed work is the
   serving path alone — execute, observe and the due trigger checks.
   Gate: the median paired ratio live / noop <= 1.10. *)
let tick_shapes = 25
let tick_sessions_per_shape = 20
let tick_window = 512
let tick_steps = 20 (* Supervisor.step calls per side per round *)
let tick_rounds = 10

let tick_overhead () =
  let module Ad = Acq_adapt in
  let history, live =
    Acq_data.Dataset.split_by_time (Lazy.force K.lab) ~train_fraction:0.5
  in
  let n = Acq_data.Dataset.nrows live in
  let queries = List.init tick_shapes (fun i -> K.lab_query history (300 + i)) in
  let side telemetry =
    ( telemetry,
      Ad.Plan_cache.create ~capacity:tick_shapes (),
      Ad.Supervisor.create_empty ~telemetry () )
  in
  let live_side =
    side (Acq_obs.Telemetry.create ~metrics:(Acq_obs.Metrics.create ()) ())
  and noop_side = side Acq_obs.Telemetry.noop in
  List.iter
    (fun q ->
      for _ = 1 to tick_sessions_per_shape do
        List.iter
          (fun (telemetry, cache, sup) ->
            ignore
              (Ad.Supervisor.register sup
                 (Ad.Session.create ~telemetry ~cache ~policy:Ad.Policy.static_
                    ~algorithm:Acq_core.Planner.Heuristic ~window:tick_window
                    ~history q)
                : int))
          [ live_side; noop_side ]
      done)
    queries;
  let stepper (_, _, sup) =
    let cursor = ref 0 in
    fun k ->
      for _ = 1 to k do
        ignore
          (Ad.Supervisor.step sup (Acq_data.Dataset.row live (!cursor mod n))
            : Acq_plan.Executor.outcome array);
        incr cursor
      done
  in
  let live_step = stepper live_side and noop_step = stepper noop_side in
  for _ = 1 to tick_window do
    live_step 1;
    noop_step 1
  done;
  let live_s, noop_s, ratio =
    paired ~rounds:tick_rounds
      (fun () -> live_step tick_steps)
      (fun () -> noop_step tick_steps)
  in
  let us_per_tick s =
    spread_json (scale (1e6 /. float_of_int (tick_rounds * tick_steps)) s)
  in
  ( J.Obj
      [
        ("sessions", jint (tick_shapes * tick_sessions_per_shape));
        ("window", jint tick_window);
        ("ticks_per_trial", jint (tick_rounds * tick_steps));
        ("live_us_per_tick", us_per_tick live_s);
        ("noop_us_per_tick", us_per_tick noop_s);
        ("ratio", spread_json ratio);
      ],
    ratio )

let obs_section () =
  let module P = Acq_core.Planner in
  let module S = Acq_core.Search in
  let planner experiment ds q name options algo =
    ( experiment,
      name,
      fun obs -> (P.plan ~options ~telemetry:obs algo q ~train:ds).P.stats )
  in
  let lab_coarse = Lazy.force K.lab_coarse in
  let lab_q = K.lab_query lab_coarse 93 in
  let lab = planner "lab-coarse" lab_coarse lab_q in
  let garden5 = Lazy.force K.garden5 in
  let synthetic = Lazy.force K.synthetic in
  let runs =
    [
      lab "Naive" K.opts P.Naive;
      lab "CorrSeq" K.opts P.Corr_seq;
      lab "Heuristic" { K.opts with split_points_per_attr = 2 } P.Heuristic;
      lab "Exhaustive-r2"
        { K.opts with split_points_per_attr = 2; exhaustive_budget = 5_000_000 }
        P.Exhaustive;
      planner "garden5" garden5
        (K.garden_query garden5 5 97)
        "Heuristic-10"
        {
          K.opts with
          max_splits = 10;
          split_points_per_attr = 4;
          candidate_attrs = Some (K.cheap garden5);
        }
        P.Heuristic;
      planner "synthetic" synthetic
        (Acq_workload.Query_gen.synthetic_query
           { Acq_data.Synthetic_gen.n = 10; gamma = 1; sel = 0.5 }
           ~schema:(Acq_data.Dataset.schema synthetic))
        "Heuristic"
        { K.opts with candidate_attrs = Some (K.cheap synthetic) }
        P.Heuristic;
      ( "lab-runtime",
        "Heuristic",
        fun obs ->
          let history, live =
            Acq_data.Dataset.split_by_time (Lazy.force K.lab)
              ~train_fraction:0.5
          in
          (Acq_sensor.Runtime.run ~telemetry:obs ~algorithm:P.Heuristic
             ~history ~live (K.lab_query history 91))
            .Acq_sensor.Runtime.plan_stats );
    ]
  in
  let results =
    List.map
      (fun (experiment, algorithm, thunk) ->
        let m = Acq_obs.Metrics.create () in
        let stats = thunk (Acq_obs.Telemetry.create ~metrics:m ()) in
        (experiment, algorithm, stats, m))
      runs
  in
  let total f = jint (List.fold_left (fun acc (_, _, s, _) -> acc + f s) 0 results) in
  let tick, tick_ratio = tick_overhead () in
  J.Obj
    [
      ("version", J.Num 1.0);
      ("tick_overhead", tick);
      ( "entries",
        J.Arr
          (List.map
             (fun (experiment, algorithm, (s : S.stats), m) ->
               J.Obj
                 [
                   ("experiment", J.Str experiment);
                   ("algorithm", J.Str algorithm);
                   ( "stats",
                     J.Obj
                       [
                         ("nodes_solved", jint s.S.nodes_solved);
                         ("memo_hits", jint s.S.memo_hits);
                         ("estimator_calls", jint s.S.estimator_calls);
                         ("plan_size", jint s.S.plan_size);
                         ("wall_ms", J.Num s.S.wall_ms);
                       ] );
                   ("metrics", Acq_obs.Metrics.to_json m);
                 ])
             results) );
      ( "summary",
        J.Obj
          [
            ("runs", jint (List.length results));
            ("nodes_solved", total (fun s -> s.S.nodes_solved));
            ("estimator_calls", total (fun s -> s.S.estimator_calls));
            ("tick_overhead", spread_json tick_ratio);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* adapt: one drifting trace (two correlation flips) and one
   stationary trace, each served under every replanning policy; per-arm
   energy, replan counts, and the full switch timeline. The headline:
   drift-triggered replanning beats the static plan by >= 15% total
   energy on the drifting trace within change_points + 2 replans, and
   never fires on the stationary trace. *)

let adapt_params = { Acq_data.Synthetic_gen.n = 12; gamma = 2; sel = 0.25 }
let adapt_rows = 6_000
let adapt_change_points = [ 2_000; 4_000 ]
let adapt_window = 256

let adapt_run ~live policy =
  let history =
    Acq_data.Synthetic_gen.generate (Acq_util.Rng.create 71) adapt_params
      ~rows:2_000
  in
  let schema = Acq_data.Dataset.schema history in
  let q = Acq_workload.Query_gen.synthetic_query adapt_params ~schema in
  let options =
    {
      K.opts with
      candidate_attrs = Some (Acq_data.Schema.cheap_indices schema);
      max_splits = 3;
    }
  in
  Acq_sensor.Runtime.run_adaptive ~options ~policy ~window:adapt_window
    ~algorithm:Acq_core.Planner.Heuristic ~history ~live q

let adapt_entry ~trace name (r : Acq_sensor.Runtime.adaptive_report) =
  let module Rt = Acq_sensor.Runtime in
  let module S = Acq_adapt.Session in
  let module C = Acq_adapt.Plan_cache in
  let switch (sw : S.switch) =
    J.Obj
      [
        ("epoch", jint sw.S.epoch);
        ( "trigger",
          J.Str
            (match sw.S.reason with
            | Acq_adapt.Policy.Periodic _ -> "periodic"
            | Acq_adapt.Policy.Drift _ -> "drift"
            | Acq_adapt.Policy.Regret _ -> "regret") );
        ("reason", J.Str (Acq_adapt.Policy.describe sw.S.reason));
        ("old_expected", J.Num sw.S.old_expected);
        ("new_expected", J.Num sw.S.new_expected);
        ("plan_bytes", jint sw.S.plan_bytes);
        ("cache_hit", J.Bool sw.S.cache_hit);
      ]
  in
  let c = r.Rt.cache_stats in
  J.Obj
    [
      ("policy", J.Str name);
      ("trace", J.Str trace);
      ("epochs", jint r.Rt.a_epochs);
      ("matches", jint r.Rt.a_matches);
      ("replans", jint r.Rt.a_replans);
      ("failed_replans", jint r.Rt.a_failed_replans);
      ("acquisition_energy", J.Num r.Rt.a_acquisition_energy);
      ("radio_energy", J.Num r.Rt.a_radio_energy);
      ("total_energy", J.Num r.Rt.a_total_energy);
      ("correct", J.Bool r.Rt.a_correct);
      ("switches", J.Arr (List.map switch r.Rt.switches));
      ( "cache",
        J.Obj
          [
            ("hits", jint c.C.hits);
            ("misses", jint c.C.misses);
            ("evictions", jint c.C.evictions);
            ("invalidations", jint c.C.invalidations);
          ] );
    ]

let adapt_section () =
  let module Rt = Acq_sensor.Runtime in
  let module Pol = Acq_adapt.Policy in
  let drift = Pol.drift_triggered ~check_every:32 ~cooldown:128 0.10 in
  let policies =
    [
      ("static", Pol.static_);
      ("periodic-1k", Pol.periodic 1_000);
      ("drift", drift);
      ("drift-regret", Pol.drift_regret ~check_every:32 ~cooldown:128 0.10 ~regret:1.5);
    ]
  in
  let drifting_live =
    Acq_data.Synthetic_gen.generate_drifting (Acq_util.Rng.create 72)
      adapt_params ~rows:adapt_rows ~change_points:adapt_change_points
  in
  let drifting =
    List.map (fun (name, pol) -> (name, adapt_run ~live:drifting_live pol)) policies
  in
  let stationary_drift =
    adapt_run
      ~live:
        (Acq_data.Synthetic_gen.generate (Acq_util.Rng.create 73) adapt_params
           ~rows:adapt_rows)
      drift
  in
  let static_total = (List.assoc "static" drifting).Rt.a_total_energy in
  let drift_r = List.assoc "drift" drifting in
  J.Obj
    [
      ("version", J.Num 1.0);
      ( "scenario",
        J.Obj
          [
            ("rows", jint adapt_rows);
            ("change_points", J.Arr (List.map jint adapt_change_points));
            ("window", jint adapt_window);
            ("algorithm", J.Str "Heuristic");
          ] );
      ( "entries",
        J.Arr
          (List.map (fun (name, r) -> adapt_entry ~trace:"drifting" name r) drifting
          @ [ adapt_entry ~trace:"stationary" "drift" stationary_drift ]) );
      ( "summary",
        J.Obj
          [
            ("static_total_energy", J.Num static_total);
            ("drift_total_energy", J.Num drift_r.Rt.a_total_energy);
            ( "drift_vs_static_energy_ratio",
              J.Num (drift_r.Rt.a_total_energy /. static_total) );
            ("drift_replans", jint drift_r.Rt.a_replans);
            ("max_replans_allowed", jint (List.length adapt_change_points + 2));
            ("stationary_drift_replans", jint stationary_drift.Rt.a_replans);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* par: the garden5 workload fanned across a 4-domain pool versus run
   sequentially, and a repeated portfolio race. The fan-out headline
   is the deterministic work-balance speedup (total work units /
   busiest domain's units — what wall-clock speedup converges to given
   enough cores); wall times are recorded beside it. Every parallel
   report must be byte-identical to its sequential twin. *)

let par_jobs = 4
let par_queries = 8
let par_races = 20

let par_section () =
  let module Pe = Acq_par.Parallel_experiment in
  let module Pf = Acq_par.Portfolio in
  let module Pool = Acq_par.Domain_pool in
  let module P = Acq_core.Planner in
  let garden5 = Lazy.force K.garden5 in
  let train, test = Acq_data.Dataset.split_by_time garden5 ~train_fraction:0.5 in
  let schema = Acq_data.Dataset.schema garden5 in
  let options =
    { K.opts with split_points_per_attr = 4; candidate_attrs = Some (K.cheap garden5) }
  in
  let specs =
    [ { Pe.name = "heuristic"; build = (fun q -> P.plan ~options P.Heuristic q ~train) } ]
  in
  let gen_query rng = Acq_workload.Query_gen.garden_query rng ~schema ~n_motes:5 in
  let fan ?pool () =
    Pe.run ?pool ~seed:906 ~specs ~gen_query ~n_queries:par_queries ~train ~test ()
  in
  (* One registry collects the 4-domain fan-out's merged worker shards
     and the portfolio kernel's counters. *)
  let reg = Acq_obs.Metrics.create () in
  let obs = Acq_obs.Telemetry.create ~metrics:reg () in
  let ms (s : spread) = spread_json (scale 1000.0 s) in
  (* The timing trials are also the determinism runs: every sequential
     and every 4-domain report must render byte-identically. *)
  let runs = ref [] in
  let run f () = runs := f () :: !runs in
  let fan_seq, fan_par, fan_speedup =
    Pool.with_pool ~telemetry:obs ~domains:par_jobs (fun pool ->
        paired (run (fun () -> fan ())) (run (fun () -> fan ~pool ())))
  in
  let par = List.hd !runs in
  let canon (o : Pe.outcome) = Pe.report_to_string o.Pe.report in
  let deterministic = List.for_all (fun o -> canon o = canon par) !runs in
  (* Portfolio kernel: the coarsened lab problem, where exhaustive is
     feasible and the three arms genuinely compete. *)
  let lab_coarse = Lazy.force K.lab_coarse in
  let pq = K.lab_query lab_coarse 93 in
  let popts = { K.opts with split_points_per_attr = 2; exhaustive_budget = 5_000_000 } in
  let outcomes =
    Pool.with_pool ~telemetry:obs ~domains:3 (fun pool ->
        List.init par_races (fun _ ->
            Pf.race ~options:popts ~pool ~telemetry:obs pq ~train:lab_coarse))
  in
  let race_sig (o : Pf.outcome) =
    match o.Pf.winner with
    | Some (a, r) -> Printf.sprintf "%s:%.6f" (P.algorithm_name a) r.P.est_cost
    | None -> "none"
  in
  let first_race = List.hd outcomes in
  let race_consistent =
    List.for_all (fun o -> race_sig o = race_sig first_race) outcomes
  in
  let work_speedup = Pe.work_speedup par in
  let units = Pe.work_units par.Pe.report in
  let cores = Domain.recommended_domain_count () in
  J.Obj
    [
      ("version", J.Num 1.0);
      ("cores", jint cores);
      ( "fanout",
        J.Obj
          [
            ("dataset", J.Str "garden5");
            ("spec", J.Str "heuristic");
            ("jobs", jint par_jobs);
            ("queries", jint par_queries);
            ("sequential_wall_ms", ms fan_seq);
            ("parallel_wall_ms", ms fan_par);
            ("wall_speedup", spread_json fan_speedup);
            ("work_speedup", J.Num work_speedup);
            ("work_units_total", jint (Array.fold_left ( + ) 0 units));
            ("task_domains", J.Arr (Array.to_list (Array.map jint par.Pe.task_domains)));
            ("deterministic", J.Bool deterministic);
          ] );
      ( "portfolio",
        J.Obj
          [
            ("dataset", J.Str "lab-coarse");
            ("races", jint par_races);
            ("consistent", J.Bool race_consistent);
            ( "winner",
              match first_race.Pf.winner with
              | Some (a, r) ->
                  J.Obj
                    [
                      ("algorithm", J.Str (P.algorithm_name a));
                      ("est_cost", J.Num r.P.est_cost);
                    ]
              | None -> J.Obj [ ("algorithm", J.Str "none") ] );
            ( "arms",
              J.Arr
                (List.map
                   (fun (arm : Pf.arm) ->
                     J.Obj
                       [
                         ("algorithm", J.Str (P.algorithm_name arm.Pf.algorithm));
                         ("status", J.Str (Pf.status_name arm.Pf.status));
                         ( "est_cost",
                           match arm.Pf.result with
                           | Some r -> J.Num r.P.est_cost
                           | None -> J.Str "-" );
                       ])
                   first_race.Pf.arms) );
          ] );
      ("pool_metrics", Acq_obs.Metrics.to_json reg);
      ( "summary",
        J.Obj
          [
            ("fanout_speedup", J.Num work_speedup);
            ("speedup_kind", J.Str "work-balance");
            ("wall_speedup", spread_json fan_speedup);
            ("deterministic", J.Bool deterministic);
          ] );
    ]

(* The correlated 4-attribute problem the prob and audit sections
   share: two cheap and two expensive attributes over 8 values, 3000
   rows drawn around a per-row base value, and random 4-predicate
   conjunctions over it. *)
let schema4 =
  Acq_data.Schema.create
    [
      Acq_data.Attribute.discrete ~name:"c0" ~cost:1.0 ~domain:8;
      Acq_data.Attribute.discrete ~name:"c1" ~cost:2.0 ~domain:8;
      Acq_data.Attribute.discrete ~name:"e0" ~cost:50.0 ~domain:8;
      Acq_data.Attribute.discrete ~name:"e1" ~cost:80.0 ~domain:8;
    ]

let corr4 seed row =
  let rng = Acq_util.Rng.create seed in
  Acq_data.Dataset.create schema4
    (Array.init 3_000 (fun _ -> row rng (Acq_util.Rng.int rng 8)))

let queries4 seed ~lo_range n =
  let rng = Acq_util.Rng.create seed in
  List.init n (fun _ ->
      let pred attr =
        let lo = Acq_util.Rng.int rng lo_range in
        let hi = lo + 1 + Acq_util.Rng.int rng (7 - lo) in
        Acq_plan.Predicate.inside ~attr ~lo ~hi
      in
      Acq_plan.Query.create schema4 [ pred 0; pred 1; pred 2; pred 3 ])

(* ------------------------------------------------------------------ *)
(* prob: the memo combinator's hit rate when one shared memoized
   backend serves an exhaustive-planner workload over a 4-attribute
   problem, with a differential check that memoization leaves every
   plan and expected cost byte-identical. Floor: hit rate >= 0.5. *)

let prob_memo_queries = 12

let prob_section () =
  let module P = Acq_core.Planner in
  let module B = Acq_prob.Backend in
  let module Rng = Acq_util.Rng in
  let ds4 =
    corr4 772 (fun rng base ->
        [|
          base;
          (base + Rng.int rng 3) mod 8;
          (base + Rng.int rng 2) mod 8;
          Rng.int rng 8;
        |])
  in
  let queries = queries4 773 ~lo_range:6 prob_memo_queries in
  let costs4 = Acq_data.Schema.costs schema4 in
  let options =
    { K.opts with split_points_per_attr = 2; exhaustive_budget = 5_000_000 }
  in
  let run_workload backend =
    List.map
      (fun q ->
        let r = P.plan_with_backend ~options P.Exhaustive q ~costs:costs4 backend in
        (Acq_plan.Serialize.encode r.P.plan, r.P.est_cost))
      queries
  in
  let plain = run_workload (B.empirical ds4) in
  let m = Acq_obs.Metrics.create () in
  let obs = Acq_obs.Telemetry.create ~metrics:m () in
  let memoized =
    run_workload
      (B.of_dataset ~telemetry:obs ~spec:{ B.kind = B.Empirical; memoize = true } ds4)
  in
  let identical =
    List.for_all2
      (fun (e1, c1) (e2, c2) -> Bytes.equal e1 e2 && Float.equal c1 c2)
      plain memoized
  in
  let counter prefix =
    List.fold_left
      (fun acc (k, v) ->
        if String.starts_with ~prefix k then acc +. v else acc)
      0.0 (Acq_obs.Metrics.snapshot m)
  in
  let hits = counter "acqp_prob_memo_hits_total" in
  let misses = counter "acqp_prob_memo_misses_total" in
  let hit_rate = if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0 in
  J.Obj
    [
      ("version", J.Num 1.0);
      ( "memo",
        J.Obj
          [
            ("workload", J.Str "exhaustive-4attr");
            ("queries", jint prob_memo_queries);
            ("hits", J.Num hits);
            ("misses", J.Num misses);
            ("hit_rate", J.Num hit_rate);
            ("plans_identical_with_memo", J.Bool identical);
          ] );
      ( "summary",
        J.Obj
          [
            ("memo_hit_rate", J.Num hit_rate);
            ("plans_identical_with_memo", J.Bool identical);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* The garden5 execution fixture the exec and audit sections share:
   six heuristic plans over the held-out half, each lowered once to a
   batch with its own calibration probe, and the test columns hoisted
   once. Both sections time the same sweeps, so exec's compiled
   throughput and audit's audit-off throughput measure one thing. The
   columns are hoisted because Runner.average_cost_prepared transposes
   the dataset (Dataset.columns) on every sweep, which on this workload
   costs as much as the sweep itself. *)

let exec_queries = 6
let exec_parity_rows = 256
let tree_reps = 30
let compiled_reps = 300

type exec_fixture = {
  test : Acq_data.Dataset.t;
  costs : float array;
  plans : (Acq_plan.Query.t * Acq_plan.Plan.t * Acq_exec.Batch.t * Acq_exec.Probe.t) list;
  cols : int array array;
  nrows : int;
}

let exec_fixture =
  lazy
    (let module P = Acq_core.Planner in
     let garden5 = Lazy.force K.garden5 in
     let train, test = Acq_data.Dataset.split_by_time garden5 ~train_fraction:0.5 in
     let schema = Acq_data.Dataset.schema garden5 in
     let costs = Acq_data.Schema.costs schema in
     let options =
       { K.opts with split_points_per_attr = 4; candidate_attrs = Some (K.cheap garden5) }
     in
     let rng = Acq_util.Rng.create 911 in
     let plans =
       List.init exec_queries (fun _ ->
           let q = Acq_workload.Query_gen.garden_query rng ~schema ~n_motes:5 in
           let p = (P.plan ~options P.Heuristic q ~train).P.plan in
           let auto = Acq_exec.Compile.compile q p in
           (q, p, Acq_exec.Batch.create ~costs auto, Acq_exec.Probe.create auto))
     in
     {
       test;
       costs;
       plans;
       cols = Acq_data.Dataset.columns test;
       nrows = Acq_data.Dataset.nrows test;
     })

(* Parity before speed: on every plan, the compiled sweep and (when
   [audited]) the probed tree and compiled sweeps must reproduce the
   unaudited tree interpreter — Float.equal averages and identical
   per-tuple verdict, cost and acquisition order on a row prefix. *)
let exec_parity ~audited f =
  let module E = Acq_plan.Executor in
  let module Batch = Acq_exec.Batch in
  let same (a : E.outcome) (b : E.outcome) =
    a.E.verdict = b.E.verdict && Float.equal a.E.cost b.E.cost
    && a.E.acquired = b.E.acquired
  in
  List.for_all
    (fun (q, p, b, probe) ->
      let reference = E.average_cost q ~costs:f.costs p f.test in
      List.for_all
        (fun probe ->
          Option.iter Acq_exec.Probe.reset probe;
          let audit = Option.map Acq_exec.Probe.hook probe in
          Float.equal reference (E.average_cost ?audit q ~costs:f.costs p f.test)
          && Float.equal reference (Batch.sweep_columns ?probe b f.cols ~nrows:f.nrows)
          && List.for_all
               (fun r ->
                 let row = Acq_data.Dataset.row f.test r in
                 let expect = E.run_tuple q ~costs:f.costs p row in
                 same expect (E.run_tuple ?audit q ~costs:f.costs p row)
                 && same expect (Batch.run_tuple ?probe b row))
               (List.init (min exec_parity_rows f.nrows) Fun.id))
        (None :: (if audited then [ Some probe ] else [])))
    f.plans

let exec_sink = ref 0.0

(* [reps] Eq.-4 sweeps of every fixture plan, on the tree interpreter
   or the compiled automaton over the hoisted columns; [probed]
   attaches each plan's probe. *)
let sweeps ~compiled ~probed f reps () =
  for _ = 1 to reps do
    List.iter
      (fun (q, p, b, probe) ->
        let probe = if probed then Some probe else None in
        exec_sink :=
          !exec_sink
          +.
          if compiled then Acq_exec.Batch.sweep_columns ?probe b f.cols ~nrows:f.nrows
          else
            Acq_plan.Executor.average_cost
              ?audit:(Option.map Acq_exec.Probe.hook probe)
              q ~costs:f.costs p f.test)
      f.plans
  done

let tuples_per_sec f reps s =
  spread_json (per (float_of_int (reps * f.nrows * exec_queries)) s)

let exec_workload f =
  J.Obj
    [
      ("dataset", J.Str "garden5");
      ("planner", J.Str "heuristic");
      ("queries", jint exec_queries);
      ("rows", jint f.nrows);
    ]

(* exec: the tree interpreter vs the compiled flat automaton on the
   shared fixture; floor: compiled >= 2.5x tree. *)
let exec_section () =
  let f = Lazy.force exec_fixture in
  let identical = exec_parity ~audited:false f in
  let tree, compiled, ratio =
    paired ~rounds:tree_reps
      (sweeps ~compiled:false ~probed:false f 1)
      (sweeps ~compiled:true ~probed:false f (compiled_reps / tree_reps))
  in
  let speedup =
    spread_json (scale (float_of_int compiled_reps /. float_of_int tree_reps) ratio)
  in
  J.Obj
    [
      ("version", J.Num 1.0);
      ("workload", exec_workload f);
      ( "throughput",
        J.Obj
          [
            ("tree_tuples_per_sec", tuples_per_sec f tree_reps tree);
            ("compiled_tuples_per_sec", tuples_per_sec f compiled_reps compiled);
            ("speedup", speedup);
          ] );
      ( "parity",
        J.Obj
          [
            ("identical", J.Bool identical);
            ("checked_rows", jint (min exec_parity_rows f.nrows));
          ] );
      ("summary", J.Obj [ ("exec_speedup", speedup); ("identical", J.Bool identical) ]);
    ]

(* ------------------------------------------------------------------ *)
(* audit: three claims.
   1. Overhead: on the shared exec fixture, the calibration probe costs
      at most 1.10x on the compiled path — the median of paired on/off
      ratios, with its interval.
   2. Identity: audited and unaudited execution are byte-identical on
      the compiled path and on the tree oracle.
   3. Calibration ordering: on a correlated synthetic workload the
      pooled calibration gap ranks the estimators as the paper's
      ablation predicts — independence (correlation-blind) worst,
      Chow-Liu between, empirical (exact counts on its own data) ~0 — plus
      a regret assessment showing the independence-planned plan pays
      realized regret against the replanned arms. *)

let audit_calib_queries = 8

let audit_section () =
  let module P = Acq_core.Planner in
  let module B = Acq_prob.Backend in
  let module Rng = Acq_util.Rng in
  let module Cal = Acq_audit.Calibration in
  let f = Lazy.force exec_fixture in
  let identical = exec_parity ~audited:true f in
  let on, off, slowdown =
    paired ~rounds:compiled_reps
      (sweeps ~compiled:true ~probed:true f 1)
      (sweeps ~compiled:true ~probed:false f 1)
  in
  let comp_slowdown = spread_json slowdown in
  (* -- calibration ordering on a correlated 4-attribute problem ------ *)
  let ds4 =
    corr4 922 (fun rng base ->
        [|
          base;
          (base + Rng.int rng 2) mod 8;
          (base + Rng.int rng 2) mod 8;
          (base + Rng.int rng 3) mod 8;
        |])
  in
  let costs4 = Acq_data.Schema.costs schema4 in
  let queries4 = queries4 923 ~lo_range:5 audit_calib_queries in
  let options4 = { K.opts with split_points_per_attr = 2 } in
  let names4 = Acq_data.Schema.names schema4 in
  let backends =
    List.map
      (fun (name, kind) -> (name, B.of_dataset ~spec:{ B.kind; memoize = false } ds4))
      [
        ("independence", B.Independence);
        ("chow-liu", B.Chow_liu);
        ("empirical", B.Empirical);
      ]
  in
  let trackers = List.map (fun (name, _) -> (name, Cal.create names4)) backends in
  List.iter
    (fun q ->
      (* One fixed plan per query (empirical-planned) executes once;
         each backend is then judged on its own predictions for that
         same plan against the shared observed counts. *)
      let plan =
        (P.plan_with_backend ~options:options4 P.Heuristic q ~costs:costs4
           (B.empirical ds4))
          .P.plan
      in
      let auto = Acq_exec.Compile.compile q plan in
      let probe = Acq_exec.Probe.create auto in
      ignore
        (Acq_exec.Batch.average_cost ~probe (Acq_exec.Batch.create ~costs:costs4 auto) ds4
          : float);
      List.iter2
        (fun (_, backend) (_, tracker) ->
          let predictions =
            Acq_audit.Recorder.predictions q ~backend plan
              ~n_nodes:(Acq_exec.Compile.n_nodes auto)
          in
          Cal.absorb_nodes tracker auto ~predictions
            ~visits:(Acq_exec.Probe.visits probe)
            ~hits:(Acq_exec.Probe.hits probe))
        backends trackers)
    queries4;
  let err name = Cal.calibration_error (List.assoc name trackers) in
  let indep_err = err "independence" in
  let cl_err = err "chow-liu" in
  let empirical_err = err "empirical" in
  let independence_gt_chow_liu = indep_err > cl_err in
  let chow_liu_ge_empirical = cl_err >= empirical_err -. 1e-9 in
  (* -- regret: price the independence-planned plan against the arms -- *)
  let regret_q = List.hd queries4 in
  let indep_plan =
    (P.plan_with_backend ~options:options4 P.Heuristic regret_q ~costs:costs4
       (List.assoc "independence" backends))
      .P.plan
  in
  let module R = Acq_audit.Regret in
  let regret =
    R.assess ~options:options4 ~current_plan:indep_plan regret_q ~costs:costs4 ds4
  in
  J.Obj
    [
      ("version", J.Num 1.0);
      ("workload", exec_workload f);
      ( "overhead",
        J.Obj
          [
            ("compiled_off_tuples_per_sec", tuples_per_sec f compiled_reps off);
            ("compiled_on_tuples_per_sec", tuples_per_sec f compiled_reps on);
            ("compiled_slowdown", comp_slowdown);
          ] );
      ( "identity",
        J.Obj
          [
            ("identical", J.Bool identical);
            ("checked_rows", jint (min exec_parity_rows f.nrows));
          ] );
      ( "calibration",
        J.Obj
          [
            ("dataset", J.Str "synthetic-4attr-correlated");
            ("queries", jint audit_calib_queries);
            ("independence_error", J.Num indep_err);
            ("chow_liu_error", J.Num cl_err);
            ("empirical_error", J.Num empirical_err);
            ( "ordering",
              J.Obj
                [
                  ("independence_gt_chow_liu", J.Bool independence_gt_chow_liu);
                  ("chow_liu_ge_empirical", J.Bool chow_liu_ge_empirical);
                ] );
          ] );
      ( "regret",
        J.Obj
          [
            ("rows", jint regret.R.rows);
            ("current_realized", J.Num regret.R.current_realized);
            ("regret", J.Num regret.R.regret);
            ("regret_ratio", J.Num regret.R.regret_ratio);
            ( "arms",
              J.Arr
                (List.map
                   (fun (a : R.assessment) ->
                     J.Obj
                       [
                         ("arm", J.Str a.R.arm.R.name);
                         ("planned", J.Bool a.R.planned);
                         ("realized_cost", J.Num a.R.realized_cost);
                       ])
                   regret.R.assessments) );
          ] );
      ( "summary",
        J.Obj
          [
            ("audit_overhead", comp_slowdown);
            ("identical", J.Bool identical);
            ( "calibration_ordering_holds",
              J.Bool (independence_gt_chow_liu && chow_liu_ge_empirical) );
            ("regret_ratio", J.Num regret.R.regret_ratio);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* serve: the acqpd stack (engine + select-loop server + load
   generator) co-driven in one process over a real Unix socket.
   1. Identity: the daemon's RUN payload is byte-identical to the
      one-shot CLI rendering of the same (spec, query, options).
   2. Scale: 50 connections x 21 SUBSCRIBEs = 1050 concurrent
      continuous sessions (with malformed clients mixed in), events
      flowing, then a graceful drain that BYEs every client.
   3. Throughput: ping-only round trips per second through the full
      parse/dispatch/frame path, each trial on a fresh server; the
      2000 rps floor sits two orders of magnitude under the measured
      rate, so only a broken event loop trips it. *)

let serve_spec = { Acq_serve.Source.kind = Acq_serve.Source.Lab; rows = 400; seed = 42 }

(* The one-shot CLI rendering of [sql], and whether a daemon RUN of it
   under [opts] returns the same bytes. *)
let run_identity ?(options = Acq_core.Planner.default_options) ~algorithm opts sql =
  let module Sv = Acq_serve in
  let history, live = Sv.Source.history_live serve_spec in
  match Acq_sql.Catalog.compile_result (Acq_data.Dataset.schema history) sql with
  | Error e -> failwith ("bench query failed to compile: " ^ e)
  | Ok c -> (
      let expected =
        fst
          (Sv.Oneshot.run_to_string ~options ~algorithm ~history ~live
             c.Acq_sql.Catalog.query)
      in
      match Sv.Engine.run (Sv.Engine.create serve_spec) ~tenant:"bench" opts sql with
      | Ok text -> String.equal text expected
      | Error _ -> false)

let serve_section () =
  let module Sv = Acq_serve in
  let module L = Sv.Loadgen in
  let chatty = Sv.Source.chatty_sql serve_spec.Sv.Source.kind in
  let run_identity =
    run_identity ~algorithm:Acq_core.Planner.Heuristic Sv.Protocol.no_opts chatty
  in
  (* Start a server on a fresh socket, co-drive it with a load
     generator until [finished], then tear both down. *)
  let with_server ?(limits = Sv.Limits.default) name config drive =
    let sock = Filename.concat (Filename.get_temp_dir_name ()) name in
    (try Unix.unlink sock with Unix.Unix_error _ -> ());
    let engine = Sv.Engine.create ~limits serve_spec in
    let server =
      Sv.Server.create ~unix_path:sock
        ~listeners:[ Sv.Server.listen_unix sock ]
        engine limits
    in
    let gen =
      L.create ~config (fun () ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX sock);
          fd)
    in
    let result = drive engine server gen in
    let report = L.report gen in
    L.close_all gen;
    Sv.Server.stop server;
    (try Unix.unlink sock with Unix.Unix_error _ -> ());
    (result, report)
  in
  (* -- scale + drain ------------------------------------------------- *)
  let scale_config =
    {
      L.connections = 50;
      subscriptions_per_conn = 21;
      pings_per_conn = 2;
      runs_per_conn = 0;
      tenants = 5;
      malformed = 3;
      slow = 0;
      events_target = max_int;  (* park in soak until the drain BYEs *)
      sql = "algo=heuristic " ^ chatty;
    }
  in
  let (max_live, clean_drain), scale =
    with_server "acqpd_bench_scale.sock" scale_config
      ~limits:{ Sv.Limits.default with Sv.Limits.max_sessions_per_tenant = 1_100 }
      (fun engine server gen ->
        let target = scale_config.L.connections * scale_config.L.subscriptions_per_conn in
        let max_live = ref 0 and steps = ref 0 in
        while !max_live < target && !steps < 20_000 do
          Sv.Server.poll ~timeout_ms:0 server;
          ignore (L.step ~timeout_ms:1 gen : bool);
          max_live := max !max_live (Sv.Engine.live_subscriptions engine);
          incr steps
        done;
        Sv.Server.request_shutdown server;
        steps := 0;
        while (not (Sv.Server.finished server && L.finished gen)) && !steps < 20_000 do
          Sv.Server.poll ~timeout_ms:0 server;
          Sv.Server.drain_step ~grace_s:2.0 server;
          ignore (L.step ~timeout_ms:1 gen : bool);
          incr steps
        done;
        (!max_live, Sv.Server.finished server && L.finished gen))
  in
  (* -- ping throughput ------------------------------------------------ *)
  let ping_config =
    {
      L.connections = 20;
      subscriptions_per_conn = 0;
      pings_per_conn = 250;
      runs_per_conn = 0;
      tenants = 4;
      malformed = 0;
      slow = 0;
      events_target = 0;
      sql = chatty;
    }
  in
  let completed = ref 0 in
  let ping =
    trials (fun () ->
        let (), r =
          with_server "acqpd_bench_ping.sock" ping_config (fun _ server gen ->
              let steps = ref 0 in
              while (not (L.finished gen)) && !steps < 50_000 do
                Sv.Server.poll ~timeout_ms:0 server;
                ignore (L.step ~timeout_ms:0 gen : bool);
                incr steps
              done)
        in
        completed := r.L.ok;
        [| r.L.rps; r.L.p99_ms |])
  in
  let ping_rps = spread_json ping.(0) in
  J.Obj
    [
      ("version", J.Num 1.0);
      ( "workload",
        J.Obj
          [
            ("dataset", J.Str (Sv.Source.kind_to_string serve_spec.Sv.Source.kind));
            ("rows", jint serve_spec.Sv.Source.rows);
            ("seed", jint serve_spec.Sv.Source.seed);
            ("connections", jint scale_config.L.connections);
            ("tenants", jint scale_config.L.tenants);
          ] );
      ( "sessions",
        J.Obj
          [
            ("concurrent_sessions", jint max_live);
            ("events_delivered", jint scale.L.events);
            ("structured_errors", jint scale.L.errors);
            ("disconnects", jint scale.L.disconnects);
          ] );
      ( "throughput",
        J.Obj
          [
            ("ping_rps", ping_rps);
            ("ping_p99_ms", spread_json ping.(1));
            ("completed", jint !completed);
          ] );
      ("identity", J.Obj [ ("run_identity", J.Bool run_identity) ]);
      ( "drain",
        J.Obj
          [
            ("clean", J.Bool clean_drain);
            ("bye_delivered", jint (scale_config.L.connections - scale.L.disconnects));
          ] );
      ( "summary",
        J.Obj
          [
            ("concurrent_sessions", jint max_live);
            ("ping_rps", ping_rps);
            ("run_identity", J.Bool run_identity);
            ("clean_drain", J.Bool clean_drain);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* sample: the statistical guarantees of the sampled backend and the
   PAC planner arm.
   1. Coverage: 200 seeded resamples of a correlated window; the
      Hoeffding interval on a root and on a conditioned estimate must
      cover the exact full-window probability at >= 0.9 = 1 - delta.
   2. Certificate: 200 seeded instances; the PAC plan's (epsilon,
      delta) certificate must hold against the brute-force oracle —
      cost_bound >= true plan cost and cost_bound <= (1 + epsilon) *
      optimum — at >= 0.95.
   3. Cold data: on the expensive-predicate (UDF) workload the Pac arm
      planning on sampled(1024, 0.001) must match the exact CorrSeq
      plan's live cost on a drifted cold trace within 10%, certifying
      from at most 4096 of 6000 rows.
   4. Identity: a daemon RUN with model=sampled(...) is byte-identical
      to the one-shot CLI rendering. *)

let sample_dataset seed domains rows =
  let module Rng = Acq_util.Rng in
  let n = Array.length domains in
  let rng = Rng.create seed in
  let schema =
    Acq_data.Schema.create
      (List.init n (fun k ->
           Acq_data.Attribute.discrete
             ~name:(Printf.sprintf "a%d" k)
             ~cost:(float_of_int ((k * 3) + 2))
             ~domain:domains.(k)))
  in
  let data =
    Array.init rows (fun _ ->
        let regime = Rng.float rng 1.0 in
        Array.init n (fun k ->
            if Rng.bernoulli rng 0.7 then
              min (domains.(k) - 1) (int_of_float (regime *. float_of_int domains.(k)))
            else Rng.int rng domains.(k)))
  in
  Acq_data.Dataset.create schema data

let sample_brute_force q ~costs est =
  let rec perms = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x -> List.map (fun rest -> x :: rest) (perms (List.filter (( <> ) x) l)))
          l
  in
  List.fold_left
    (fun best order ->
      Float.min best (Acq_core.Expected_cost.of_order q ~costs est order))
    infinity
    (perms (List.init (Acq_plan.Query.n_predicates q) Fun.id))

let sample_section () =
  let module B = Acq_prob.Backend in
  let module P = Acq_core.Planner in
  let module Pred = Acq_plan.Predicate in
  let module DS = Acq_data.Dataset in
  let module Search = Acq_core.Search in
  (* -- 1. interval coverage over seeded resamples ------------------- *)
  let coverage_trials = 200 in
  let cov_delta = 0.1 in
  let cov_ds = sample_dataset 7 [| 4; 3; 2 |] 4_000 in
  let exact = B.empirical cov_ds in
  let p_root = Pred.inside ~attr:0 ~lo:2 ~hi:3 in
  let p_cond = Pred.inside ~attr:1 ~lo:0 ~hi:1 in
  let truth_root = B.pred_prob exact p_root in
  let truth_cond = B.pred_prob (B.restrict_pred exact p_root true) p_cond in
  let covered = ref 0 and cov_total = ref 0 in
  let check_cover truth (lo, hi) =
    incr cov_total;
    if lo <= truth +. 1e-12 && truth <= hi +. 1e-12 then incr covered
  in
  for seed = 1 to coverage_trials do
    let b = B.sampled ~seed ~n:256 ~delta:cov_delta cov_ds in
    check_cover truth_root (B.pred_prob_ci b p_root);
    check_cover truth_cond (B.pred_prob_ci (B.restrict_pred b p_root true) p_cond)
  done;
  let coverage_rate = float_of_int !covered /. float_of_int !cov_total in
  (* -- 2. PAC certificate vs the brute-force oracle ----------------- *)
  let certificate_trials = 200 in
  let holds = ref 0 and partial = ref 0 and max_delta = ref 0.0 in
  for seed = 1 to certificate_trials do
    let domains = [| 3; 2; 2 |] in
    let ds = sample_dataset (100 + seed) domains 400 in
    let schema = DS.schema ds in
    let costs = Acq_data.Schema.costs schema in
    let rng = Acq_util.Rng.create (500 + seed) in
    let preds =
      List.init 3 (fun attr ->
          let d = domains.(attr) in
          let lo = Acq_util.Rng.int rng d in
          let hi = lo + Acq_util.Rng.int rng (d - lo) in
          Pred.inside ~attr ~lo ~hi)
    in
    let q = Acq_plan.Query.create schema preds in
    let plan, _cost, cert =
      Acq_core.Pac.plan ~epsilon_target:0.3 q ~costs
        (B.sampled ~seed ~n:32 ~delta:0.002 ds)
    in
    let exact = B.empirical ds in
    let true_cost = Acq_core.Expected_cost.of_plan q ~costs exact plan in
    let oracle = sample_brute_force q ~costs exact in
    max_delta := Float.max !max_delta cert.Search.delta;
    if cert.Search.samples < DS.nrows ds then incr partial;
    if
      cert.Search.cost_bound >= true_cost -. 1e-9
      && cert.Search.cost_bound <= ((1.0 +. cert.Search.epsilon) *. oracle) +. 1e-9
    then incr holds
  done;
  let holds_rate = float_of_int !holds /. float_of_int certificate_trials in
  (* -- 3. cold-data cost on the expensive-predicate workload -------- *)
  let module U = Acq_workload.Udf_gen in
  let p = U.default in
  let udf_rows = 6_000 in
  let train = U.generate (Acq_util.Rng.create 91) p ~rows:udf_rows in
  let cold = U.generate_drifted (Acq_util.Rng.create 92) p ~rows:udf_rows in
  let model = U.cost_model (Acq_util.Rng.create 93) p in
  let q = U.query p in
  let costs = Acq_data.Schema.costs (DS.schema train) in
  let live_cost plan =
    Acq_exec.Runner.average_cost ~model q ~costs plan cold
  in
  let spec_of name =
    match B.spec_of_string name with
    | Ok sp -> sp
    | Error e -> failwith (B.spec_error_to_string e)
  in
  let udf_options spec =
    {
      P.default_options with
      P.prob_model = spec;
      cost_model = Some model;
      (* Near-tied orders make a 5% certified gap cost the whole
         window; 50% demonstrates early stopping (the ceiling). *)
      pac_epsilon = 0.5;
    }
  in
  let exact_r = P.plan ~options:(udf_options (spec_of "empirical")) P.Corr_seq q ~train in
  let pac_r =
    P.plan ~options:(udf_options (spec_of "sampled(1024,0.001)")) P.Pac q ~train
  in
  let exact_cost = live_cost exact_r.P.plan in
  let pac_cost = live_cost pac_r.P.plan in
  let cost_ratio = pac_cost /. Float.max exact_cost 1e-9 in
  let samples_drawn, pac_cert =
    match pac_r.P.stats.Search.certificate with
    | Some c -> (c.Search.samples, Search.certificate_to_string c)
    | None -> (udf_rows, "-")
  in
  (* -- 4. RUN byte-identity under model=sampled --------------------- *)
  let sampled_spec = spec_of "sampled(512,0.01)" in
  let run_identity =
    run_identity
      ~options:{ P.default_options with P.prob_model = sampled_spec }
      ~algorithm:P.Pac
      {
        Acq_serve.Protocol.planner = Some (Acq_serve.Protocol.Fixed P.Pac);
        model = Some sampled_spec;
      }
      (Acq_serve.Source.chatty_sql serve_spec.Acq_serve.Source.kind)
  in
  J.Obj
    [
      ("version", J.Num 1.0);
      ( "coverage",
        J.Obj
          [
            ("trials", jint !cov_total);
            ("covered", jint !covered);
            ("rate", J.Num coverage_rate);
            ("delta", J.Num cov_delta);
          ] );
      ( "certificate",
        J.Obj
          [
            ("trials", jint certificate_trials);
            ("holds", jint !holds);
            ("rate", J.Num holds_rate);
            ("max_delta", J.Num !max_delta);
            ("partial_trials", jint !partial);
          ] );
      ( "cold_data",
        J.Obj
          [
            ("rows", jint udf_rows);
            ("empirical_live_cost", J.Num exact_cost);
            ("sampled_live_cost", J.Num pac_cost);
            ("cost_ratio", J.Num cost_ratio);
            ("samples_drawn", jint samples_drawn);
            ("certificate", J.Str pac_cert);
          ] );
      ("identity", J.Obj [ ("run_identity", J.Bool run_identity) ]);
      ( "summary",
        J.Obj
          [
            ("coverage_rate", J.Num coverage_rate);
            ("certificate_holds_rate", J.Num holds_rate);
            ("cold_cost_ratio", J.Num cost_ratio);
            ("samples_drawn", jint samples_drawn);
            ("run_identity", J.Bool run_identity);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* The registry: every BENCH section, in default-run order. *)

let sections =
  [
    { name = "obs"; run = obs_section };
    { name = "adapt"; run = adapt_section };
    { name = "par"; run = par_section };
    { name = "prob"; run = prob_section };
    { name = "exec"; run = exec_section };
    { name = "audit"; run = audit_section };
    { name = "serve"; run = serve_section };
    { name = "sample"; run = sample_section };
  ]

let run_micro () =
  print_endline "\n== Bechamel micro-benchmarks (one kernel per experiment) ==";
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let instances = [ Instance.monotonic_clock ] in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let t = Acq_util.Tbl.create [ "kernel"; "time/run"; "r^2" ] in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg instances elt in
          let est = Analyze.one ols Instance.monotonic_clock raw in
          let time_ns =
            match Analyze.OLS.estimates est with
            | Some [ e ] -> e
            | Some _ | None -> nan
          in
          let pretty =
            if Float.is_nan time_ns then "n/a"
            else if time_ns > 1e9 then Printf.sprintf "%.2f s" (time_ns /. 1e9)
            else if time_ns > 1e6 then Printf.sprintf "%.2f ms" (time_ns /. 1e6)
            else if time_ns > 1e3 then Printf.sprintf "%.2f us" (time_ns /. 1e3)
            else Printf.sprintf "%.0f ns" time_ns
          in
          let r2 =
            match Analyze.OLS.r_square est with
            | Some r -> Printf.sprintf "%.3f" r
            | None -> "-"
          in
          Acq_util.Tbl.add_row t [ Test.Elt.name elt; pretty; r2 ])
        (Test.elements test))
    K.tests;
  Acq_util.Tbl.print t

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let names = String.concat " " (List.map (fun s -> s.name) sections) in
  let find name =
    match List.find_opt (fun s -> s.name = name) sections with
    | Some s -> s
    | None ->
        Printf.eprintf "unknown section %S (sections: %s)\n" name names;
        exit 2
  in
  match args with
  | [ "--smoke"; name ] ->
      let s = find name in
      emit s;
      validate s.name (output_path s.name)
  | [ "--validate"; name; path ] -> validate (find name).name path
  | _ when List.mem "--smoke" args || List.mem "--validate" args ->
      prerr_endline "usage: main.exe --smoke NAME | --validate NAME FILE";
      exit 2
  | _ when List.mem "--list" args ->
      List.iter
        (fun e ->
          Printf.printf "%-14s %s\n" e.Acq_workload.Registry.id
            e.Acq_workload.Registry.title)
        Acq_workload.Registry.all;
      Printf.printf
        "sections: %s\n\
         flags: --full --micro --no-micro --list --smoke NAME --validate NAME \
         FILE (every other run also writes BENCH_<section>.json for every \
         section)\n"
        names
  | _ ->
      let micro_only = List.mem "--micro" args in
      let ids = List.filter (fun a -> a = "" || a.[0] <> '-') args in
      if not micro_only then
        Acq_workload.Registry.run_selected
          { Acq_workload.Figures.full = List.mem "--full" args }
          ids;
      List.iter emit sections;
      if micro_only || (ids = [] && not (List.mem "--no-micro" args)) then run_micro ()
