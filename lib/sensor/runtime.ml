module T = Acq_obs.Telemetry

type report = {
  plan : Acq_plan.Plan.t;
  plan_stats : Acq_core.Search.stats;
  epochs : int;
  matches : int;
  acquisition_energy : float;
  radio_energy : float;
  total_energy : float;
  avg_cost_per_epoch : float;
  correct : bool;
  metrics : Acq_obs.Metrics.snapshot;
}

let plan_bytes r = r.plan_stats.Acq_core.Search.plan_size

let default_motes schema =
  if Acq_data.Schema.mem schema "nodeid" then
    (Acq_data.Schema.attr schema (Acq_data.Schema.index_of schema "nodeid"))
      .Acq_data.Attribute.domain
  else 1

let run ?options ?radio ?n_motes ?(telemetry = T.noop) ?audit
    ?(audit_every = 512) ~algorithm ~history ~live q =
  T.span telemetry ~cat:"runtime"
    ~attrs:[ ("algorithm", Acq_core.Planner.algorithm_name algorithm) ]
    "runtime.run"
  @@ fun () ->
  let schema = Acq_plan.Query.schema q in
  let costs = Acq_data.Schema.costs schema in
  let base = Basestation.create ?options ~telemetry ~algorithm ~history () in
  let planned = Basestation.plan_query base q in
  let plan = planned.Acq_core.Planner.plan in
  let env = Environment.replay live in
  let n_motes =
    match n_motes with Some n -> n | None -> default_motes schema
  in
  let net = Network.create ?radio ~n_motes () in
  (* Arm the audit pipeline on the disseminated plan, predicting from
     the same history backend the basestation planned with; the live
     trace doubles as the regret-replay window at checkpoints. *)
  (match audit with
  | Some a ->
      let opts =
        match options with
        | Some o -> o
        | None -> Acq_core.Planner.default_options
      in
      let backend =
        Acq_prob.Backend.of_dataset ~telemetry
          ~spec:opts.Acq_core.Planner.prob_model history
      in
      Acq_audit.Audit.install ?model:opts.Acq_core.Planner.cost_model a q
        ~costs ~plan ~expected:planned.Acq_core.Planner.est_cost
        ~backend ~epoch:0
  | None -> ());
  let probe =
    match audit with Some a -> Acq_audit.Audit.probe a | None -> None
  in
  let audit_tick epoch ~final =
    (* The final flush skips epochs the in-loop cadence already
       checkpointed. *)
    let due =
      if final then epoch = 0 || epoch mod audit_every <> 0
      else epoch > 0 && epoch mod audit_every = 0
    in
    match audit with
    | Some a when due ->
        Acq_audit.Audit.checkpoint a ~epoch ~window:(fun () -> live) ()
    | _ -> ()
  in
  let bytes =
    T.span telemetry ~cat:"runtime"
      ~attrs:[ ("motes", string_of_int n_motes) ]
      "runtime.disseminate"
    @@ fun () -> Network.disseminate net plan
  in
  assert (bytes = planned.Acq_core.Planner.stats.Acq_core.Search.plan_size);
  T.set telemetry "acqp_runtime_plan_bytes" (float_of_int bytes);
  let radio = Network.radio net in
  let matches = ref 0 and correct = ref true in
  let instrumented = T.enabled telemetry in
  let metrics = T.metrics telemetry in
  let traced = Option.is_some (T.tracer telemetry) in
  (* Counters resolve once per run, each at its first use — the epoch
     a by-name lookup would first have touched it — so registration
     order, and with it every dump, is unchanged. *)
  let counter ?labels name =
    lazy (Option.map (fun m -> Acq_obs.Metrics.counter m ?labels name) metrics)
  in
  let epochs_c = counter "acqp_runtime_epochs_total"
  and matches_c = counter "acqp_runtime_matches_total" in
  let mote_c =
    Array.init n_motes (fun id ->
        let labels = [ ("mote", string_of_int id) ] in
        ( counter ~labels "acqp_mote_acquisition_energy_total",
          counter ~labels "acqp_mote_radio_energy_total",
          counter ~labels "acqp_mote_tx_bytes_total" ))
  in
  let add c v =
    match Lazy.force c with Some c -> Acq_obs.Metrics.add c v | None -> ()
  in
  let epoch_loop () =
    for epoch = 0 to Environment.n_epochs env - 1 do
      let mote_id = Environment.mote_of_epoch env epoch in
      let mote = Network.mote net mote_id in
      let e = Mote.energy mote in
      let acq0 = e.Energy.acquisition and tx0 = e.Energy.radio_tx in
      let r =
        Mote.run_epoch ~obs:telemetry ?probe mote q ~costs
          ~lookup:(fun attr -> Environment.value env ~epoch ~attr)
      in
      if r.Mote.verdict then incr matches;
      let truth = Acq_plan.Query.eval q (Environment.tuple env ~epoch) in
      if truth <> r.Mote.verdict then correct := false;
      audit_tick (epoch + 1) ~final:false;
      if instrumented then begin
        let tx_bytes =
          if r.Mote.verdict then
            Radio.result_bytes radio ~n_attrs:(List.length r.Mote.acquired)
          else 0
        in
        add epochs_c 1.0;
        if r.Mote.verdict then add matches_c 1.0;
        let acq_c, radio_c, tx_c = mote_c.(mote_id) in
        add acq_c (e.Energy.acquisition -. acq0);
        add radio_c (e.Energy.radio_tx -. tx0);
        add tx_c (float_of_int tx_bytes);
        (* Per-epoch series: cumulative per-mote energy, loadable as
           counter tracks in chrome://tracing. *)
        if traced then
          T.sample telemetry
            (Printf.sprintf "mote%d.energy" mote_id)
            [
              ("acquisition", e.Energy.acquisition);
              ("radio", e.Energy.radio_tx +. e.Energy.radio_rx);
              ("tx_bytes", float_of_int tx_bytes);
            ]
      end
    done
  in
  T.span telemetry ~cat:"runtime"
    ~attrs:[ ("epochs", string_of_int (Environment.n_epochs env)) ]
    "runtime.epochs" epoch_loop;
  audit_tick (Environment.n_epochs env) ~final:true;
  let e = Network.total_energy net in
  let epochs = Environment.n_epochs env in
  let metrics =
    match T.metrics telemetry with
    | Some m -> Acq_obs.Metrics.snapshot m
    | None -> []
  in
  {
    plan;
    plan_stats = planned.Acq_core.Planner.stats;
    epochs;
    matches = !matches;
    acquisition_energy = e.Energy.acquisition;
    radio_energy = e.Energy.radio_tx +. e.Energy.radio_rx;
    total_energy = Energy.total e;
    avg_cost_per_epoch =
      (if epochs = 0 then 0.0 else e.Energy.acquisition /. float_of_int epochs);
    correct = !correct;
    metrics;
  }

(* ------------------------------------------------------------------ *)
(* Adaptive serving: the same epoch loop, but the plan is owned by an
   Acq_adapt.Session that watches window statistics and re-plans; every
   switch re-disseminates through the network so its radio cost lands
   on the motes like the initial plan's did. *)

type adaptive_report = {
  final_plan : Acq_plan.Plan.t;
  initial_stats : Acq_core.Search.stats;
  a_epochs : int;
  a_matches : int;
  a_acquisition_energy : float;
  a_radio_energy : float;
  a_total_energy : float;
  a_correct : bool;
  switches : Acq_adapt.Session.switch list;
  a_replans : int;
  a_failed_replans : int;
  final_drift : float;
  cache_stats : Acq_adapt.Plan_cache.stats;
  a_metrics : Acq_obs.Metrics.snapshot;
}

let run_adaptive ?options ?radio ?n_motes ?(telemetry = T.noop)
    ?(policy = Acq_adapt.Policy.default) ?(window = 512) ?cache
    ?replan_budget ?audit ~algorithm ~history ~live q =
  T.span telemetry ~cat:"runtime"
    ~attrs:[ ("algorithm", Acq_core.Planner.algorithm_name algorithm) ]
    "runtime.run_adaptive"
  @@ fun () ->
  let schema = Acq_plan.Query.schema q in
  let costs = Acq_data.Schema.costs schema in
  let env = Environment.replay live in
  let n_motes =
    match n_motes with Some n -> n | None -> default_motes schema
  in
  let net = Network.create ?radio ~n_motes () in
  let cache =
    match cache with
    | Some c -> c
    | None -> Acq_adapt.Plan_cache.create ~telemetry ~capacity:8 ()
  in
  (* Every switch floods the new plan into the network, exactly like
     the initial dissemination — the replanning loop pays its way. *)
  let on_switch plan (sw : Acq_adapt.Session.switch) =
    let bytes =
      T.span telemetry ~cat:"runtime"
        ~attrs:[ ("epoch", string_of_int sw.Acq_adapt.Session.epoch) ]
        "runtime.redisseminate"
      @@ fun () -> Network.disseminate net plan
    in
    assert (bytes = sw.Acq_adapt.Session.plan_bytes)
  in
  let session =
    T.span telemetry ~cat:"runtime" "runtime.initial_plan" @@ fun () ->
    Acq_adapt.Session.create ?options ~telemetry ~cache ~invalidate_stale:true
      ~policy ?replan_budget ?audit ~on_switch ~algorithm
      ~window ~history q
  in
  let bytes =
    T.span telemetry ~cat:"runtime"
      ~attrs:[ ("motes", string_of_int n_motes) ]
      "runtime.disseminate"
    @@ fun () -> Network.disseminate net (Acq_adapt.Session.plan session)
  in
  T.set telemetry "acqp_runtime_plan_bytes" (float_of_int bytes);
  let matches = ref 0 and correct = ref true in
  let epoch_loop () =
    for epoch = 0 to Environment.n_epochs env - 1 do
      let mote_id = Environment.mote_of_epoch env epoch in
      let mote = Network.mote net mote_id in
      let r =
        (* The probe is re-fetched per epoch: a switch re-arms the
           audit recorder on the new plan, and the stale probe must
           not keep feeding it. *)
        Mote.run_epoch ~obs:telemetry
          ?probe:(Acq_adapt.Session.audit_probe session)
          mote q ~costs
          ~lookup:(fun attr -> Environment.value env ~epoch ~attr)
      in
      if r.Mote.verdict then incr matches;
      let truth = Acq_plan.Query.eval q (Environment.tuple env ~epoch) in
      if truth <> r.Mote.verdict then correct := false;
      (* The mote's tuple is also the basestation's statistics feed; a
         switch re-installs the plan on every mote inside [on_switch]
         (Network.disseminate), so nothing more to do here. *)
      ignore
        (Acq_adapt.Session.step session ~cost:r.Mote.acquisition_cost
           (Environment.tuple env ~epoch)
          : Acq_adapt.Session.switch option)
    done
  in
  T.span telemetry ~cat:"runtime"
    ~attrs:[ ("epochs", string_of_int (Environment.n_epochs env)) ]
    "runtime.adaptive_epochs" epoch_loop;
  (* Final gauge flush; regret cadence is owned by the session's own
     checks, so no window here. *)
  (match audit with
  | Some a -> Acq_audit.Audit.checkpoint a ~epoch:(Environment.n_epochs env) ()
  | None -> ());
  let e = Network.total_energy net in
  let metrics =
    match T.metrics telemetry with
    | Some m -> Acq_obs.Metrics.snapshot m
    | None -> []
  in
  {
    final_plan = Acq_adapt.Session.plan session;
    initial_stats = Acq_adapt.Session.initial_stats session;
    a_epochs = Environment.n_epochs env;
    a_matches = !matches;
    a_acquisition_energy = e.Energy.acquisition;
    a_radio_energy = e.Energy.radio_tx +. e.Energy.radio_rx;
    a_total_energy = Energy.total e;
    a_correct = !correct;
    switches = Acq_adapt.Session.switches session;
    a_replans = Acq_adapt.Session.replans session;
    a_failed_replans = Acq_adapt.Session.failed_replans session;
    final_drift = Acq_adapt.Session.drift session;
    cache_stats = Acq_adapt.Plan_cache.stats cache;
    a_metrics = metrics;
  }

let pp_switch fmt (sw : Acq_adapt.Session.switch) =
  Format.fprintf fmt
    "epoch %6d  %-14s  expected %.2f -> %.2f  disseminated %d bytes%s"
    sw.Acq_adapt.Session.epoch
    (Acq_adapt.Policy.describe sw.Acq_adapt.Session.reason)
    sw.Acq_adapt.Session.old_expected sw.Acq_adapt.Session.new_expected
    sw.Acq_adapt.Session.plan_bytes
    (if sw.Acq_adapt.Session.cache_hit then "  (cached plan)" else "")

let pp_adaptive_report fmt r =
  Format.fprintf fmt
    "@[<v>epochs: %d, matches: %d@,\
     energy: acquisition %.1f + radio %.1f = %.1f@,\
     replans: %d (%d failed), switches: %d, final drift: %.3f@,\
     plan cache: %d hits / %d misses / %d evictions / %d invalidations@,\
     verdicts correct: %b@]"
    r.a_epochs r.a_matches r.a_acquisition_energy r.a_radio_energy
    r.a_total_energy r.a_replans r.a_failed_replans
    (List.length r.switches) r.final_drift
    r.cache_stats.Acq_adapt.Plan_cache.hits
    r.cache_stats.Acq_adapt.Plan_cache.misses
    r.cache_stats.Acq_adapt.Plan_cache.evictions
    r.cache_stats.Acq_adapt.Plan_cache.invalidations r.a_correct

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>plan: %d bytes, %d tests@,\
     planner search: %a@,\
     epochs: %d, matches: %d@,\
     energy: acquisition %.1f + radio %.1f = %.1f@,\
     avg acquisition cost/epoch: %.2f@,\
     verdicts correct: %b@]"
    (plan_bytes r)
    (Acq_plan.Plan.n_tests r.plan)
    Acq_core.Search.pp_stats r.plan_stats r.epochs r.matches
    r.acquisition_energy r.radio_energy r.total_energy r.avg_cost_per_epoch
    r.correct
