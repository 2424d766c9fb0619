module P = Acq_core.Planner
module Search = Acq_core.Search
module Sl = Acq_prob.Sliding
module T = Acq_obs.Telemetry
module Audit = Acq_audit.Audit
module W = Sl.Window

type state = Serving | Drifting | Replanning | Switching

let state_name = function
  | Serving -> "serving"
  | Drifting -> "drifting"
  | Replanning -> "replanning"
  | Switching -> "switching"

type switch = {
  epoch : int;
  reason : Policy.reason;
  old_expected : float;
  new_expected : float;
  plan_bytes : int;
  drift : float;
  cache_hit : bool;
  search : Acq_core.Search.stats;
}

(* Float-only, so accumulating allocates no boxed float. *)
type meter = { mutable sum : float }

type t = {
  query : Acq_plan.Query.t;
  costs : float array;
  algorithm : P.algorithm;
  options : P.options;
  policy : Policy.t;
  cache : Plan_cache.t option;
  invalidate_stale : bool;
  telemetry : T.t;
  drift_gauge : Acq_obs.Metrics.gauge option Lazy.t;
      (** resolved at the first check, where a by-name set registered it *)
  mutable window : W.t;
  mutable owns_ring : bool;
      (** the window's ring is private, so {!observe} pushes into it;
          under a supervisor the supervisor pushes its shared ring *)
  replan_budget : int;
  audit : Audit.t option;
  on_switch : Acq_plan.Plan.t -> switch -> unit;
  mutable initial_stats : Search.stats;
  mutable ref_marginals : int array array;
      (** per-attribute value counts of the data the current plan's
          statistics came from — an O(domains) snapshot rather than a
          pinned dataset, so re-basing never aliases the window's
          reusable materialization buffers and drift checks never
          rescan reference rows. Interned in the window's ring at
          {!attach} and at every rebase, so it is shared (never
          mutated) and the ring's drift memo serves equal ones once. *)
  mutable ref_rows : int;
  mutable plan : Acq_plan.Plan.t;
  mutable prepared : Acq_exec.Runner.prepared;
      (** compiled executable form of [plan]; rebuilt exactly
          when [plan] changes (initial plan, every switch), so serving
          epochs between replans run a cached compilation *)
  mutable expected : float;
  mutable state : state;
  mutable drift_armed : bool;
  mutable last_drift : float;
  mutable epoch : int;
  mutable phase : int;  (** [epoch mod policy.check_every] *)
  mutable since_switch : int;
  cost_acc : meter;
  mutable cost_n : int;
  mutable replans : int;
  mutable failed_replans : int;
  mutable planning_nodes : int;
  mutable switches_rev : switch list;
  mutable transitions_rev : (int * state) list;
}

let enter t s =
  t.state <- s;
  t.transitions_rev <- (t.epoch, s) :: t.transitions_rev;
  match t.audit with
  | Some a -> Audit.note_transition a ~epoch:t.epoch (state_name s)
  | None -> ()

let algo_label t = [ ("algorithm", P.algorithm_name t.algorithm) ]

(* Plan through the cache (when there is one) under the key of the
   statistics [est] is built from: the history ([stats_epoch] 0, no
   [window]) or a window's rows. [est] is forced only when the planner
   has to run; returns the result and whether it was a cache hit. *)
let plan_once t ~options ~stats_epoch ?window est =
  let run () =
    P.plan_with_backend ~options ~telemetry:t.telemetry t.algorithm t.query
      ~costs:t.costs (Lazy.force est)
  in
  match t.cache with
  | None -> (run (), false)
  | Some c -> (
      let key =
        Plan_cache.signature ~options ~stats_epoch ?window
          ~algorithm:t.algorithm t.query
      in
      match Plan_cache.find c key with
      | Some r -> (r, true)
      | None ->
          let r = run () in
          Plan_cache.add c key r;
          (r, false))

let create ?(options = P.default_options) ?(telemetry = T.noop) ?cache
    ?(invalidate_stale = false) ?(policy = Policy.default)
    ?(replan_budget = 200_000) ?exec_mode:(_ : Acq_exec.Mode.t option) ?audit
    ?(on_switch = fun _ _ -> ()) ~algorithm ~window ~history query =
  if window < 1 then invalid_arg "Session.create: window < 1";
  let schema = Acq_plan.Query.schema query in
  let costs = Acq_data.Schema.costs schema in
  let prepare plan = Acq_exec.Runner.prepare query ~costs plan in
  let t =
    {
      query;
      costs;
      algorithm;
      options;
      policy;
      cache;
      invalidate_stale;
      telemetry;
      drift_gauge =
        lazy
          (Option.map
             (fun m ->
               Acq_obs.Metrics.gauge m
                 ~labels:[ ("algorithm", P.algorithm_name algorithm) ]
                 "acqp_adapt_drift")
             (T.metrics telemetry));
      window = W.create (Sl.create schema ~capacity:window) ~capacity:window;
      owns_ring = true;
      replan_budget;
      audit;
      on_switch;
      initial_stats = Search.zero_stats;
      ref_marginals = Sl.marginals_of history;
      ref_rows = Acq_data.Dataset.nrows history;
      plan = Acq_plan.Plan.const false;
      prepared = prepare (Acq_plan.Plan.const false);
      expected = 0.0;
      state = Serving;
      drift_armed = true;
      last_drift = 0.0;
      epoch = 0;
      phase = 0;
      since_switch = 0;
      cost_acc = { sum = 0.0 };
      cost_n = 0;
      replans = 0;
      failed_replans = 0;
      planning_nodes = 0;
      switches_rev = [];
      transitions_rev = [ (0, Serving) ];
    }
  in
  (* The initial plan runs under the caller's own budget settings —
     only replans are capped by [replan_budget]. A cache hit needs no
     history backend unless an audit pipeline predicts from it. *)
  let backend =
    lazy
      (Acq_prob.Backend.of_dataset ~spec:options.P.prob_model history)
  in
  let r, _hit = plan_once t ~options ~stats_epoch:0 backend in
  t.initial_stats <- r.P.stats;
  t.plan <- r.P.plan;
  t.prepared <- prepare t.plan;
  t.expected <- r.P.est_cost;
  (match audit with
  | Some a ->
      Audit.install ?model:options.P.cost_model a query ~costs:t.costs
        ~plan:t.plan ~expected:t.expected ~backend:(Lazy.force backend)
        ~epoch:0
  | None -> ());
  t

let same_schema a b =
  a == b
  || Acq_data.Schema.(names a = names b && domains a = domains b && costs a = costs b)

let attach t ring =
  if
    t.owns_ring && t.epoch = 0
    && same_schema (Sl.schema ring) (Acq_plan.Query.schema t.query)
  then begin
    t.window <- W.create ring ~capacity:(W.capacity t.window);
    t.owns_ring <- false;
    t.ref_marginals <- Sl.intern ring t.ref_marginals;
    true
  end
  else false

let reprepare t =
  t.prepared <- Acq_exec.Runner.prepare t.query ~costs:t.costs t.plan

let query t = t.query
let plan t = t.plan
let prepared t = t.prepared
let audit t = t.audit
let audit_probe t = Option.bind t.audit Audit.probe

let execute ?obs t ~lookup =
  Acq_exec.Runner.run ?obs ?probe:(audit_probe t) t.prepared ~lookup

let expected_cost t = t.expected
let state t = t.state
let epoch t = t.epoch
let drift t = t.last_drift
let replans t = t.replans
let failed_replans t = t.failed_replans
let switches t = List.rev t.switches_rev
let transitions t = List.rev t.transitions_rev
let initial_stats t = t.initial_stats
let planning_nodes t = t.planning_nodes

let observe t ~cost row =
  if t.owns_ring then Sl.push (W.ring t.window) row;
  t.epoch <- t.epoch + 1;
  t.phase <-
    (if t.phase + 1 = t.policy.Policy.check_every then 0 else t.phase + 1);
  t.since_switch <- t.since_switch + 1;
  t.cost_acc.sum <- t.cost_acc.sum +. cost;
  t.cost_n <- t.cost_n + 1

let due t = t.epoch > 0 && t.phase = 0

let observation t =
  let drift =
    if W.size t.window = 0 then 0.0
    else
      W.drift_marginals t.window ~reference:t.ref_marginals
        ~rows:t.ref_rows
  in
  t.last_drift <- drift;
  (match Lazy.force t.drift_gauge with
  | Some g -> Acq_obs.Metrics.set g drift
  | None -> ());
  (* One code path for both cost sources: the policy resolves the
     internal accumulator or the external (audit-fed) meter into the
     same observation fields. *)
  let observed_cost, observations =
    Policy.observed_cost t.policy ~internal_sum:t.cost_acc.sum
      ~internal_n:t.cost_n
  in
  {
    Policy.epochs_since_switch = t.since_switch;
    window_full = W.is_full t.window;
    drift;
    observed_cost;
    expected_cost = t.expected;
    observations;
  }

(* Replanning + Switching, inside one [check] call. Returns the switch
   when a new plan was installed. *)
let replan t reason ~max_nodes =
  if W.size t.window = 0 then begin
    (* No statistics to replan from; stand down. *)
    enter t Serving;
    None
  end
  else begin
    enter t Replanning;
    let granted = min t.replan_budget max_nodes in
    let options = { t.options with P.search_budget = Some granted } in
    (* Keyed by the window's rows, so a hit is exactly the plan this
       session would have planned, and built only on a miss (or for
       the audit's predictions). *)
    let stream, generation, rows = W.key t.window in
    let est =
      lazy (W.backend ~spec:t.options.P.prob_model t.window)
    in
    let outcome =
      T.span t.telemetry ~cat:"adapt"
        ~attrs:(("reason", Policy.describe reason) :: algo_label t)
        "adapt.replan"
      @@ fun () ->
      match
        plan_once t ~options ~stats_epoch:generation ~window:(stream, rows)
          est
      with
      | r -> Ok r
      | exception (Search.Budget_exceeded | Search.Deadline_exceeded) ->
          Error ()
    in
    match outcome with
    | Error () ->
        t.failed_replans <- t.failed_replans + 1;
        (* The pass burned (at least) its grant before giving up. *)
        t.planning_nodes <- t.planning_nodes + granted;
        T.incr t.telemetry ~labels:(algo_label t)
          "acqp_adapt_failed_replans_total";
        enter t Serving;
        None
    | Ok (r, cache_hit) ->
        t.replans <- t.replans + 1;
        t.planning_nodes <- t.planning_nodes + r.P.stats.Search.nodes_solved;
        (match t.cache with
        | Some c when t.invalidate_stale ->
            ignore (Plan_cache.invalidate c ~older_than:generation : int)
        | _ -> ());
        T.incr t.telemetry
          ~labels:
            (( "reason",
               match reason with
               | Policy.Periodic _ -> "periodic"
               | Policy.Drift _ -> "drift"
               | Policy.Regret _ -> "regret" )
            :: algo_label t)
          "acqp_adapt_replans_total";
        (* Whether or not the plan changes, the statistics baseline
           moves to the window the pass planned from. *)
        let rebase () =
          t.ref_marginals <- Sl.intern (W.ring t.window) (W.marginals t.window);
          t.ref_rows <- rows;
          t.expected <- r.P.est_cost;
          t.cost_acc.sum <- 0.0;
          t.cost_n <- 0;
          t.since_switch <- 0;
          t.drift_armed <- false;
          (* Re-arm the calibration recorder on the refreshed
             statistics, plan switch or not: predictions must track
             the baseline the plan is now judged against. *)
          match t.audit with
          | Some a ->
              Audit.install ?model:t.options.P.cost_model a t.query
                ~costs:t.costs ~plan:t.plan
                ~expected:r.P.est_cost ~backend:(Lazy.force est)
                ~epoch:t.epoch
          | None -> ()
        in
        if Acq_plan.Plan.equal r.P.plan t.plan then begin
          (* Same tree: stale statistics, fresh conclusion — skip the
             switch and its dissemination charge. *)
          rebase ();
          enter t Serving;
          None
        end
        else begin
          enter t Switching;
          let sw =
            {
              epoch = t.epoch;
              reason;
              old_expected = t.expected;
              new_expected = r.P.est_cost;
              plan_bytes = r.P.stats.Search.plan_size;
              drift = t.last_drift;
              cache_hit;
              search = r.P.stats;
            }
          in
          t.plan <- r.P.plan;
          reprepare t;
          rebase ();
          t.switches_rev <- sw :: t.switches_rev;
          T.incr t.telemetry ~labels:(algo_label t)
            "acqp_adapt_switches_total";
          T.add t.telemetry ~labels:(algo_label t)
            "acqp_adapt_switch_bytes_total"
            (float_of_int sw.plan_bytes);
          t.on_switch t.plan sw;
          enter t Serving;
          Some sw
        end
  end

let check ?(max_nodes = max_int) t =
  let o = observation t in
  (match t.audit with
  | Some a ->
      Audit.note_drift a ~epoch:t.epoch o.Policy.drift;
      let window =
        if W.size t.window = 0 then None
        else Some (fun () -> W.to_dataset t.window)
      in
      Audit.checkpoint a ~epoch:t.epoch ?window ()
  | None -> ());
  if (not t.drift_armed) && Policy.rearms t.policy o then t.drift_armed <- true;
  match t.state with
  | Replanning | Switching ->
      (* Transient states never escape [check]; refuse re-entrancy. *)
      None
  | Serving -> (
      match Policy.evaluate t.policy ~drift_armed:t.drift_armed o with
      | None -> None
      | Some _ ->
          (* First alarm: require it to survive one more check before
             paying for a replan. *)
          enter t Drifting;
          None)
  | Drifting -> (
      match Policy.evaluate t.policy ~drift_armed:t.drift_armed o with
      | None ->
          (* Cleared before confirmation — hysteresis ate a thrash. *)
          enter t Serving;
          None
      | Some reason ->
          if max_nodes <= 0 then None (* budget-starved: stay Drifting *)
          else replan t reason ~max_nodes)

let step t ~cost row =
  observe t ~cost row;
  if due t then check t else None
