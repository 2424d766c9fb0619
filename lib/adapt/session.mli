(** One continuous query served adaptively: a per-query state machine
    that watches its own sliding-window statistics and replaces its
    conditional plan when the distribution leaves the one the plan was
    built for.

    {v
                 trigger fires            trigger confirmed
      Serving ----------------> Drifting ------------------> Replanning
         ^  <----------------      |                             |
         |    trigger cleared      |                             | bounded
         |                         |                   planner   | Search
         |                         v                   failed /  | budget
         |                      (cooldown)             same plan |
         |                                                       v
         +----------------------------------------------------- Switching
                    install plan, charge plan_bytes dissemination
    v}

    [Serving] executes the current plan and accumulates window
    statistics. A policy trigger ({!Policy.evaluate}) moves the
    session to [Drifting]; the trigger must still hold at the {e next}
    check (hysteresis against a score grazing the threshold) before
    the session replans. [Replanning] looks the window up in the
    {!Plan_cache} (keyed by the window's rows, so a hit is exactly the
    plan this session would plan) and on a miss runs the configured
    planner over the window's probability backend (built per
    [options.prob_model] via {!Acq_prob.Sliding.Window.backend},
    reusing the ring's packed buffers — a steady-state replan
    allocates no fresh statistics storage) under a bounded
    {!Acq_core.Search} node budget, and [Switching]
    atomically installs the new plan, charges its encoded size as
    dissemination cost via the [on_switch] callback, re-bases the
    drift reference on an O(domains) marginal-counts snapshot of the
    window, and resets the realized-cost meter. A replan that returns the {e same} plan (periodic replans
    on stationary data) refreshes statistics but skips the switch, so
    no dissemination is charged. All four states are transient within
    one {!check} call except [Serving] and [Drifting]; the full entry
    log is exposed for tests via {!transitions}. *)

type state = Serving | Drifting | Replanning | Switching

type switch = {
  epoch : int;  (** epochs observed when the switch happened *)
  reason : Policy.reason;
  old_expected : float;  (** outgoing plan's estimated cost/epoch *)
  new_expected : float;
  plan_bytes : int;  (** ζ(new plan): the dissemination payload *)
  drift : float;  (** window drift score at switch time *)
  cache_hit : bool;  (** plan came out of the {!Plan_cache} *)
  search : Acq_core.Search.stats;  (** effort behind the new plan *)
}

type t

val create :
  ?options:Acq_core.Planner.options ->
  ?telemetry:Acq_obs.Telemetry.t ->
  ?cache:Plan_cache.t ->
  ?invalidate_stale:bool ->
  ?policy:Policy.t ->
  ?replan_budget:int ->
  ?exec_mode:Acq_exec.Mode.t ->
  ?audit:Acq_audit.Audit.t ->
  ?on_switch:(Acq_plan.Plan.t -> switch -> unit) ->
  algorithm:Acq_core.Planner.algorithm ->
  window:int ->
  history:Acq_data.Dataset.t ->
  Acq_plan.Query.t ->
  t
(** Plans the initial plan from [history] (through [cache] when one is
    given, under [stats_epoch = 0]; a hit builds no history backend)
    and starts Serving. [window] is the sliding-window capacity in
    tuples; the window starts on a private ring, see {!attach}.
    [replan_budget] (default
    200_000 search nodes) bounds each replanning pass via
    {!Acq_core.Planner.options.search_budget}; a pass that exhausts it
    keeps the old plan and counts as a failed replan.
    [invalidate_stale] (default false) makes every successful replan
    call {!Plan_cache.invalidate} for entries older than the window's
    generation — enable it only when the session owns the cache
    (other sessions' windows may be younger).
    [on_switch] is called with the new plan exactly once per switch —
    the hook the sensor runtime uses to disseminate.
    The session lowers each installed plan once — at creation and
    again on every switch — and serves {!execute} from the cached
    automaton. [exec_mode] is ignored; see {!Acq_exec.Mode}.
    [audit] attaches an {!Acq_audit.Audit} pipeline: the session
    installs every chosen plan into it (initial plan, every successful
    replan — switch or statistics rebase), {!execute} feeds its probe,
    state transitions and drift scores land in the flight recorder,
    and every {!check} runs an audit checkpoint (gauges, calibration
    alarm, cadenced regret replay over the window). Pair it with
    {!Policy.with_cost_source} on the session's policy to drive the
    cost-regret trigger from audited cost. *)

val attach : t -> Acq_prob.Sliding.t -> bool
(** Move the window onto a shared ring of the same schema: from now
    on it is the ring's last min(age, window) rows, age counting from
    the ring's next push, and {!observe} no longer pushes — the ring's
    owner pushes each tuple once for every session on it. Only a
    session that has observed nothing yet moves; returns whether it
    did (a session that already has rows, or another schema, keeps
    its private window). A moved session's drift reference is
    {!Acq_prob.Sliding.intern}ed in the ring, as is every later
    rebase's, so sessions on one ring with equal references share one
    drift computation per tuple. *)

val query : t -> Acq_plan.Query.t
val plan : t -> Acq_plan.Plan.t

val prepared : t -> Acq_exec.Runner.prepared
(** Compiled form of {!plan}; recompiled exactly when the plan changes
    (never per epoch). *)

val execute :
  ?obs:Acq_obs.Telemetry.t ->
  t ->
  lookup:(int -> int) ->
  Acq_plan.Executor.outcome
(** Run the current prepared plan on one tuple — what a caller that
    serves the session itself uses between replans instead of
    re-interpreting the tree (a {!Supervisor} runs the session's plan
    group instead). Does {e not} {!observe}; feed the outcome's cost
    back through {!step}/{!observe} as usual. With an audit pipeline
    attached, the tuple also feeds the calibration probe (never
    changing the outcome). *)

val audit : t -> Acq_audit.Audit.t option

val audit_probe : t -> Acq_exec.Probe.t option
(** The audit pipeline's live probe, for callers that execute through
    their own {!Acq_exec.Runner} instead of {!execute} (the sensor
    motes do). *)

val expected_cost : t -> float
val state : t -> state

val epoch : t -> int
(** Tuples observed so far. *)


val drift : t -> float
(** Score at the most recent check. *)

val replans : t -> int
(** Successful planner passes after the first. *)

val failed_replans : t -> int

val switches : t -> switch list
(** Chronological. *)

val transitions : t -> (int * state) list
(** Every state entered, chronological, paired with the epoch. *)

val initial_stats : t -> Acq_core.Search.stats
val planning_nodes : t -> int
(** Cumulative search nodes spent on replans (failed passes charged at
    their granted budget) — what the {!Supervisor} meters its shared
    budget against. Excludes the initial plan. *)

val observe : t -> cost:float -> int array -> unit
(** Account one executed epoch: the realized acquisition [cost] and
    the tuple that produced it (pushed into the window, unless the
    window is on a shared ring: see {!attach}). Does not check
    triggers; allocates nothing. *)

val due : t -> bool
(** True when the policy's check cadence lands on the current epoch. *)

val check : ?max_nodes:int -> t -> switch option
(** Evaluate triggers and drive the state machine, possibly through
    Replanning/Switching; returns the switch if a new plan was
    installed. [max_nodes] (supervisor budget gating) lowers this
    check's replan budget; [max_nodes <= 0] defers the replan
    entirely, leaving the session Drifting. *)

val step : t -> cost:float -> int array -> switch option
(** [observe] then, when {!due}, [check] — the whole per-epoch duty
    cycle for a session not under a supervisor. *)
