(** Many continuous queries, one stream, one planning budget.

    The supervisor owns a set of {!Session}s over the same schema and
    drives them tuple by tuple. It keeps one ring for the stream
    ({!Acq_prob.Sliding}), and every session's window is a view onto
    it ({!Session.attach}), so each tuple is pushed once. Sessions
    whose compiled automata agree (same query, same plan) form a plan
    group: each tuple runs once per group, and the outcome — verdict,
    acquisition cost, acquisition order — is every member's. Each
    session then observes it, and at its check cadence its triggers
    are evaluated under a {e shared} planning-node budget. A tick
    costs one execution per distinct plan plus a few field updates
    per session, not one execution and one window push per session. Replans are granted
    first-come-first-served out of the remaining budget; once it is
    exhausted, sessions park in [Drifting] (their triggers stay
    pending) rather than burning basestation CPU — the multi-query
    analogue of the paper's "re-optimization must be cheap enough to
    run alongside serving".

    The session population is dynamic: the [acqpd] daemon registers a
    session per [SUBSCRIBE] and unregisters it when the client
    unsubscribes or disconnects. Sessions are addressed by the integer
    id {!register} returned; for a population created in one
    {!create} call the ids are [0 .. n-1] in list order. *)

type t

val create :
  ?telemetry:Acq_obs.Telemetry.t ->
  ?planning_budget:int ->
  Session.t list ->
  t
(** [planning_budget] (default unlimited) is the total search nodes
    all sessions together may spend on replans for the lifetime of
    the supervisor.
    @raise Invalid_argument on an empty session list (callers that
    legitimately start empty — the daemon — use {!create_empty}). *)

val create_empty :
  ?telemetry:Acq_obs.Telemetry.t -> ?planning_budget:int -> unit -> t
(** A supervisor with no sessions yet; {!step} on an empty population
    returns an empty outcome array and costs nothing. *)

val register : t -> Session.t -> int
(** Add a session to the population (it joins the stream at the next
    {!step}) and return its id. A session that has observed nothing
    moves its window onto the supervisor's ring ({!Session.attach});
    its window then holds the tuples stepped since it registered.
    Supervised sessions must be driven only through the supervisor
    (its plan groups follow the switches {!step}'s checks make).
    Updates the [acqp_adapt_supervised_sessions] gauge. *)

val unregister : t -> int -> bool
(** Remove a session by id — the daemon's client-disconnect path.
    Returns [false] when the id is unknown (or already removed). If
    the session was parked in [Drifting] on a deferred replan, the
    park is released: its pending claim on the shared budget
    disappears with it (counted by {!released_parked} and the
    [acqp_adapt_released_parked_total] counter), while nodes it
    already spent stay debited — {!charged_nodes} drops by exactly
    the departing session's charge, and
    [planning_budget = budget_remaining + charged_nodes + settled
    charges of unregistered sessions] stays an invariant. *)

val sessions : t -> Session.t list
(** Live sessions, registration order. *)

val ids : t -> int list
(** Live session ids, registration order — index-aligned with
    {!sessions} and with the outcome array {!step} returns. *)

val session : t -> int -> Session.t option
(** Lookup by id. *)

val step : t -> int array -> Acq_plan.Executor.outcome array
(** Serve one stream tuple to every live session (outcomes in
    registration order, index-aligned with {!ids}): push it onto the
    ring, execute each plan group once (an audited session executes
    alone, through its own probe; the executor series are credited
    once per member, so they read as if every session had executed),
    meter, observe, and run any due trigger checks under the shared
    budget (first come, first served in registration order).

    The array is the supervisor's own and is reused: it stays valid
    until the next [step], which overwrites it (a [step] after
    {!register} or {!unregister} may return a fresh one). Copy it to
    keep it longer. Outside the due checks, a step allocates per plan
    group (its outcome), not per session. *)

val iter_matches : t -> (int -> Acq_plan.Executor.outcome -> unit) -> unit
(** [iter_matches t f] calls [f id outcome] for every session whose
    outcome in the last {!step} matched, in registration order — the
    events of the tick, without a pass over the other sessions. Valid
    until the next {!step}, {!register} or {!unregister} (after the
    latter two it reports nothing).

    A plan group executes once per step and stores that one outcome in
    every member's slot, so all members of a group receive the
    physically same [outcome] ([==]): a caller can derive per-outcome
    work (an EVENT payload) once per group by physical equality. *)

val run_dataset : t -> Acq_data.Dataset.t -> unit
(** {!step} every row in order. *)

val epoch : t -> int

val acquisition_cost : t -> float
(** Summed over sessions and epochs. *)

val matches : t -> int
(** Verdict-true epochs, summed over sessions. *)

val executions : t -> int
(** Plan executions over the supervisor's life: one per plan group
    per {!step}. *)

val plan_groups : t -> int
(** Distinct plan groups among the live sessions now. *)

val switch_bytes : t -> int
(** Total dissemination payload of every switch by every session. *)

val budget_remaining : t -> int

val deferred_replans : t -> int
(** Confirmed triggers that could not replan because the shared
    budget was exhausted at check time (cumulative). *)

val parked_sessions : t -> int
(** Live sessions currently parked in [Drifting] awaiting budget. *)

val charged_nodes : t -> int
(** Planning nodes debited from the shared budget by the {e live}
    sessions. *)

val unregistered : t -> int
(** Sessions removed via {!unregister} over the supervisor's life. *)

val released_parked : t -> int
(** Parked deferred replans released by {!unregister}. *)

val switches : t -> (int * Session.switch) list
(** Chronological, tagged with the session's id. *)
