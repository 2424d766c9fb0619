(** Many continuous queries, one stream, one planning budget.

    The supervisor owns a set of {!Session}s over the same schema and
    drives them tuple by tuple: each arriving tuple is executed
    against every session's current plan (paying that plan's
    acquisition cost), pushed into every session's window, and — at
    each session's check cadence — triggers are evaluated under a {e
    shared} planning-node budget. Replans are granted
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
    {!step}) and return its id. Updates the
    [acqp_adapt_supervised_sessions] gauge. *)

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
    registration order): execute through each session's prepared
    runner (so a session-attached audit pipeline sees every supervised
    tuple), meter, observe, and run any due trigger checks under the
    shared budget (first come, first served in registration order). *)

val run_dataset : t -> Acq_data.Dataset.t -> unit
(** {!step} every row in order. *)

val epoch : t -> int

val acquisition_cost : t -> float
(** Summed over sessions and epochs. *)

val matches : t -> int
(** Verdict-true epochs, summed over sessions. *)

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
