(** The daemon's socket-free brain: multi-tenant request handling over
    one generated dataset. The {!Server} owns sockets and framing and
    calls in here; tests call in here directly.

    Per tenant: a {!Acq_adapt.Plan_cache}, a planning-node quota
    (PLAN/RUN/SUBSCRIBE search work is charged against it; exhausted →
    [429]), and a live-subscription cap. Daemon-wide: one
    {!Acq_adapt.Supervisor} whose shared budget meters every drift
    replan, and one metrics registry behind [METRICS].

    Every request handler returns [Ok payload] or
    [Error (code, message)] — the error codes of {!Protocol}. Nothing
    in this module raises on bad input. *)

type t

type tenant

val create :
  ?limits:Limits.t ->
  ?registry:Acq_obs.Metrics.t ->
  Source.spec ->
  t
(** Materializes the dataset spec, splits history/live 50/50, and
    starts with no tenants, no subscriptions, an idle cursor at the
    head of the live trace. *)

val telemetry : t -> Acq_obs.Telemetry.t
val registry : t -> Acq_obs.Metrics.t
val spec : t -> Source.spec

val tenant : t -> string -> tenant
(** Get-or-create — the [HELLO] handler. *)

val plan : t -> tenant:string -> Protocol.opts -> string -> (string, int * string) result
(** Race the planner portfolio (or the [algo=] arm) on the history
    half under the tenant's remaining quota; payload is the arms
    table, the winner, and the rendered conditional plan. *)

val run :
  t -> tenant:string -> Protocol.opts -> string -> (string, int * string) result
(** One-shot plan + replay of the live half via {!Oneshot} — the
    payload is byte-identical to [acqp run] on the same spec, query,
    and options (that is the serving-path contract the bench pins). *)

val subscribe :
  t ->
  tenant:string ->
  owner:int ->
  Protocol.opts ->
  string ->
  (int * string, int * string) result
(** Admission-checked: drain → 503, session cap or exhausted quota →
    429. Races the portfolio to choose the serving algorithm, seeds
    the tenant cache with the winning plan, registers an
    {!Acq_adapt.Session} under the daemon supervisor, and returns the
    subscription id. *)

val unsubscribe :
  t -> tenant:string -> owner:int -> int -> (string, int * string) result
(** Only the owning connection may unsubscribe (else 404). Releases
    the supervisor registration — parked deferred replans settle per
    {!Acq_adapt.Supervisor.unregister}. *)

val has_subscription : t -> owner:int -> bool
(** Whether the connection holds at least one live subscription. *)

val drop_owner : t -> int -> int
(** Disconnect cleanup: unregister every subscription the connection
    owned; returns how many. *)

val tick : t -> (int * int * string) list
(** Serve the next live-trace tuple (cyclic) through every subscribed
    session via {!Acq_adapt.Supervisor.step}; returns
    [(owner, sub_id, payload)] for each session whose plan matched the
    tuple, in subscription order. Subscribers in one plan group share
    the physically same payload string. No subscriptions → free
    no-op. *)

val render_event : t -> int array -> Acq_plan.Executor.outcome -> string
(** The EVENT payload of a matched outcome on a live row:
    [match cost=<cost> <name>=<value> ...\n] over the acquired
    attributes in acquisition order, the cost printed as Printf's
    [%.2f]. {!tick} renders it once per plan group and hands every
    member the same string. *)

val stats : t -> string
val prometheus : t -> string

val drain : t -> unit
(** Refuse new PLAN/RUN/SUBSCRIBE with 503; existing subscriptions
    keep ticking until the server finishes flushing. *)

val draining : t -> bool
val live_subscriptions : t -> int
val requests : t -> int
val supervisor : t -> Acq_adapt.Supervisor.t

val tenant_name : tenant -> string
val tenant_sessions : tenant -> int
val tenant_quota_left : tenant -> int
