(** Shared plan cache for the adaptive serving layer: repeated and
    concurrent continuous queries with the same (normalized) shape
    reuse one planner invocation instead of paying the search again.

    Keys are {!key}s: a {!signature} — a canonical rendering of the
    schema, the predicate {e set}, the planning algorithm, the
    relevant planner options, and the statistics the plan was built
    from — plus the WHERE clause's order when it is not canonical.
    The statistics are the history ([stats_epoch] 0), or a sliding
    window named by its rows ({!Acq_prob.Sliding.Window.key}: stream,
    generation, length). Equal window keys mean equal rows, so a
    replanning pass that hits gets exactly the plan it would have
    planned, and never one built from another window or from stale
    statistics; every push moves the generation on, and {!invalidate}
    reclaims the slots of superseded entries.

    Eviction is LRU over both lookups and insertions. The cache keeps
    hit/miss/evict/invalidate counters (mirrored to the telemetry
    registry when one is attached) so cache health is observable. *)

type t

type stats = {
  hits : int;
  misses : int;
  evictions : int;  (** entries displaced by LRU capacity pressure *)
  invalidations : int;  (** entries removed by {!invalidate} *)
  size : int;  (** live entries *)
  capacity : int;
}

val create : ?telemetry:Acq_obs.Telemetry.t -> capacity:int -> unit -> t
(** [telemetry] (default noop) receives
    [acqp_adapt_cache_{hits,misses,evictions,invalidations}_total]
    counters and the [acqp_adapt_cache_size] gauge.
    @raise Invalid_argument when [capacity < 1]. *)

val signature :
  ?options:Acq_core.Planner.options ->
  ?stats_epoch:int ->
  ?window:int * int ->
  algorithm:Acq_core.Planner.algorithm ->
  Acq_plan.Query.t ->
  string
(** Canonical rendering of a query's shape. Predicates are sorted by
    [(attr, lo, hi, polarity)] before rendering, so two queries whose
    WHERE clauses are permutations of the same predicate set map to
    the same signature (conjunction is commutative); {!key} adds the
    order back for the cache. The schema's names, domains, and costs
    are folded in so distinct schemas never collide; of [options]
    only the plan-shaping knobs (splits/points/alpha/candidates/
    threshold and the probability model's kind) are rendered —
    budgets and deadlines affect search effort, not which plan is
    correct to reuse. [stats_epoch] defaults to 0, the history. A
    plan built from a sliding window passes the window's generation
    as [stats_epoch] and [(stream, length)] as [window]. *)

val key :
  ?options:Acq_core.Planner.options ->
  ?stats_epoch:int ->
  ?window:int * int ->
  algorithm:Acq_core.Planner.algorithm ->
  Acq_plan.Query.t ->
  string
(** The cache key of a plan for [q]: its {!signature}, plus the order
    of [q]'s WHERE clause when that is not the signature's canonical
    order (then, for each predicate in canonical order, its position
    in [q]). A plan's sequential leaves index the predicates in the
    order of the query it was planned for, so a query that lists the
    same predicates in another order misses and is planned for its own
    order. A query already in canonical order is keyed by its
    signature alone. *)

val find : t -> string -> Acq_core.Planner.result option
(** Lookup; bumps recency and the hit/miss counters. *)

val add : t -> string -> Acq_core.Planner.result -> unit
(** Insert (or refresh) an entry, evicting the least recently used
    entry when at capacity. *)

val find_or_plan :
  t -> string -> (unit -> Acq_core.Planner.result) -> Acq_core.Planner.result
(** [find_or_plan t key plan] returns the cached result or runs
    [plan], stores, and returns it. When [plan] raises (e.g.
    {!Acq_core.Search.Budget_exceeded}) nothing is stored. *)

val invalidate : t -> older_than:int -> int
(** Drop every entry whose key's [stats_epoch] field is below
    [older_than]; returns how many were dropped. A session that owns
    its cache calls this after a replan with the window's generation,
    so superseded plans (and the history's) don't occupy LRU slots. *)

val stats : t -> stats
val size : t -> int
val capacity : t -> int
