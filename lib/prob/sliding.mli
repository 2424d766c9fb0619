(** Sliding-window statistics for continuous streams — Section 7,
    "Queries over data streams": probabilities computed incrementally
    over the most recent [capacity] tuples, plus a drift score that
    tells the query processor when the correlations have moved enough
    to justify re-running the (basestation-side) planner.

    Per-attribute histograms are maintained incrementally in O(n) per
    pushed tuple; the window materializes into a dataset (and hence a
    probability {!Backend.t}) lazily, with caching, so a replanning
    pass costs one materialization rather than one per probability
    query. Materialization is {e zero-copy}: the window owns two
    packed cell buffers (see {!Acq_data.Dataset.of_raw}) that
    alternate between materializations, so steady-state replanning
    allocates no fresh statistics storage at all. *)

type t

val create : Acq_data.Schema.t -> capacity:int -> t
(** @raise Invalid_argument when [capacity < 1]. *)

val capacity : t -> int

val size : t -> int
(** Tuples currently in the window ([<= capacity]). *)

val is_full : t -> bool

val push : t -> int array -> unit
(** Append a tuple, evicting the oldest when full. The window copies
    [row] into its own flat ring (the caller may reuse the array),
    over the evicted row's cells once full, so a push allocates
    nothing. @raise Invalid_argument on arity or domain mismatch. *)

val push_dataset : t -> Acq_data.Dataset.t -> unit
(** Push every row in order. *)

val clear : t -> unit
(** Drop every tuple: [size] returns to 0 and the incremental
    histograms to all-zero, as if freshly created. Used when a
    replanning pass wants statistics untainted by the pre-switch
    distribution. The ring and the packed materialization buffers are
    kept for reuse. *)

val histogram : t -> int -> int array
(** Fresh copy of one attribute's current window counts; maintained
    incrementally, O(domain) to copy. *)

val marginals : t -> int array array
(** Fresh copy of {e every} attribute's current window counts —
    O(sum of domains), independent of window size. The snapshot a
    drift-tracking consumer ({!Acq_adapt.Session}) stores instead of
    pinning a materialized dataset (which would alias a reusable
    buffer). *)

val marginals_of : Acq_data.Dataset.t -> int array array
(** Per-attribute value counts of an arbitrary dataset, in the same
    shape {!marginals} returns — one O(rows) pass. *)

val to_dataset : t -> Acq_data.Dataset.t
(** Materialize the window (oldest first). Cached until the next
    {!push}. Zero-copy: the dataset aliases one of the window's two
    rotating cell buffers, so it stays valid through the {e next}
    materialization but is overwritten by the one after that. Callers
    that need a longer-lived snapshot must copy (or snapshot
    {!marginals}). @raise Invalid_argument on an empty window. *)

val backend :
  ?telemetry:Acq_obs.Telemetry.t -> ?spec:Backend.spec -> t -> Backend.t
(** Probability backend over the current window, built per [spec]
    (default {!Backend.default_spec}: empirical, no memo). The
    empirical backend is fully zero-copy — it views the window's
    packed cell buffer through a cached identity id array — so a
    steady-state replan builds its statistics without allocating
    proportionally to the window. The backend shares the buffer
    lifetime of {!to_dataset}: valid through the next materialization,
    stale after the one following it. *)

val drift : t -> reference:Acq_data.Dataset.t -> float
(** Mean, over attributes, of the total-variation distance between
    the window's marginal and the reference dataset's marginal — in
    [0, 1]. A cheap indicator of distribution change; marginal drift
    is a sufficient (not necessary) replanning trigger, so pair a
    threshold on it with periodic replanning.

    An empty window (or an empty [reference]) has no marginal to
    compare, so the score is defined as [0.0] — "no evidence of
    drift", never an exception. Of the window accessors only
    {!to_dataset} (and hence {!backend}) raises on
    emptiness; replanning triggers built on [drift] therefore stay
    quiet until the window has data, which is the safe direction. *)

val drift_marginals : t -> reference:int array array -> rows:int -> float
(** Same score against a pre-computed reference marginal snapshot
    (shape of {!marginals}, counting [rows] tuples) — O(sum of
    domains) per call, no dataset scan. This is the form
    {!Acq_adapt.Session} checks on every observation.
    @raise Invalid_argument on an arity mismatch. *)
