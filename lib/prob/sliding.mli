(** Sliding-window statistics for continuous streams — Section 7,
    "Queries over data streams": probabilities computed incrementally
    over the most recent tuples, plus a drift score that tells the
    query processor when the correlations have moved enough to justify
    re-running the (basestation-side) planner.

    A [t] is a ring over one stream: it keeps the last [capacity]
    tuples, per-attribute histograms of them maintained in O(n) per
    pushed tuple, and a generation counter (tuples pushed over its
    life). Queries that share a stream share one ring; each sees it
    through a {!Window}, the last min(age, capacity) rows, where age
    counts the tuples pushed since the window was created.

    Windows materialize into a dataset (and hence a probability
    {!Backend.t}) lazily, with caching, so a replanning pass costs one
    materialization rather than one per probability query, and every
    window over the same rows shares it. Materialization is
    {e zero-copy}: the ring owns two packed cell buffers (see
    {!Acq_data.Dataset.of_raw}) that alternate between
    materializations, so steady-state replanning allocates no fresh
    statistics storage at all. *)

type t

val create : Acq_data.Schema.t -> capacity:int -> t
(** @raise Invalid_argument when [capacity < 1]. *)

val schema : t -> Acq_data.Schema.t

val capacity : t -> int
(** Grows when a wider {!Window} is created over the ring. *)

val size : t -> int
(** Tuples currently in the ring ([<= capacity]). *)

val is_full : t -> bool

val push : t -> int array -> unit
(** Append a tuple, evicting the oldest when full. The ring copies
    [row] into its own flat storage (the caller may reuse the array),
    over the evicted row's cells once full, so a push allocates
    nothing. @raise Invalid_argument on arity or domain mismatch. *)

val push_dataset : t -> Acq_data.Dataset.t -> unit
(** Push every row in order. *)

val clear : t -> unit
(** Drop every tuple: [size] returns to 0 and the incremental
    histograms to all-zero, as if freshly created; every window over
    the ring empties too. The ring and the packed materialization
    buffers are kept for reuse. *)

val histogram : t -> int -> int array
(** Fresh copy of one attribute's current counts; maintained
    incrementally, O(domain) to copy. *)

val marginals : t -> int array array
(** Fresh copy of {e every} attribute's current counts — O(sum of
    domains), independent of the ring's size. The snapshot a
    drift-tracking consumer stores instead of pinning a materialized
    dataset (which would alias a reusable buffer). *)

val marginals_of : Acq_data.Dataset.t -> int array array
(** Per-attribute value counts of an arbitrary dataset, in the same
    shape {!marginals} returns — one pass over its packed cells
    ({!Acq_data.Dataset.value_counts}). *)

val to_dataset : t -> Acq_data.Dataset.t
(** Materialize the ring's rows (oldest first): {!Window.to_dataset}
    of a window that holds all of them. *)

val backend : ?spec:Backend.spec -> t -> Backend.t
(** {!Window.backend} of a window that holds all the ring's rows. *)

val drift : t -> reference:Acq_data.Dataset.t -> float
(** Mean, over attributes, of the total-variation distance between
    the ring's marginal and the reference dataset's marginal — in
    [0, 1]. A cheap indicator of distribution change; marginal drift
    is a sufficient (not necessary) replanning trigger, so pair a
    threshold on it with periodic replanning.

    An empty ring (or an empty [reference]) has no marginal to
    compare, so the score is defined as [0.0] — "no evidence of
    drift", never an exception. Of the accessors only {!to_dataset}
    (and hence {!backend}) raises on emptiness; replanning triggers
    built on [drift] therefore stay quiet until the window has data,
    which is the safe direction. *)

val drift_marginals : t -> reference:int array array -> rows:int -> float
(** Same score against a pre-computed reference marginal snapshot
    (shape of {!marginals}, counting [rows] tuples) — O(sum of
    domains) per call, no dataset scan.
    @raise Invalid_argument on an arity mismatch. *)

(** One query's view of a shared ring: the last min(age, capacity)
    rows, where age counts the tuples pushed since {!create}. *)
module Window : sig
  type ring := t
  type t

  val create : ring -> capacity:int -> t
  (** An empty window that fills from the ring's next push. Grows the
      ring to [capacity] when it is narrower.
      @raise Invalid_argument when [capacity < 1]. *)

  val ring : t -> ring
  val capacity : t -> int

  val size : t -> int
  (** Rows in the window: min(age, capacity), and none from before a
      {!clear} of the ring. *)

  val is_full : t -> bool

  val key : t -> int * int * int
  (** [(stream, generation, size)]: names the window's rows exactly.
      The stream is unique to the ring within the process, so two
      windows with equal keys hold the same rows in the same order,
      and statistics computed from one are those of the other — the
      key a plan cache may share plans under. *)

  val marginals : t -> int array array
  (** Fresh per-attribute counts of the window's rows. *)

  val drift_marginals : t -> reference:int array array -> rows:int -> float
  (** {!val:Sliding.drift_marginals} over the window's rows. A window
      that holds all the ring's rows reads the ring's incremental
      histograms; a younger or narrower one counts its suffix, once
      per (generation, size) however many windows ask. *)

  val to_dataset : t -> Acq_data.Dataset.t
  (** Materialize the window (oldest first), shared by every window
      with the same {!key}. Zero-copy: the dataset aliases one of the
      ring's two rotating cell buffers, so it stays valid through the
      {e next} materialization of the ring (by any window) but is
      overwritten by the one after that. Callers that need a
      longer-lived snapshot must copy (or snapshot {!marginals}).
      @raise Invalid_argument on an empty window. *)

  val backend : ?spec:Backend.spec -> t -> Backend.t
  (** Probability backend over the window, built per [spec] (default
      {!Backend.default_spec}: empirical). The empirical and
      sampled backends are zero-copy — they view the ring's packed
      cell buffer through a cached identity id array — so a
      steady-state replan builds its statistics without allocating
      proportionally to the window. The backend shares the buffer
      lifetime of {!to_dataset}. *)
end
