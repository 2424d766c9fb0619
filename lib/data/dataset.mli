(** Discretized historical data: the [D] of Section 5.

    Storage is a single row-major int array, so a 400k x 6 lab trace is
    one 2.4M-cell array — scanning it (the paper's "one pass over the
    dataset") is cache friendly. Every cell of column [i] lies in
    [0 .. K_i - 1]. *)

type t

val create : Schema.t -> int array array -> t
(** [create schema rows] copies [rows] (each of length [arity schema])
    into a dataset. @raise Invalid_argument on ragged rows or
    out-of-domain cells. *)

val of_raw : Schema.t -> int -> int array -> t
(** [of_raw schema nrows cells] wraps a pre-packed row-major cell
    buffer of exactly [nrows * arity schema] cells {e without copying
    or validating}: the dataset aliases [cells], so a caller that
    later overwrites the buffer changes the dataset. This is the
    zero-copy constructor buffer-reusing producers
    ({!Acq_prob.Sliding}) build on; everyone else should use
    {!create}. *)

val schema : t -> Schema.t
val nrows : t -> int
val ncols : t -> int

val get : t -> int -> int -> int
(** [get d row col]. Bounds are the caller's responsibility. Loops
    over many rows read {!cells} instead. *)

val cells : t -> int array
(** The row-major cell buffer itself, {e not} a copy: cell [(r, c)]
    is [(cells d).((r * ncols d) + c)]. Read-only by contract --
    writing to it changes the dataset (and, for {!of_raw} datasets,
    the producer's buffer). The counting kernels
    ({!Acq_prob.View}) loop over it directly instead of calling
    {!get} per cell. *)

val row : t -> int -> int array
(** Fresh copy of one tuple. *)

val column : t -> int -> int array
(** Fresh copy of one attribute's column. *)

val columns : t -> int array array
(** Structure-of-arrays view: [columns d] is one fresh [int array] per
    attribute, so a batched executor reads column [a] with
    [(columns d).(a).(r)] instead of striding the row-major buffer.
    The transpose is a {e snapshot}, recomputed on every call and
    never cached: {!of_raw} datasets alias their producer's cell
    buffer (e.g. {!Acq_prob.Sliding}'s rotating materialization
    buffers), so a cached transpose could go stale without the dataset
    changing identity. Callers that sweep the same dataset repeatedly
    should hoist the call themselves. *)

val value_counts : t -> int array array
(** Per-attribute value counts: [(value_counts d).(a).(v)] is the
    number of rows whose attribute [a] equals [v]. One pass over the
    packed cells. *)

val split_by_time : t -> train_fraction:float -> t * t
(** Leading fraction as training data, the rest as test data. The
    paper evaluates on non-overlapping time windows (Section 6, "Test
    v. Training"), so the split is positional, not random. *)

val subsample : t -> Acq_util.Rng.t -> int -> t
(** [subsample d rng k] draws [k] rows without replacement (all rows,
    in order, if [k >= nrows]). *)

val append : t -> t -> t
(** Concatenate two datasets over the same schema. *)

val coarsen : t -> factors:int array -> t
(** Re-bin each attribute [i] by merging [factors.(i)] adjacent
    values (see {!Attribute.coarsen}); cell values become
    [v / factors.(i)]. Shrinks attribute domains so the exhaustive
    planner's subproblem space stays tractable. *)

val iter_rows : t -> (int -> unit) -> unit
(** Apply a function to each row index in order. *)
