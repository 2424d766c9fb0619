(** A view is the subset of training tuples consistent with a
    subproblem's ranges — the paper's [D(R_1, ..., R_n)] (Section 5).
    Conditional probabilities for planning are ratios of view sizes.

    Every function here that visits the view's rows is a counting
    kernel: one loop over the row ids reading the dataset's row-major
    cell buffer ({!Acq_data.Dataset.cells}) directly. *)

type t

val of_dataset : Acq_data.Dataset.t -> t
(** All rows. *)

val of_rows : Acq_data.Dataset.t -> int array -> t
(** Explicit row-id set (ascending ids expected). *)

val dataset : t -> Acq_data.Dataset.t

val row_id : t -> int -> int
(** [row_id v i] is the dataset row id at position [i] of the view
    (positions run [0 .. size v - 1] in view order). The sampled
    backend uses it to map sampled view positions back to row ids. *)

val size : t -> int
val is_empty : t -> bool

val restrict_range : t -> attr:int -> Acq_plan.Range.t -> t
(** Rows whose [attr] lies in the range; O(size). *)

val restrict_pred : t -> Acq_plan.Predicate.t -> bool -> t
(** Rows on which the predicate evaluates to the given truth value. *)

val histogram : t -> attr:int -> int array
(** Per-value counts of [attr] within the view — the paper's
    "independent normalized histogram of X_i for the data in D(...)"
    (before normalization). *)

val range_count : t -> attr:int -> Acq_plan.Range.t -> int

val range_prob : t -> attr:int -> Acq_plan.Range.t -> float
(** [P(X_attr in range | view)]. 0 on an empty view. *)

val pred_prob : t -> Acq_plan.Predicate.t -> float

val pattern_counts : t -> Acq_plan.Predicate.t array -> int array
(** [pattern_counts v preds] for [m = length preds <= 20]: counts of
    each of the [2^m] truth patterns, bit [j] set when predicate [j]
    is satisfied. This is the rediscretized joint distribution of
    Section 4.1.2 / 5.2. *)

type patterns
(** The truth pattern of every row of one view under one predicate
    array (bit [j] set when predicate [j] holds, as in
    {!pattern_counts}), in view order: one byte per row while the
    patterns fit in 8 bits, one int per row beyond. Immutable once
    built. *)

val patterns : t -> Acq_plan.Predicate.t array -> patterns
(** [patterns v preds] for [m = length preds <= 20], in one pass per
    predicate over the view. *)

val pattern_histograms : t -> attr:int -> patterns -> int array array
(** [pattern_histograms v ~attr codes]: one {!histogram} of [attr] per
    truth pattern of the predicates [codes] was built for (indexed as
    in {!pattern_counts}), in one pass over the view, which must be
    the view [codes] was built on ([Invalid_argument] when their
    lengths differ). The empirical backend builds every
    attribute's count table of a state from that state's one
    [patterns]. *)

val iter : t -> (int -> unit) -> unit
(** Iterate row ids in view order. *)
