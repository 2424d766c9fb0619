(** Normalized single-attribute histograms with O(1) range
    probabilities via prefix sums — Equation (7)'s incremental rule
    [P_{<x+1} = P_{<x} + P(x | R_1..R_n)] in closed form.

    The empirical backend ({!Backend.empirical}) builds, per attribute
    per subproblem, one histogram for every truth pattern of the
    predicates it has been asked about (one pass over the view), and
    then answers the split probability and the pattern counts of every
    candidate split point in constant time per pattern. *)

type t

val of_counts : int array -> t

val of_view : View.t -> attr:int -> t

val total : t -> int
(** Number of samples behind the histogram. *)

val count : t -> int -> int
(** Samples with value [v]. *)

val prob : t -> int -> float
(** [prob h v] is [P(X = v)]. *)

val prob_below : t -> int -> float
(** [prob_below h x] is [P(X < x)] — the paper's [P_{<x}]. *)

val prob_range : t -> Acq_plan.Range.t -> float
(** [P(lo <= X <= hi)]. *)

val count_range : t -> Acq_plan.Range.t -> int
(** Samples in the range. Only the part of the range inside the domain
    counts: a range past either end is clamped, one wholly outside
    counts 0. *)
