(** Sampling-based selectivity estimation with confidence intervals —
    the estimator for cold or drifting windows where nothing has been
    trained yet ("Probably Approximately Optimal Query Optimization",
    Trummer & Koch).

    A sampled state draws [n] tuples from a live window (without
    replacement, via pre-split {!Acq_util.Rng.split_n} streams fixed
    before any draw) and answers every {!Backend.S} query by counting
    over the sample. Each point estimate carries a two-sided Hoeffding
    interval at confidence [1 - delta]; {!refine} doubles the sample
    and replays the restriction trail, and is how the PAC planner
    narrows only the intervals that straddle a plan-order decision.

    This module is the implementation; {!Backend.sampled} packs it as
    a first-class backend and [Backend.spec_of_string "sampled(n,d)"]
    selects it from the [--model] surface. All draws are deterministic
    in (seed, window, n): two builds with equal inputs agree
    bit-for-bit, which is what lets the portfolio's sampled arm race
    in parallel and still match the sequential sweep. *)

type t

val default_seed : int
(** The fixed seed every surface uses unless told otherwise — the
    CLI/daemon byte-identity checks depend on it. *)

val max_rounds : int
(** Refinement rounds available (the pre-split stream count). *)

val create : ?seed:int -> n:int -> delta:float -> Acq_data.Dataset.t -> t
(** Sample [min n (nrows ds)] rows. @raise Invalid_argument unless
    [n >= 1] and [delta] is in (0, 1). *)

val of_view : ?seed:int -> n:int -> delta:float -> View.t -> t
(** Same over an existing view (e.g. a sliding window's rows). When
    [n >= size view] the sample {e is} the view — estimates are exact
    and equal to the empirical backend's. *)

(** {1 The Backend.S surface} *)

val name : string
val weight : t -> float
val range_prob : t -> int -> Acq_plan.Range.t -> float
val value_probs : t -> int -> float array
val pred_prob : t -> Acq_plan.Predicate.t -> float
val pattern_probs : t -> Acq_plan.Predicate.t array -> float array
val restrict_range : t -> int -> Acq_plan.Range.t -> t
val restrict_pred : t -> Acq_plan.Predicate.t -> bool -> t
val max_pattern_preds : t -> int option

(** {1 Intervals and refinement} *)

val pred_prob_ci : t -> Acq_plan.Predicate.t -> float * float
(** Hoeffding interval at confidence [1 - delta] around
    {!pred_prob}, computed over the restricted sample and clamped to
    [0, 1]. Degenerate (p, p) when the sample covers the whole window;
    vacuous (0, 1) on an empty restricted sample. *)

val pred_prob_wilson : t -> Acq_plan.Predicate.t -> float * float
(** Wilson score interval over the same counts — the tighter
    asymptotic view, for diagnostics. *)

val refine : t -> t option
(** Double the root sample (drawn from the next pre-split stream) and
    replay this state's restriction trail over it. [None] once the
    window is exhausted or {!max_rounds} streams are spent. *)

val exhaustive : t -> bool
(** The current sample covers the whole window (estimates exact). *)

val info : t -> int * float
(** [(root sample size, delta)] — the certificate inputs the PAC
    planner folds into its union bound. The reported delta is 0 when
    the sample is {!exhaustive}: every interval is then degenerate, so
    no probability mass is lost to coverage failures. *)
