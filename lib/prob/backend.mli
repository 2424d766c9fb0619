(** First-class probability backends — the selectivity oracle as a
    packed, swappable component.

    Every planner consumes a packed backend {!t}: a module conforming
    to {!S} paired with its state. Four implementations are provided —
    {!empirical} (view counting over the training data from per-node
    count tables; the paper's primary method), {!chow_liu} (the
    Section 7 tree graphical model, with incremental pattern
    inference), {!independence} (product of per-attribute histograms —
    the correlation-blind baseline), and {!sampled} (counting over a
    tuple sample, with confidence intervals) — plus the {!counting}
    combinator (effort accounting). *)

type sampling = { samples : int; delta : float }
(** Sampling parameters a statistical backend reports: [samples] rows
    drawn from the window, each interval individually valid at
    confidence [1 - delta]. Deterministic backends report [None]. *)

module type S = sig
  type state

  val name : string

  val weight : state -> float
  (** Effective number of training tuples consistent with the
      conditioning; drives the empty-subproblem fallback. *)

  val range_prob : state -> int -> Acq_plan.Range.t -> float
  (** [range_prob st attr r] = P(X_attr in r | conditioning). *)

  val value_probs : state -> int -> float array
  (** Full conditional marginal of one attribute (Equation (7)'s
      histogram). *)

  val pred_prob : state -> Acq_plan.Predicate.t -> float

  val pattern_probs : state -> Acq_plan.Predicate.t array -> float array
  (** Joint over predicate truth bits; length [2^m], bit [j] set when
      predicate [j] holds. *)

  val pred_prob_ci : state -> Acq_plan.Predicate.t -> float * float
  (** Two-sided confidence interval around {!pred_prob}, clamped to
      [0, 1]. Deterministic backends collapse it onto the point
      estimate; the sampled backend reports a Hoeffding interval at
      confidence [1 - delta] over its restricted sample. *)

  val restrict_range : state -> int -> Acq_plan.Range.t -> state
  val restrict_pred : state -> Acq_plan.Predicate.t -> bool -> state

  val refine : state -> state option
  (** Tighten the estimates by spending more effort — for the sampled
      backend, double the sample and replay this state's restriction
      trail. [None] when the estimates cannot improve (deterministic
      backends always; sampled ones once the window is exhausted).
      The PAC planner calls it only where an interval straddles a
      plan-order decision. *)

  val sampling : state -> sampling option
  (** The statistical parameters behind the intervals ([None] for
      exact backends) — inputs to the planner's union bound. *)

  val max_pattern_preds : state -> int option
  (** Capability: the widest [pattern_probs] this backend answers in
      reasonable time ([None] = no inherent limit). The sequential
      planner's OptSeq/GreedySeq router consults it, so a model with a
      bounded pattern width degrades to GreedySeq instead of raising
      mid-plan. *)
end

type t = B : (module S with type state = 's) * 's -> t

(** {1 Dispatch} *)

val name : t -> string
val weight : t -> float

val is_empty : t -> bool
(** No training support under the current conditioning. *)

val range_prob : t -> int -> Acq_plan.Range.t -> float
val value_probs : t -> int -> float array
val pred_prob : t -> Acq_plan.Predicate.t -> float
val pattern_probs : t -> Acq_plan.Predicate.t array -> float array
val pred_prob_ci : t -> Acq_plan.Predicate.t -> float * float
val restrict_range : t -> int -> Acq_plan.Range.t -> t
val restrict_pred : t -> Acq_plan.Predicate.t -> bool -> t

val refine : t -> t option
(** Packed {!S.refine}: a refined copy of the whole backend, or [None]
    when estimates are already as tight as they get. *)

val sampling : t -> sampling option
val max_pattern_preds : t -> int option

(** {1 Implementations} *)

val empirical : Acq_data.Dataset.t -> t
(** View counting: every probability is a count ratio over the
    training rows consistent with the conditioning, bit-identical to
    {!View}'s scans. Counts come from per-state count tables — per
    attribute, a prefix-summed histogram for each truth pattern of the
    predicates the state's deferred children have been asked about,
    built in one pass. [restrict_range]
    returns a deferred child answered from its parent's table (weight,
    the restricted attribute, [pattern_probs]); it filters the
    parent's row ids, never copying tuple data, only when asked
    anything else. Safe to read from several domains at once. *)

val of_view : View.t -> t
(** Same, over an existing view (e.g. a sliding window's rows). *)

val independence : Acq_data.Dataset.t -> t
(** Product of per-attribute histograms; [pattern_probs] factorizes
    across attributes (predicates on the same attribute stay jointly
    exact). Restriction narrows one attribute's mask only. *)

val chow_liu : Chow_liu.t -> weight:float -> t
(** Tree Bayesian network; [weight] should be the training-set size
    (conditioning scales it by the evidence probability).
    [max_pattern_preds] is [Some 12]; [pattern_probs] beyond that
    raises [Invalid_argument], but the sequential-planner router
    checks the capability first and falls back to GreedySeq. *)

val sampled :
  ?seed:int -> n:int -> delta:float -> Acq_data.Dataset.t -> t
(** Tuple-sample counting with live confidence intervals
    ({!Sampled}): draw [min n rows] tuples via pre-split
    deterministic streams (default seed {!Sampled.default_seed}),
    answer queries by counting over the sample, attach Hoeffding
    intervals at confidence [1 - delta], and support {!refine}
    (sample doubling with restriction replay). With [n >= nrows] the
    estimates equal {!empirical}'s exactly.
    @raise Invalid_argument unless [n >= 1] and [delta] in (0,1). *)

val sampled_of_view :
  ?seed:int -> n:int -> delta:float -> View.t -> t
(** Same over an existing view (e.g. a sliding window's rows). *)

(** {1 Combinators} *)

val counting : tick:(unit -> unit) -> t -> t
(** Invoke [tick] on every query and every restriction, recursively —
    the hook {!Acq_core.Search}'s estimator-call accounting uses. *)

(** {1 Selection} *)

type kind =
  | Empirical
  | Chow_liu
  | Independence
  | Sampled of { n : int; delta : float }

type spec = { kind : kind; memoize : bool }
(** [memoize] is read by nothing and the parser always sets it to
    [false]. It stays only because a record with [kind] alone would
    make [{ default_spec with kind = ... }], as the end-to-end
    benchmark writes it, a useless [with] clause (warning 23). *)

val default_spec : spec
(** Empirical — the seed behavior. *)

val default_sample_size : int
(** 256 — the [n] a bare ["sampled"] spec gets. *)

val default_sample_delta : float
(** 0.05 — the [delta] a bare ["sampled"] spec gets. *)

val default_sampled_kind : kind
(** [Sampled] with the two defaults above — what the PAC planner
    substitutes when asked to plan with a deterministic model. *)

val kind_to_string : kind -> string

val spec_to_string : spec -> string
(** Renders [sampled] parameters as [sampled(n,delta)] with the
    shortest decimal [delta] that parses back to the same float, so
    [spec_of_string (spec_to_string s) = Ok s] for every spec the
    parser can return. *)

type spec_error = { input : string; reason : string }
(** Structured parse failure: the offending input plus what the
    grammar wanted. *)

val spec_error_to_string : spec_error -> string

val spec_of_string : string -> (spec, spec_error) result
(** Parse [empirical|chow-liu|independence|sampled], optionally
    parameterized as [sampled(n,delta)] (a bare [sampled] gets the
    defaults above; [n >= 1], [delta] in (0,1)) — the [acqp --model]
    syntax. *)

val of_dataset : ?spec:spec -> Acq_data.Dataset.t -> t
(** Build the backend [spec.kind] asks for from training data
    (learning the Chow-Liu model when it is [Chow_liu]). *)
