(** Design-choice ablations beyond the paper's figures, called out in
    DESIGN.md: plan-size / dissemination-energy trade-off
    (Section 2.4), graphical-model vs count-based probability
    estimation (Section 7), split-point-restriction sensitivity
    (Section 4.3), and the Section 6.4 scalability claims. *)

val scale_exp : Figures.scale -> unit
(** Planner runtime vs number of predicates, domain size, and
    training-set size (Section 6.4's omitted scalability study). *)

val ablate_size : Figures.scale -> unit
(** Total network energy (dissemination + acquisition) as MAXSIZE
    grows, with the break-even query lifetime per plan size. *)

val ablate_model : Figures.scale -> unit
(** Heuristic plans driven by the empirical estimator vs a Chow-Liu
    tree model as the training window shrinks. *)

val ablate_prob : Figures.scale -> unit
(** Probability-backend ablation: the empirical, Chow-Liu, and
    independence kernels planning the same coarsened-lab workload —
    planning time, held-out plan cost, and estimator calls per
    model. *)

val ablate_spsf : Figures.scale -> unit
(** Heuristic plan quality vs split-point budget. *)

val ablate_sample : Figures.scale -> unit
(** Sampling ablation on the expensive-predicate (UDF) workload:
    exact CorrSeq planning vs the PAC arm over sampled backends of
    increasing budget — planning time, live (drifted) cost under the
    UDF pricing, and each PAC run's (epsilon, delta) certificate. *)

val ext_exists : Figures.scale -> unit
(** Section 7's existential-query generalization: naive vs correlated
    vs conditional group orderings on a network-wide exists query. *)

val ext_boards : Figures.scale -> unit
(** Section 7's complex acquisition costs: a weather board whose
    power-up dominates per-sensor reads; board-aware vs board-blind
    planning measured under the true board pricing. *)

val ext_approx : Figures.scale -> unit
(** Section 7's approximate answers: epsilon-confidence model-driven
    acquisition over a conditional plan; cost vs accuracy sweep. *)

val ablate_adapt : Figures.scale -> unit
(** Section 7's continuous-query extension: static vs periodic vs
    drift-triggered vs drift+regret replanning policies on a
    piecewise-stationary synthetic trace (correlations flip at each
    change point), with total energy including every switch's
    dissemination cost. *)
