(** One entry point per table/figure of the paper's evaluation
    (Section 6) plus the two motivating figures. Each function prints
    the same rows/series the paper reports; [EXPERIMENTS.md] records
    the paper-vs-measured comparison. *)

type scale = { full : bool }
(** [full = false] runs CI-sized versions (fewer queries, smaller
    traces); [full = true] approaches the paper's counts (95 lab
    queries, 90 garden queries, finer selectivity sweeps). *)

val coarse_factors : int array
(** Per-attribute merge factors used to shrink the lab dataset for
    exhaustive-planner experiments. *)

val fig1 : scale -> unit
(** Hour-of-day vs light value bands (Figure 1). *)

val fig2 : scale -> unit
(** The motivating two-predicate example with a time-of-day split
    (Figure 2): sequential vs conditional expected acquisitions. *)

val fig3 : scale -> unit
(** Exhaustive enumeration of all 12 plans for the three-binary-
    attribute example (Figure 3), with the optimum marked. *)

val fig8a : scale -> unit
(** Exhaustive vs Naive vs Heuristic-k on the (coarsened) lab data at
    a shared SPSF (Figure 8(a)). *)

val fig8b : scale -> unit
(** Exhaustive at small SPSFs vs Heuristic-5 at a large SPSF
    (Figure 8(b)). *)

val fig8c : scale -> unit
(** Cumulative frequency of performance gain over the lab dataset
    (Figure 8(c)). *)

val fig9 : scale -> unit
(** Detailed plan study: the generated conditional plan for the
    "bright, cool and dry" lab query (Figure 9). *)

val fig10 : scale -> unit
(** Garden-5: Heuristic vs Naive and vs CorrSeq over random
    10-predicate queries (Figure 10). *)

val fig11 : scale -> unit
(** Garden-11, 22-predicate queries (Figure 11). *)

val fig12 : scale -> unit
(** Synthetic data: execution cost vs selectivity for the four
    (gamma, n) settings (Figure 12). *)
