(** Allocation-free audit counters shared by both execution paths.

    A probe is the raw-observation half of the calibration plane
    ({!Acq_audit} builds scores on top): per automaton node it counts
    band-test successes ([hits]) and failures ([misses]) as plain int
    array increments — one per node visit — and per tuple it folds the realized
    acquisition cost against the plan's predicted Eq.-4 cost into a
    six-cell unboxed float accumulator. Nothing here allocates on the
    hot path, so probing a compiled sweep preserves the
    <8 KiB/sweep allocation bound.

    Node indexing is the {!Compile} preorder. The compiled executor
    ({!Batch}) indexes nodes directly; the tree interpreter is mirrored
    by a cursor ({!hook}) that starts at the automaton entry and
    advances through [on_hit]/[on_miss] on each reported band outcome —
    the lowering is the traversal order, so both paths increment the
    same cells for the same tuple stream. *)

type t

val create : Compile.t -> t
(** Fresh probe for one lowered plan, counters zeroed. The automaton
    fixes node identity: use the probe only with executors lowered
    from the same query and plan. *)

val automaton : t -> Compile.t
val n_nodes : t -> int

val visits : t -> int array
(** Per-node execution counts, [hits + misses] — a fresh array. *)

val hits : t -> int array
(** Live per-node band-success counts — the executor's own
    accumulator, not a copy. Callers must treat it as read-only. *)

val misses : t -> int array
(** Live per-node band-failure counts; same aliasing caveat. *)

val predicted_cost : t -> float

val set_predicted_cost : t -> float -> unit
(** Install the plan's predicted per-tuple Eq.-4 cost; subsequent
    tuples fold [observed - predicted] into the cost cell. *)

val observe_cost : t -> float -> unit
(** Fold one tuple's realized acquisition cost. The per-tuple
    executors call this; it is exposed so post-mortem replays can,
    too. *)

val cost_cells : t -> float array
(** The live six-cell cost accumulator {!observe_cost} updates
    (signed error sum, squared error sum, max absolute error, count,
    absolute error sum, observed sum). {!Batch.sweep_columns} folds a
    whole sweep in registers with the same operations and writes the
    cells back once. *)

type cost_stats = {
  count : int;
  sum_err : float;  (** sum (observed - predicted); > 0 = underestimate *)
  sum_sq_err : float;
  max_abs_err : float;
  sum_abs_err : float;
  sum_observed : float;
  predicted : float;
}

val cost_stats : t -> cost_stats

val observed_mean_cost : t -> (float * int) option
(** Mean realized cost and tuple count since the last {!reset} —
    [None] before any tuple. This is the audit-fed observed-cost
    source the adaptive cost-regret trigger consumes. *)

val reset : t -> unit
(** Zero all counters and rewind the tree cursor. *)

val hook : t -> Acq_plan.Executor.Audit_hook.t
(** The tree-path adapter (built once, cached): feed it to
    {!Acq_plan.Executor.run}[ ~audit] and the interpreter's traversal
    increments the same per-node cells the compiled path does. *)

val check : t -> Compile.t -> unit
(** @raise Invalid_argument when the executor's automaton shape does
    not match the probe's. *)
