(** The optimal conditional planner — the depth-first dynamic program
    of Figure 5, with subproblem memoization and bound pruning.

    Subproblems are range vectors; splitting attribute [i] at
    threshold [x] divides [R_i] into [[a, x-1]] and [[x, b]] and
    recurses with the estimator conditioned on each side, exactly
    Equation (5). Results are cached only when the search completed
    below its pruning bound, as in the figure's final guard, so every
    cache entry is a true optimum.

    Three leaf cases close the recursion: ranges decide the clause
    (constant leaf); every query attribute is acquired (free residual
    [Seq] leaf); or the subproblem has no training support, in which
    case a sequential fallback leaf keeps the plan correct for test
    tuples that do reach it (expected training cost 0).

    Worst-case complexity is exponential in the number of attributes
    (Theorem 3.1 makes that unavoidable), so every call runs inside a
    budgeted {!Search.t} context. *)

exception Budget_exceeded
(** Alias for {!Search.Budget_exceeded}, kept for callers that predate
    the explicit search context. *)

type memo
(** Memo-table payload: an exact optimum or a proven lower bound per
    subproblem key. Abstract — callers only need it to name the
    context type [memo Search.t]. *)

val default_budget : int
(** 2,000,000 — the node budget used when no context is supplied. *)

val plan :
  ?search:memo Search.t ->
  ?model:Acq_plan.Cost_model.t ->
  Acq_plan.Query.t ->
  costs:float array ->
  grid:Spsf.t ->
  Acq_prob.Backend.t ->
  Acq_plan.Plan.t * float
(** Optimal plan over the grid's split space and its expected cost
    under the estimator. The search is seeded with the optimal
    sequential plan as an upper bound, so the result never costs more
    than CorrSeq.

    [search] carries the memo table, effort counters, and the node
    budget shared with the nested sequential seeding; omitting it
    creates a fresh context with {!default_budget}. The memo table is
    private to the context, so back-to-back calls with fresh contexts
    are fully independent. The backend is wrapped with the context's
    estimator-call accounting internally — pass it {e unwrapped}.
    @raise Budget_exceeded when the context's budget is exhausted. *)
