(** Explicit per-call search context — the state every planner used to
    keep in globals or ad-hoc locals, made first class.

    A ['memo t] is created once per [Planner.plan] call and threaded
    through the whole planner stack ({!Exhaustive}, {!Greedy_plan},
    {!Greedy_split}, {!Optseq}, {!Greedyseq}, {!Seq_planner},
    {!Naive}): it owns the memo table, enforces the node budget and
    optional wall-clock deadline, and accumulates the monotonic effort
    counters that {!stats} snapshots. Because no planner touches
    shared mutable state anymore, interleaved and repeated [plan]
    calls are deterministic and independent — the prerequisite for
    racing planners on several domains ([Acq_par.Portfolio]).

    The type parameter is the memo-entry payload; planners that keep
    no memo (everything except {!Exhaustive}) are polymorphic in it. *)

exception Budget_exceeded
(** The context's node budget was exhausted. *)

exception Deadline_exceeded
(** The context's wall-clock deadline passed. *)

type 'memo t

type certificate = {
  epsilon : float;
      (** relative optimality gap: the emitted plan's upper-confidence
          cost is within [(1 + epsilon)] of the best candidate's
          lower-confidence cost *)
  delta : float;
      (** probability the certificate's claims fail (union bound over
          every interval consulted) *)
  samples : int;  (** root sample size behind the final estimates *)
  refinements : int;  (** sample-doubling rounds the planner spent *)
  cost_bound : float;
      (** upper-confidence expected cost of the emitted plan; with
          probability at least [1 - delta] the plan's true expected
          cost (and a fortiori the optimal plan's) lies at or below
          it *)
}
(** The PAC planner's (epsilon, delta) optimality certificate —
    attached to {!stats} when the plan was built from sampled
    estimates ("Probably Approximately Optimal Query Optimization",
    Trummer & Koch). Deterministic planners leave it [None]. *)

type stats = {
  nodes_solved : int;
      (** search nodes expanded: Exhaustive subproblems, sequential-DP
          states, greedy selection steps, split candidates *)
  memo_hits : int;  (** memo-table lookups answered from cache *)
  estimator_calls : int;
      (** probability-oracle invocations, counted by
          {!wrap_backend} *)
  plan_size : int;  (** encoded plan bytes, ζ(P); 0 until known *)
  wall_ms : float;  (** wall-clock time since {!create} *)
  certificate : certificate option;
      (** the PAC certificate, when the planner produced one *)
}

val create :
  ?budget:int ->
  ?deadline_ms:float ->
  ?telemetry:Acq_obs.Telemetry.t ->
  unit ->
  'memo t
(** Fresh context. [budget] (default unlimited) bounds the total
    {!solved} ticks across every planner sharing the context —
    including nested sequential planning — after which {!solved}
    raises {!Budget_exceeded}. [deadline_ms] bounds wall-clock time
    the same way via {!Deadline_exceeded}. [telemetry] (default
    {!Acq_obs.Telemetry.noop}) receives the spans, events, and metric
    updates the planners emit through this context. *)

val solved : _ t -> unit
(** Record one expanded search node; raises {!Budget_exceeded} or
    {!Deadline_exceeded} when a limit is hit. *)

val hit : _ t -> unit
(** Record one memo-table hit. *)

val pruned : _ t -> unit
(** Record one search branch cut by a bound (Exhaustive's pruning
    guard, GreedyPlan's queue rejections). *)

val memo : 'memo t -> (string, 'memo) Hashtbl.t
(** The context-owned memo table (keys are {!Subproblem.key}s). *)

val nodes_solved : _ t -> int
val memo_hits : _ t -> int
val estimator_calls : _ t -> int
val pruned_branches : _ t -> int

val telemetry : _ t -> Acq_obs.Telemetry.t
(** The handle passed to {!create} — planners use it for spans and
    fine-grained histograms. *)

val elapsed_ms : _ t -> float
(** Wall-clock milliseconds since {!create}. *)

val trace : _ t -> (unit -> string) -> unit
(** Emit a progress line as a span event. The thunk is only forced
    when the context's telemetry is live. *)

val wrap_backend : _ t -> Acq_prob.Backend.t -> Acq_prob.Backend.t
(** Counting decorator: every probability query against the returned
    backend (and against any backend derived from it by restriction)
    bumps the context's [estimator_calls] counter — one tick per query
    and per restriction ({!Acq_prob.Backend.counting}). The underlying
    backend is not mutated and stays reusable across contexts. *)

val stats : ?plan_size:int -> ?certificate:certificate -> _ t -> stats
(** Snapshot the counters; [plan_size] defaults to 0 when the caller
    has no plan yet, [certificate] to [None] for deterministic
    planners. *)

val zero_stats : stats

val add_stats : stats -> stats -> stats
(** Field-wise sum — for aggregating search effort over a workload.
    Certificates combine by keeping the weakest guarantee on each
    axis (max epsilon/delta/cost bound) and summing the effort
    fields. *)

val certificate_to_string : certificate -> string

val pp_stats : Format.formatter -> stats -> unit

val stats_to_string : stats -> string
(** One-line [key=value] rendering, e.g.
    ["nodes_solved=412 memo_hits=37 estimator_calls=1024 plan_size=58 wall_ms=1.42"]. *)
