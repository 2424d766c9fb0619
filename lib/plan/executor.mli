(** Plan execution with acquisition accounting — the per-tuple
    traversal of Section 2.2 and Equation (1).

    The executor tracks which attributes have been acquired on the
    current path: the first test or sequential step touching an
    attribute pays its acquisition cost [C_i]; every later touch is
    free. This is exactly the atomic-cost rule of the paper.

    All entry points are wrappers over one traversal core
    ({!run_instr}): the closure-lookup path, the array-tuple path, and
    the dataset sweeps share the same acquisition accounting, so the
    atomic-cost rule cannot drift between them. Production execution
    runs on the compiled executor ({!Acq_exec}), an independent
    implementation of the same contract; this tree interpreter is the
    reference oracle the differential tests hold it byte-identical
    to. *)

type outcome = {
  verdict : bool;  (** does the tuple satisfy the WHERE clause? *)
  cost : float;  (** total acquisition cost on this traversal *)
  acquired : int list;  (** attributes acquired, in acquisition order *)
}

(** Pre-resolved executor instruments. Resolving them is n_attrs + 3
    name-keyed registry lookups, so no per-tuple path resolves per
    tuple: this tree executor resolves once per call (single tuples)
    or per sweep (datasets), and a compiled
    {!Acq_exec.Runner.prepared} plan once per registry it runs under,
    keeping the handle across tuples. Updates through the handles are
    allocation-free. Exposed so the compiled executor records the very
    same series. *)
module Instr : sig
  type t

  val of_obs : Acq_obs.Telemetry.t -> Query.t -> t option
  (** [None] when [obs] carries no metrics registry — the noop path
      costs one branch per acquisition. *)

  val acquisition : t -> int -> unit
  (** Count one paid acquisition of an attribute. *)

  val acquisitions : t -> int -> int -> unit
  (** [acquisitions i attr n]: batched form — add [n] paid
      acquisitions of [attr] at once (no-op for [n <= 0]). The
      compiled batch executor accumulates plain int counts in its
      sweep loop and flushes them through this once per sweep. *)

  val acquired : t -> times:int -> int array -> int -> unit
  (** [acquired i ~times order n]: count [times] paid acquisitions of
      each of [order.(0)] .. [order.(n-1)] — a compiled tuple's
      acquisitions in one call rather than one per attribute, credited
      once per query that shares the execution. *)

  val tuple : t -> times:int -> verdict:bool -> tests:int -> unit
  (** Record [times] executions of one tuple (one per query sharing
      it): tuple/match counters and the traversal-depth histogram. *)

  val tuples : t -> n:int -> matches:int -> unit
  (** Batched tuple/match counters for a whole sweep. *)

  val depth : t -> int -> unit
  (** Observe one tuple's plan-tests-traversed depth. *)
end

(** Neutral audit tap for the calibration layer ({!Acq_audit}, which
    lives above this library). The executor reports raw observations
    only: band membership per test/step in traversal order, and the
    realized acquisition cost per tuple. [hit] is band membership —
    [v >= threshold] for a {!Plan.Test} node, [lo <= v <= hi] for a
    sequential predicate step — {e not} the polarity-adjusted
    predicate verdict, because band membership is the event whose
    probability the estimator predicted and the event the compiled
    automaton branches on. Both execution paths therefore feed
    identical observations. Hooks must not mutate execution state;
    audited and unaudited runs are byte-identical in
    verdict/cost/acquisition order (checked by the differential
    tests). *)
module Audit_hook : sig
  type t = {
    on_step : attr:int -> hit:bool -> unit;
    on_tuple : verdict:bool -> cost:float -> unit;
  }
end

val run_instr :
  ?model:Cost_model.t ->
  ?audit:Audit_hook.t ->
  instr:Instr.t option ->
  Query.t ->
  costs:float array ->
  Plan.t ->
  lookup:(int -> int) ->
  outcome
(** The traversal core with pre-resolved instruments — what sweeps
    (and the compiled runner's tree fallback) call per tuple so
    instruments are looked up once, not per tuple. *)

val run :
  ?model:Cost_model.t ->
  ?obs:Acq_obs.Telemetry.t ->
  ?audit:Audit_hook.t ->
  Query.t ->
  costs:float array ->
  Plan.t ->
  lookup:(int -> int) ->
  outcome
(** [run q ~costs plan ~lookup] executes [plan] against a tuple
    exposed as [lookup attr -> value]. In the sensor simulator the
    lookup closure is what actually powers up a sensor. [model]
    overrides the per-attribute [costs] with a history-dependent cost
    model (Section 7's sensor boards); when present, [costs] is
    ignored for pricing.

    [obs] (default noop — one branch per acquisition) records
    per-attribute [acqp_executor_acquisitions_total{attr=...}]
    counters, tuple/match counters, and the
    [acqp_executor_traversal_depth] histogram of plan tests visited —
    the data that shows *which* expensive attribute a conditional
    plan actually skips. *)

val run_tuple :
  ?model:Cost_model.t ->
  ?obs:Acq_obs.Telemetry.t ->
  ?audit:Audit_hook.t ->
  Query.t ->
  costs:float array ->
  Plan.t ->
  int array ->
  outcome

val average_cost :
  ?model:Cost_model.t ->
  ?obs:Acq_obs.Telemetry.t ->
  ?audit:Audit_hook.t ->
  Query.t ->
  costs:float array ->
  Plan.t ->
  Acq_data.Dataset.t ->
  float
(** Empirical expected cost, Equation (4): mean traversal cost over
    the dataset. With live [obs], the whole sweep runs inside an
    ["executor.average_cost"] span and instruments are resolved once
    per sweep (the compiled path, {!Acq_exec.Batch}, keeps that
    discipline and additionally batches the counter updates). The
    result is execution-mode invariant: the compiled executor
    accumulates the identical float sequence. *)

val consistent :
  Query.t -> costs:float array -> Plan.t -> Acq_data.Dataset.t -> bool
(** True iff the plan's verdict equals [Query.eval] on every tuple —
    the paper's "guarantees correct execution of the original query in
    all cases" (Section 8). *)
