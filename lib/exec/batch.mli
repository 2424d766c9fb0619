(** Batched execution of compiled automata — the hot loop the
    refactor exists for.

    A [Batch.t] carries the automaton plus all per-tuple scratch
    state, allocated once at {!create}: acquisition stamps (a stamp
    equal to the current tuple id means "acquired on this tuple", so
    there is nothing to clear between tuples), board power stamps for
    the Section 7 cost model, an acquisition-order buffer, unboxed
    float accumulators, and per-attribute acquisition counters that
    are flushed to {!Acq_plan.Executor.Instr} once per sweep. The
    sweep loop itself is branch-light int arithmetic with {e zero
    per-tuple allocation} (asserted by a [Gc.allocated_bytes] bound in
    the test suite).

    Equivalence contract: for any tuple stream, verdicts, costs, and
    acquisition orders are {e byte-identical} to the tree interpreter
    ({!Acq_plan.Executor}) — the cost of each acquisition is computed
    with the same float expression in the same traversal order, so
    Eq.-4 averages agree exactly, not approximately. *)

type t

val create : ?model:Acq_plan.Cost_model.t -> costs:float array -> Compile.t -> t
(** Specializes pricing at build time: [model] (when given) is split
    via {!Acq_plan.Cost_model.pricing} into plain arrays; otherwise
    the uniform [costs] are used directly, mirroring the tree
    executor's defaulting. @raise Invalid_argument when the
    automaton's or model's arity does not match [costs]. *)

val automaton : t -> Compile.t

val run :
  ?instr:Acq_plan.Executor.Instr.t ->
  ?probe:Probe.t ->
  ?times:int ->
  t ->
  lookup:(int -> int) ->
  Acq_plan.Executor.outcome
(** Execute one tuple through the automaton and build its outcome, the
    form the tick path hands on. [lookup] is called once per node
    visit (exactly like the tree interpreter's [touch]), so lookup
    side effects — a mote powering a sensor — happen in the same
    order and multiplicity. With [instr], records the same per-tuple
    series as {!Acq_plan.Executor.run}, [times] (default 1) over: one
    execution shared by [times] queries with the same automaton
    credits each of them. With [probe], per-node visit/hit counts and
    the tuple's realized cost are folded into the probe's
    pre-allocated cells — observations only, never a change to
    verdict, cost, or acquisition order. @raise Invalid_argument when
    the probe's automaton shape differs. *)

val step :
  ?instr:Acq_plan.Executor.Instr.t ->
  ?probe:Probe.t ->
  t ->
  lookup:(int -> int) ->
  bool
(** {!run}'s traversal without an outcome: returns the verdict and
    leaves the cost and the acquisition count in [t] ({!cost},
    {!n_acquired}) until the next traversal; same lookup calls, probe
    observations and [instr] writes as {!run}. Without a probe it
    allocates nothing (given a [lookup] built once). *)

val cost : t -> float
(** The last traversal's acquisition cost. *)

val n_acquired : t -> int
(** How many attributes the last traversal acquired. *)

val run_tuple :
  ?instr:Acq_plan.Executor.Instr.t ->
  ?probe:Probe.t ->
  t ->
  int array ->
  Acq_plan.Executor.outcome

val sweep_columns :
  ?instr:Acq_plan.Executor.Instr.t ->
  ?probe:Probe.t ->
  t ->
  int array array ->
  nrows:int ->
  float
(** Eq.-4 mean acquisition cost over [nrows] tuples of a columnar
    snapshot (from {!Acq_data.Dataset.columns}). The caller owns the
    snapshot so repeated sweeps over the same data pay the transpose
    once; the loop allocates nothing per tuple. With [instr],
    per-attribute acquisition and tuple/match counters are flushed in
    one batch after the loop; the depth histogram is observed per
    tuple (its granularity cannot be batched). Counter totals equal
    the tree path's exactly. With [probe], the audited loop adds two
    int increments per node visit against hoisted probe arrays and one
    cost fold per tuple — still zero per-tuple allocation, so the
    <8 KiB/sweep bound holds audited. *)

val average_cost :
  ?instr:Acq_plan.Executor.Instr.t ->
  ?probe:Probe.t ->
  t ->
  Acq_data.Dataset.t ->
  float
(** {!sweep_columns} over a fresh columnar snapshot of [data]. *)
