(** A fixed-size pool of OCaml 5 domains with work-stealing deques.

    The pool is the one piece of the system that owns threads: every
    other parallel facility ({!Portfolio}, {!Parallel_experiment})
    submits thunks here. Each worker domain owns a deque; {!submit}
    places tasks round-robin at the deques' steal ends, workers pop
    their own deque LIFO and steal
    FIFO from a sibling when theirs runs dry. Tasks are coarse
    (planning one query, racing one portfolio arm), so scheduling
    overhead is irrelevant next to task cost — what matters is that
    results are collected by submission index, never by completion
    order, so pool runs are deterministic whenever the tasks are.

    Observability follows the repo's no-globals rule: each worker owns
    a private {!Acq_obs.Metrics.t} shard and hands tasks a telemetry
    handle over it, so tasks record counters without any cross-domain
    synchronization. {!shutdown} joins every worker and then folds the
    shards into the telemetry handle the pool was created with (via
    {!Acq_obs.Metrics.merge_into}), together with the pool's own
    counters: [acqp_par_tasks_total], [acqp_par_steals_total], the
    per-domain [acqp_par_task_ms{domain=...}] duration histograms and
    [acqp_par_domain_busy_ms_total{domain=...}].

    A task must not {!await} a future of the same pool (a worker
    blocked in [await] holds no lock but occupies its domain; with
    every worker blocked the pool deadlocks). Exceptions raised by a
    task are captured in its future and never kill a worker. *)

type t

type 'a future
(** Handle to a submitted task's eventual result. *)

val create : ?telemetry:Acq_obs.Telemetry.t -> domains:int -> unit -> t
(** Spawn [domains] worker domains (>= 1). [telemetry] (default noop)
    receives the merged per-domain metric shards and pool counters at
    {!shutdown} time. *)

val size : t -> int
(** Number of worker domains. *)

val submit : t -> (Acq_obs.Telemetry.t -> 'a) -> 'a future
(** Enqueue a task. The argument the task receives is the executing
    worker's shard-backed telemetry handle (metrics only; spans are
    dropped — tracers are not shared across domains).
    @raise Invalid_argument after {!shutdown}. *)

val await : t -> 'a future -> ('a, exn) result
(** Block until the task has run. Any exception the task raised is
    returned, not re-raised. *)

val await_exn : t -> 'a future -> 'a
(** Like {!await} but re-raises the task's exception. *)

val ran_on : 'a future -> int
(** Index of the worker domain that executed the task, or [-1] if it
    has not completed — meaningful only after {!await}. Scheduling-
    dependent: use for load accounting, never for results. *)

val run : t -> (Acq_obs.Telemetry.t -> 'a) -> 'a
(** [submit] + {!await_exn}. *)

type stats = {
  domains : int;
  submitted : int;  (** tasks accepted by {!submit} *)
  completed : int;  (** tasks fully executed (including ones that raised) *)
  steals : int;  (** tasks taken from a sibling's deque *)
  busy_ms : float array;  (** per-domain cumulative task wall time *)
}

val stats : t -> stats
(** Snapshot of the pool counters. [submitted = completed] once every
    future has been awaited — the no-leaked-tasks invariant the
    robustness tests assert. *)

val shutdown : t -> unit
(** Graceful: workers drain every queued task, then exit and are
    joined; afterwards the metric shards are merged into the creation
    telemetry. Idempotent. Submitting after shutdown raises. *)

val with_pool :
  ?telemetry:Acq_obs.Telemetry.t -> domains:int -> (t -> 'a) -> 'a
(** [create] / run / {!shutdown}, shutting down on exceptions too. *)
