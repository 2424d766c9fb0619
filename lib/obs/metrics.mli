(** An explicitly-created metrics registry: counters, gauges, and
    log-scale histograms, with Prometheus-style text and JSON dumps.

    There is no process-wide registry — callers create one per scope
    (a CLI invocation, one benchmark entry, one experiment) and thread
    it through a {!Telemetry} handle. Instruments are created or
    looked up by [(name, labels)]: a hash on the name, then a scan of
    the family's label sets — O(series), fine on cold paths (per
    request, per replan, per event). Re-registering the same pair
    returns the same instrument, so hot paths hold handles instead:
    a prepared plan keeps its executor instruments per registry
    ({!Acq_exec.Runner}), and the sensor epoch loop resolves its
    counters once per run. Updates through a handle —
    [incr]/[add]/[add_int]/[set]/[observe]/[observe_int]/
    [observe_int_times] — never allocate.

    Dumps list families newest-registered first and, within a family,
    series oldest-registered first. The order follows registration
    alone, which makes dumps of a deterministic program deterministic
    — the property the golden tests rely on. *)

type t
type counter
type gauge
type histogram

val create : unit -> t

val counter :
  t -> ?help:string -> ?labels:(string * string) list -> string -> counter
(** Get or create. Counters are monotone; {!add} with a negative
    increment raises [Invalid_argument].
    @raise Invalid_argument if [name] is already registered with a
    different instrument kind. *)

val gauge :
  t -> ?help:string -> ?labels:(string * string) list -> string -> gauge

val histogram :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  ?lowest:float ->
  ?growth:float ->
  ?buckets:int ->
  string ->
  histogram
(** Log-scale fixed-bucket histogram: finite bucket [i] (of
    [buckets], default 20) has upper bound [lowest * growth^i]
    (defaults: [lowest = 0.001], [growth = 4.0], spanning ~1e-3 to
    ~1e9), plus an implicit overflow (+Inf) bucket. Observations
    [<= lowest] land in the first bucket, observations above the last
    finite bound in the overflow bucket. [buckets] must be >= 1.
    Bucket parameters are fixed at first registration. *)

val incr : counter -> unit
val add : counter -> float -> unit
val add_int : counter -> int -> unit
(** [add c (float_of_int n)] without boxing the float at the call
    site. *)

val counter_value : counter -> float

val advance : counter -> float -> unit
(** [advance c v] sets [c] to [v]: the fold of a loop that added its
    increments to a local copy of {!counter_value}[ c], in the order
    per-increment {!add}s would have, so the counter ends with the
    same bits. @raise Invalid_argument when [v] is below the current
    value. *)

val set : gauge -> float -> unit
val add_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit
(** O(buckets) scan, no allocation. *)

val observe_int : histogram -> int -> unit
(** [observe h (float_of_int k)] without boxing the float at the call
    site — the form for per-tuple integer observations such as the
    executor's traversal depth. *)

val observe_int_times : histogram -> int -> int -> unit
(** [observe_int_times h k n]: [n] observations of [k] at once —
    counts equal to [n] calls of {!observe_int}, and the same sum
    while it stays an exact integer (below 2{^53}). *)

val hist_count : histogram -> int
val hist_sum : histogram -> float

val bucket_counts : histogram -> int array
(** Non-cumulative per-bucket counts; the final cell is the overflow
    bucket. Returns a fresh copy. *)

type snapshot = (string * float) list
(** Flat view of the registry, in dump order (families newest first,
    series oldest first within a family). Keys are the
    Prometheus sample names — [name{label="v",...}], histograms
    flattened to [name_count{...}] and [name_sum{...}]. *)

val snapshot : t -> snapshot

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier]: per-key [later - earlier], keeping keys of
    [later] (missing earlier keys count as 0). The per-query deltas
    {!Acq_workload.Experiment} attaches are built with this. *)

val find : snapshot -> string -> float option

val merge_into : src:t -> dst:t -> unit
(** Fold every instrument of [src] into [dst]: counters and gauges add
    their values (gauges in this codebase accumulate, e.g. energy, so
    summing shards is the right merge), histograms add per-bucket
    counts and sums. Families absent from [dst] are registered in
    [src]'s dump order, so a dump of [dst] lists them in [src]'s
    registration order (oldest first) ahead of [dst]'s own; series
    absent from a family are appended in [src]'s registration order.
    [src] is not modified. This is how the
    domain pool folds per-domain metric shards into the caller's
    registry on join.
    @raise Invalid_argument if a family exists in both registries with
    different instrument kinds, or a histogram series exists in both
    with different bucket bounds. [src] and [dst] must be distinct. *)

val to_prometheus : t -> string
(** Prometheus text exposition format: [# HELP]/[# TYPE] headers,
    cumulative [_bucket{le=...}] series plus [_sum]/[_count] for
    histograms. *)

val to_json : t -> Json.t
(** One object per metric: name, kind, help, and either [samples]
    (counter/gauge label-sets with values) or histogram state
    (count, sum, bucket bounds and counts). *)
