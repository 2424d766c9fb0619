(** The telemetry handle the whole stack threads explicitly: an
    optional metrics registry plus an optional tracer behind one
    value. There is no global state — whoever wants observability
    creates {!Metrics.t}/{!Tracer.t}, bundles them with {!create},
    and passes the handle down.

    Every operation on {!noop} is a single constructor match and then
    returns, so uninstrumented callers pay one branch per
    instrumentation point. Hot loops that cannot afford the by-name
    instrument lookup of {!incr}/{!observe} should test {!enabled}
    once, resolve instruments via {!metrics}, and update them
    directly. *)

type t

val noop : t
(** The do-nothing handle; every default. *)

val create : ?metrics:Metrics.t -> ?tracer:Tracer.t -> unit -> t
(** A live handle. With neither component this is {!noop}. *)

val enabled : t -> bool
val metrics : t -> Metrics.t option
val tracer : t -> Tracer.t option

(** {2 Tracing} *)

val span : t -> ?cat:string -> ?attrs:(string * string) list -> string ->
  (unit -> 'a) -> 'a
(** Timed span when a tracer is attached, otherwise just the thunk. *)

val event : t -> ?cat:string -> ?attrs:(string * string) list -> string -> unit
val sample : t -> string -> (string * float) list -> unit

(** {2 Metrics, by name}

    Get-or-create the instrument on each call — convenient for cold
    paths; resolve instruments once for hot ones. No-ops without a
    metrics registry. *)

val incr : t -> ?labels:(string * string) list -> string -> unit
val add : t -> ?labels:(string * string) list -> string -> float -> unit
val set : t -> ?labels:(string * string) list -> string -> float -> unit

val observe :
  t ->
  ?labels:(string * string) list ->
  ?lowest:float ->
  ?growth:float ->
  ?buckets:int ->
  string ->
  float ->
  unit
