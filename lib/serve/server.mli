(** The acqpd event loop: a single-process, hand-rolled [Unix.select]
    server multiplexing every client connection, with bounded write
    queues and graceful drain. No threads, no external I/O deps — the
    whole daemon is one loop calling into {!Engine}.

    Backpressure per {!Limits}: request replies always queue (crossing
    the hard cap disconnects the slow consumer); the stream advances
    only while some subscriber has an empty write queue; subscription
    events shed past the soft cap, announced by one [OVERLOAD] frame
    per gap. A subscriber that is behind (the kernel refused part of
    its last flush) yet still reading (a write to it made progress
    within 10 ms) pauses the stream instead, on a bounded credit: the
    stream pauses for such readers at most a tenth as long as it
    advances, plus 50 ms, so a subscriber that keeps up gets at least
    10/11 of the ticks it would get alone; past that, a reader still
    behind is shed like any other.

    Drain ({!request_shutdown}, the SIGTERM path): listeners close
    immediately, new work is refused with 503, every client gets a
    [BYE] frame, queues flush, and connections close — consumers that
    refuse to read are cut off after a grace period so shutdown always
    terminates. *)

type t

val listen_unix : string -> Unix.file_descr
(** Bind + listen on a Unix socket path (any stale file is replaced);
    nonblocking. *)

val listen_tcp : string -> int -> Unix.file_descr
(** Bind + listen on [host:port]; port [0] picks a free port — read it
    back with {!bound_port}. *)

val bound_port : Unix.file_descr -> int option

val create :
  ?clock:(unit -> float) ->
  ?unix_path:string ->
  listeners:Unix.file_descr list ->
  Engine.t ->
  Limits.t ->
  t
(** [unix_path] is unlinked on shutdown. [clock] (default
    [Unix.gettimeofday], in seconds) times pacing and the drain's
    grace period; tests pass one they advance themselves. *)

val poll : ?timeout_ms:int -> t -> unit
(** One loop iteration: select, accept, read + dispatch complete
    request lines, tick subscriptions, flush writes. The tick batch
    (four live-trace tuples) runs only if a connection that owns a
    live subscription has an empty write queue and no reader that is
    behind is pacing the stream. [timeout_ms] (default
    50) only applies without subscriptions or buffered request lines;
    otherwise the select is non-blocking. Exposed so tests and the
    in-process bench can interleave server and client determinism-
    friendly, single-threaded. *)

val request_shutdown : t -> unit
(** Begin the graceful drain; idempotent. *)

val drain_step : ?grace_s:float -> t -> unit
(** Close drained connections; after [grace_s] (default 2.0s) since
    the drain began, cut off the rest. Called by {!run} each
    iteration. *)

val run : ?should_drain:(unit -> bool) -> ?timeout_ms:int -> t -> unit
(** Loop until {!finished}. [should_drain] is polled every iteration —
    the hook a signal handler flag plugs into. *)

val stop : t -> unit
(** Immediate shutdown: drain plus force-close everything. *)

val connections : t -> int
val draining : t -> bool
val finished : t -> bool
