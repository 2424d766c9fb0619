(** The acqpd wire protocol.

    Requests are single lines (LF or CRLF terminated):
    {v
    HELLO <tenant>
    PLAN      [k=v ...] SELECT ...
    RUN       [k=v ...] SELECT ...
    SUBSCRIBE [k=v ...] SELECT ...
    UNSUBSCRIBE <id>
    STATS | METRICS | PING | QUIT
    v}
    Options are [algo=naive|corrseq|heuristic|exhaustive|pac|portfolio],
    [model=<backend spec>]; anything after the first
    (case-insensitive) [SELECT] token is the SQL. Any other option key
    is a 400 [unknown option].

    Responses are length-prefixed frames — a header line carrying the
    payload byte count, then exactly that many payload bytes:
    {v
    OK <len>\n<payload>
    ERR <code> <len>\n<payload>
    EVENT <subid> <len>\n<payload>
    OVERLOAD <len>\n<payload>
    BYE <len>\n<payload>
    v}
    Payloads may contain newlines; no escaping is needed. Malformed
    requests produce [ERR] frames, never a disconnect. *)

type planner = Portfolio | Fixed of Acq_core.Planner.algorithm

type opts = {
  planner : planner option;
  model : Acq_prob.Backend.spec option;
}

val no_opts : opts

type request =
  | Hello of string
  | Plan of opts * string
  | Run of opts * string
  | Subscribe of opts * string
  | Unsubscribe of int
  | Stats
  | Metrics
  | Ping
  | Quit

val parse_request : string -> (request, int * string) result
(** Total: every input maps to a request or an [(error code, message)]
    pair. Codes: 400 malformed, 422 missing SELECT. (Codes 401, 404,
    409, 413, 429, 503 are produced by the engine/server layers.) *)

type frame =
  | Reply of string
  | Failure of int * string
  | Event of int * string
  | Overload of string
  | Bye of string

val render : frame -> string

val event_header : int -> int -> string
(** [event_header sub len] is the header line of an [EVENT] frame for
    subscription [sub] with a [len]-byte payload — the bytes {!render}
    writes before the payload, so a sender may queue the header and a
    shared payload as two strings. *)

val frame_kind : frame -> string
(** Lowercase tag for metrics labels: ok/err/event/overload/bye. *)

(** Incremental decoder shared by server (request lines) and clients
    (response frames). Feed raw socket bytes; pull complete units. *)
module Reader : sig
  type t

  val create : unit -> t
  val feed : t -> Bytes.t -> int -> int -> unit
  val feed_string : t -> string -> unit
  val buffered : t -> int

  val next_line : ?max:int -> t -> [ `Line of string | `More | `Too_long ]
  (** Next request line, stripped of its (CR)LF. [`Too_long] when a
      line exceeds [max] bytes (reply 413, then {!discard_line}). *)

  val discard_line : t -> bool
  (** Drop input through the next newline; [false] if the buffer held
      no newline yet (caller should keep discarding as bytes arrive). *)

  val next_frame : t -> [ `Frame of frame | `More | `Bad of string ]
end
