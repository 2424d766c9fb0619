module T = Acq_obs.Telemetry

type conn = {
  fd : Unix.file_descr;
  id : int;  (** the [owner] token handed to the engine *)
  peer : string;
  reader : Protocol.Reader.t;
  mutable tenant : string option;
  mutable head : string;  (** frames being written, coalesced *)
  mutable head_off : int;  (** bytes of [head] already written *)
  mutable staged : string list;  (** frames queued since, newest first *)
  mutable out_bytes : int;  (** queued bytes not yet written *)
  mutable shedding : bool;  (** soft limit crossed: events are dropped *)
  mutable blocked : bool;  (** the last flush left bytes the kernel refused *)
  mutable drained_at : float;  (** when a write last made progress *)
  mutable discarding : bool;  (** resynchronizing after a 413 line *)
  mutable closing : bool;  (** flush the queue, then close *)
}

(* What a poll decided for its tick batch: run it, skip it to pace a
   reader that is behind, or skip it because no subscriber has caught
   up. *)
type stream = Advancing | Pacing | Stalled

type t = {
  engine : Engine.t;
  limits : Limits.t;
  telemetry : T.t;
  event_frames : Acq_obs.Metrics.counter Lazy.t;
      (** [acqpd_frames_total{kind="event"}], resolved at the first
          EVENT frame, where a by-name increment would register it *)
  clock : unit -> float;
  mutable stream : stream;  (** what the last poll decided *)
  mutable decided_at : float;  (** when it decided *)
  mutable pace_credit : float;  (** seconds the stream may still pause *)
  mutable listeners : Unix.file_descr list;
  mutable conns : conn list;
  mutable next_conn : int;
  mutable draining : bool;
  mutable drain_started : float;
  mutable accepted : int;
  unix_path : string option;  (** unlinked on close *)
}

(* ------------------------------------------------------------------ *)
(* Listeners *)

let listen_unix path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock fd;
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 128;
  fd

let listen_tcp host port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.set_nonblock fd;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen fd 128;
  fd

let bound_port fd =
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> Some port
  | Unix.ADDR_UNIX _ -> None

(* Live-trace tuples served to subscriptions per poll: a few keep
   request latency bounded while continuous queries make steady
   progress. *)
let ticks_per_poll = 4

(* Pausing the stream for a reader that is behind spends a credit;
   advancing earns [pace_share] of its time back, banked up to
   [pace_burst_s]. *)
let pace_share = 0.1
let pace_burst_s = 0.05

let create ?(clock = Unix.gettimeofday) ?unix_path ~listeners engine limits =
  {
    engine;
    limits;
    telemetry = Engine.telemetry engine;
    event_frames =
      lazy
        (Acq_obs.Metrics.counter (Engine.registry engine)
           ~labels:[ ("kind", "event") ]
           "acqpd_frames_total");
    clock;
    stream = Stalled;
    decided_at = clock ();
    pace_credit = pace_burst_s;
    listeners;
    conns = [];
    next_conn = 0;
    draining = false;
    drain_started = 0.0;
    accepted = 0;
    unix_path;
  }

let connections t = List.length t.conns
let draining t = t.draining
let finished t = t.draining && t.conns = [] && t.listeners = []

(* ------------------------------------------------------------------ *)
(* Write queue + backpressure *)

let set_conn_gauge t =
  T.set t.telemetry "acqpd_connections" (float_of_int (List.length t.conns))

let close_conn t c reason =
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  t.conns <- List.filter (fun c' -> c'.id <> c.id) t.conns;
  ignore (Engine.drop_owner t.engine c.id : int);
  T.incr t.telemetry ~labels:[ ("reason", reason) ] "acqpd_disconnects_total";
  set_conn_gauge t

let enqueue_raw c s =
  c.staged <- s :: c.staged;
  c.out_bytes <- c.out_bytes + String.length s

let over_hard_limit t c =
  if c.out_bytes > t.limits.Limits.write_hard_limit then begin
    T.incr t.telemetry "acqpd_slow_consumer_drops_total";
    close_conn t c "slow_consumer"
  end

(* A reply to an explicit request always queues (the client is owed an
   answer); crossing the hard cap afterwards drops the consumer. *)
let send t c frame =
  enqueue_raw c (Protocol.render frame);
  T.incr t.telemetry
    ~labels:[ ("kind", Protocol.frame_kind frame) ]
    "acqpd_frames_total";
  over_hard_limit t c

(* Subscription events are sheddable: past the soft limit the consumer
   is clearly slower than its subscriptions, so events are dropped and
   a single OVERLOAD frame announces the gap. Delivery resumes (with a
   fresh OVERLOAD on the next gap) once the queue drains. *)
let send_event t c sub_id payload =
  if c.out_bytes > t.limits.Limits.write_soft_limit then begin
    T.incr t.telemetry "acqpd_shed_events_total";
    if not c.shedding then begin
      c.shedding <- true;
      T.incr t.telemetry "acqpd_overload_total";
      send t c
        (Protocol.Overload
           "slow consumer: dropping subscription events until you catch up\n")
    end
  end
  else begin
    c.shedding <- false;
    (* The header and the payload, which every subscriber of a plan
       group shares, queue as two strings: the flush's concatenation is
       the payload's only copy. *)
    enqueue_raw c (Protocol.event_header sub_id (String.length payload));
    enqueue_raw c payload;
    Acq_obs.Metrics.incr (Lazy.force t.event_frames);
    over_hard_limit t c
  end

let flush_writes t c =
  let progress = ref true in
  (try
     while !progress && c.out_bytes > 0 do
       if c.head_off = String.length c.head then begin
         (* One write per batch of frames, not one per frame: fewer
            syscalls, and the socket buffer holds more of the stream. *)
         c.head <- String.concat "" (List.rev c.staged);
         c.head_off <- 0;
         c.staged <- []
       end;
       let len = String.length c.head - c.head_off in
       match Unix.single_write_substring c.fd c.head c.head_off len with
       | n ->
           c.out_bytes <- c.out_bytes - n;
           if n > 0 then c.drained_at <- t.clock ();
           T.add t.telemetry "acqpd_bytes_out_total" (float_of_int n);
           c.head_off <- c.head_off + n;
           if n < len then progress := false
       | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
           progress := false
     done
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
     close_conn t c "write_error");
  c.blocked <- c.out_bytes > 0;
  if
    c.closing && c.out_bytes = 0
    && List.exists (fun c' -> c'.id = c.id) t.conns
  then close_conn t c "client_quit"

(* ------------------------------------------------------------------ *)
(* Request dispatch *)

let reply_result t c = function
  | Ok payload -> send t c (Protocol.Reply payload)
  | Error (code, msg) -> send t c (Protocol.Failure (code, msg ^ "\n"))

let with_tenant c k =
  match c.tenant with
  | Some tenant -> k tenant
  | None -> Error (401, "say HELLO <tenant> first")

let handle_request t c line =
  match Protocol.parse_request line with
  | Error (code, msg) ->
      T.incr t.telemetry
        ~labels:[ ("code", string_of_int code) ]
        "acqpd_bad_requests_total";
      send t c (Protocol.Failure (code, msg ^ "\n"))
  | Ok req -> (
      match req with
      | Protocol.Hello tenant ->
          c.tenant <- Some tenant;
          ignore (Engine.tenant t.engine tenant : Engine.tenant);
          reply_result t c
            (Ok
               (Printf.sprintf "hello %s dataset=%s\n" tenant
                  (Source.spec_to_string (Engine.spec t.engine))))
      | Protocol.Plan (opts, sql) ->
          reply_result t c
            (with_tenant c (fun tenant -> Engine.plan t.engine ~tenant opts sql))
      | Protocol.Run (opts, sql) ->
          reply_result t c
            (with_tenant c (fun tenant -> Engine.run t.engine ~tenant opts sql))
      | Protocol.Subscribe (opts, sql) ->
          reply_result t c
            (with_tenant c (fun tenant ->
                 match
                   Engine.subscribe t.engine ~tenant ~owner:c.id opts sql
                 with
                 | Ok (_id, payload) -> Ok payload
                 | Error _ as e -> e))
      | Protocol.Unsubscribe id ->
          reply_result t c
            (with_tenant c (fun tenant ->
                 Engine.unsubscribe t.engine ~tenant ~owner:c.id id))
      | Protocol.Stats -> reply_result t c (Ok (Engine.stats t.engine))
      | Protocol.Metrics -> reply_result t c (Ok (Engine.prometheus t.engine))
      | Protocol.Ping -> send t c (Protocol.Reply "pong\n")
      | Protocol.Quit ->
          send t c (Protocol.Bye "closing\n");
          c.closing <- true)

(* Drain buffered request lines. Bounded per poll for fairness; a 413
   line is answered once and then discarded up to the next newline. *)
let process_input t c =
  let budget = ref 32 in
  let continue = ref true in
  while !continue && !budget > 0 do
    if c.discarding then begin
      if Protocol.Reader.discard_line c.reader then c.discarding <- false
      else continue := false
    end
    else
      match
        Protocol.Reader.next_line ~max:t.limits.Limits.max_line_bytes c.reader
      with
      | `Line line ->
          decr budget;
          if line <> "" then handle_request t c line
      | `Too_long ->
          send t c
            (Protocol.Failure
               ( 413,
                 Printf.sprintf "request line exceeds %d bytes\n"
                   t.limits.Limits.max_line_bytes ));
          c.discarding <- true
      | `More -> continue := false
  done

let read_conn t c =
  let buf = Bytes.create 8192 in
  let continue = ref true in
  while !continue do
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 ->
        close_conn t c "eof";
        continue := false
    | n ->
        Protocol.Reader.feed c.reader buf 0 n;
        if n < Bytes.length buf then continue := false
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        close_conn t c "read_error";
        continue := false
  done;
  if List.exists (fun c' -> c'.id = c.id) t.conns then process_input t c

(* ------------------------------------------------------------------ *)
(* Accept *)

let accept_conns t listener =
  let continue = ref true in
  while !continue do
    match Unix.accept listener with
    | fd, addr ->
        Unix.set_nonblock fd;
        if t.draining || List.length t.conns >= t.limits.Limits.max_connections
        then begin
          (* Admission at the door: over the connection cap (or
             draining) we still answer — one 503 frame — then close. *)
          let frame =
            Protocol.Failure
              (503, "connection limit reached or draining, try later\n")
          in
          (try
             ignore
               (Unix.single_write_substring fd (Protocol.render frame) 0
                  (String.length (Protocol.render frame)))
           with Unix.Unix_error _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ());
          T.incr t.telemetry "acqpd_rejected_connections_total"
        end
        else begin
          let id = t.next_conn in
          t.next_conn <- id + 1;
          t.accepted <- t.accepted + 1;
          let peer =
            match addr with
            | Unix.ADDR_UNIX _ -> "unix"
            | Unix.ADDR_INET (a, p) ->
                Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
          in
          t.conns <-
            {
              fd;
              id;
              peer;
              reader = Protocol.Reader.create ();
              tenant = None;
              head = "";
              head_off = 0;
              staged = [];
              out_bytes = 0;
              shedding = false;
              blocked = false;
              drained_at = t.clock ();
              discarding = false;
              closing = false;
            }
            :: t.conns;
          T.incr t.telemetry "acqpd_connections_total";
          set_conn_gauge t
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* ------------------------------------------------------------------ *)
(* The loop *)

let route_events t events =
  List.iter
    (fun (owner, sub_id, payload) ->
      match List.find_opt (fun c -> c.id = owner) t.conns with
      | Some c when not c.closing -> send_event t c sub_id payload
      | Some _ | None -> ())
    events

(* A subscriber is behind when its last flush left bytes the kernel
   would not take; it is still reading while some write to it made
   progress within this long. *)
let reading_s = 0.01

(* Tick only while some subscriber has caught up: at least one
   connection that owns a live subscription has an empty write queue.
   A lone subscriber that stops reading then pauses the stream instead
   of being shed.

   A subscriber that still reads but is behind pauses the stream too,
   while the pacing credit lasts, so a reader that falls behind the
   stream for a moment beside a faster one catches up instead of
   losing events. Each poll settles the time since the previous one:
   pacing spends it, advancing earns [pace_share] of it back. However
   many readers fall behind, the stream pauses for them at most a
   tenth as long as it advances, plus [pace_burst_s], so a subscriber
   that keeps up gets at least 10/11 of the ticks it would get alone.
   Once the credit is spent, a reader still behind is shed past the
   soft limit, as a silent one (nothing drained for [reading_s])
   always is. *)
let can_tick t =
  let now = t.clock () in
  let dt = now -. t.decided_at in
  t.decided_at <- now;
  (match t.stream with
  | Advancing ->
      t.pace_credit <-
        Float.min pace_burst_s (t.pace_credit +. (pace_share *. dt))
  | Pacing -> t.pace_credit <- t.pace_credit -. dt
  | Stalled -> ());
  let subscribed c = Engine.has_subscription t.engine ~owner:c.id in
  let behind c = c.blocked && now -. c.drained_at < reading_s && subscribed c in
  t.stream <-
    (if not (List.exists (fun c -> c.out_bytes = 0 && subscribed c) t.conns)
     then Stalled
     else if t.pace_credit > 0.0 && List.exists behind t.conns then Pacing
     else Advancing);
  t.stream = Advancing

let poll ?(timeout_ms = 50) t =
  let want_write = List.filter (fun c -> c.out_bytes > 0) t.conns in
  let busy =
    Engine.live_subscriptions t.engine > 0
    || List.exists (fun c -> Protocol.Reader.buffered c.reader > 0) t.conns
  in
  let timeout = if busy then 0.0 else float_of_int timeout_ms /. 1000.0 in
  let reads = t.listeners @ List.map (fun c -> c.fd) t.conns in
  let writes = List.map (fun c -> c.fd) want_write in
  (match Unix.select reads writes [] timeout with
  | readable, writable, _ ->
      List.iter
        (fun fd -> if List.memq fd readable then accept_conns t fd)
        t.listeners;
      List.iter
        (fun c ->
          if
            List.memq c.fd readable
            && List.exists (fun c' -> c'.id = c.id) t.conns
          then read_conn t c)
        (List.filter (fun c -> not (List.memq c.fd t.listeners)) t.conns);
      List.iter
        (fun c ->
          if
            List.memq c.fd writable
            && List.exists (fun c' -> c'.id = c.id) t.conns
          then flush_writes t c)
        want_write
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  (* Keep draining lines that arrived faster than the per-read budget
     processed them — a pipelining client may go quiet while its
     requests still sit in the reader. *)
  List.iter
    (fun c ->
      if
        List.exists (fun c' -> c'.id = c.id) t.conns
        && Protocol.Reader.buffered c.reader > 0
      then process_input t c)
    t.conns;
  (* Decided once for the whole batch, after this poll's flushes and
     requests: each tick queues events, so a per-tick check would cut
     every batch to one tick. *)
  if can_tick t then
    for _ = 1 to ticks_per_poll do
      route_events t (Engine.tick t.engine)
    done;
  (* Opportunistic flush so request/response latency is one poll, not
     two (the next select would report writability anyway). *)
  List.iter
    (fun c ->
      if List.exists (fun c' -> c'.id = c.id) t.conns && c.out_bytes > 0 then
        flush_writes t c)
    t.conns

let request_shutdown t =
  if not t.draining then begin
    t.draining <- true;
    t.drain_started <- t.clock ();
    Engine.drain t.engine;
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      t.listeners;
    t.listeners <- [];
    (match t.unix_path with
    | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | None -> ());
    (* Graceful drain: every client gets a BYE, queued bytes flush,
       then the connection closes. *)
    List.iter
      (fun c ->
        send t c (Protocol.Bye "draining\n");
        c.closing <- true)
      t.conns
  end

let stop t =
  request_shutdown t;
  List.iter (fun c -> close_conn t c "stop") t.conns

(* During a drain, connections close as their queues empty
   ([flush_writes] does it); consumers that never read would pin the
   process, so a grace period bounds the whole drain. *)
let drain_step ?(grace_s = 2.0) t =
  if t.draining then begin
    List.iter
      (fun c -> if c.out_bytes = 0 then close_conn t c "drained")
      t.conns;
    if t.clock () -. t.drain_started > grace_s then
      List.iter (fun c -> close_conn t c "drain_timeout") t.conns
  end

let run ?(should_drain = fun () -> false) ?(timeout_ms = 50) t =
  while not (finished t) do
    if should_drain () then request_shutdown t;
    poll ~timeout_ms t;
    drain_step t
  done
