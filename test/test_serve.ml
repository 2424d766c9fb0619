(* The serving daemon, end to end: wire-protocol parsing and framing,
   the socket-free engine (admission, quotas, subscriptions, ticks),
   and the real select-loop server co-driven in-process with the load
   generator over a Unix socket — including the thousand-session scale
   scenario, RUN byte-identity against the one-shot path, slow-consumer
   shedding, malformed-client resilience, and graceful drain. *)

module Serve = Acq_serve
module Protocol = Serve.Protocol
module Engine = Serve.Engine
module Server = Serve.Server
module Loadgen = Serve.Loadgen
module Limits = Serve.Limits
module Source = Serve.Source
module P = Acq_core.Planner

let small_spec = { Source.kind = Source.Lab; rows = 400; seed = 7 }
let chatty = Source.chatty_sql Source.Lab

(* ------------------------------------------------------------------ *)
(* Protocol: request parsing *)

let check_parse line expected =
  match (Protocol.parse_request line, expected) with
  | Ok got, Ok want ->
      if got <> want then Alcotest.failf "parse %S: wrong request" line
  | Error (code, _), Error want_code ->
      Alcotest.(check int) (Printf.sprintf "parse %S code" line) want_code code
  | Ok _, Error code ->
      Alcotest.failf "parse %S: expected ERR %d, got a request" line code
  | Error (code, msg), Ok _ ->
      Alcotest.failf "parse %S: unexpected ERR %d %s" line code msg

let test_parse_basics () =
  check_parse "PING" (Ok Protocol.Ping);
  check_parse "QUIT" (Ok Protocol.Quit);
  check_parse "STATS" (Ok Protocol.Stats);
  check_parse "METRICS" (Ok Protocol.Metrics);
  check_parse "HELLO acme" (Ok (Protocol.Hello "acme"));
  check_parse "UNSUBSCRIBE 3" (Ok (Protocol.Unsubscribe 3))

let test_parse_opts_and_sql () =
  let sql = "SELECT * WHERE light >= 100" in
  check_parse ("RUN algo=naive " ^ sql)
    (Ok
       (Protocol.Run
          ({ Protocol.planner = Some (Protocol.Fixed P.Naive); model = None }, sql)));
  (* Everything after the first (case-insensitive) SELECT is raw SQL —
     spacing and case preserved byte for byte. *)
  let weird = "select *  WHERE  humidity >= 40" in
  (match Protocol.parse_request ("SUBSCRIBE " ^ weird) with
  | Ok (Protocol.Subscribe (o, got)) ->
      Alcotest.(check string) "raw sql tail" weird got;
      Alcotest.(check bool) "no opts" true (o = Protocol.no_opts)
  | _ -> Alcotest.fail "SUBSCRIBE with raw tail did not parse");
  check_parse ("PLAN algo=portfolio " ^ sql)
    (Ok
       (Protocol.Plan
          ({ Protocol.planner = Some Protocol.Portfolio; model = None }, sql)))

let test_parse_errors () =
  check_parse "" (Error 400);
  check_parse "FROBNICATE the server" (Error 400);
  check_parse "\x01\x02\x03 binary junk \xff" (Error 400);
  check_parse "RUN algo=quantum SELECT * WHERE light >= 300" (Error 400);
  check_parse "RUN" (Error 422);
  check_parse "RUN algo=naive" (Error 422);
  (* "RUN SELECT" parses (the SELECT token is present); the empty
     predicate is the engine's 422, exercised in the engine tests. *)
  check_parse "UNSUBSCRIBE many" (Error 400);
  check_parse "HELLO" (Error 400)

(* ------------------------------------------------------------------ *)
(* Protocol: framing *)

let frames_equal a b =
  match (a, b) with
  | Protocol.Reply x, Protocol.Reply y -> x = y
  | Protocol.Failure (c, x), Protocol.Failure (d, y) -> c = d && x = y
  | Protocol.Event (i, x), Protocol.Event (j, y) -> i = j && x = y
  | Protocol.Overload x, Protocol.Overload y -> x = y
  | Protocol.Bye x, Protocol.Bye y -> x = y
  | _ -> false

let test_frame_roundtrip () =
  let cases =
    [
      Protocol.Reply "hello\n";
      (* payloads may contain newlines and header-looking text *)
      Protocol.Reply "OK 3\nnot a frame header\n";
      Protocol.Failure (429, "quota exhausted\n");
      Protocol.Event (17, "match cost=42.00 light=3\n");
      Protocol.Overload "2 events dropped\n";
      Protocol.Bye "closing\n";
    ]
  in
  let reader = Protocol.Reader.create () in
  (* Feed the whole stream one byte at a time: the decoder must
     resynchronize on every fragmentation boundary. *)
  let stream = String.concat "" (List.map Protocol.render cases) in
  let got = ref [] in
  String.iter
    (fun ch ->
      Protocol.Reader.feed_string reader (String.make 1 ch);
      let rec drain () =
        match Protocol.Reader.next_frame reader with
        | `Frame f ->
            got := f :: !got;
            drain ()
        | `More -> ()
        | `Bad msg -> Alcotest.failf "bad frame: %s" msg
      in
      drain ())
    stream;
  let got = List.rev !got in
  Alcotest.(check int) "frame count" (List.length cases) (List.length got);
  List.iter2
    (fun want have ->
      if not (frames_equal want have) then
        Alcotest.failf "frame mismatch: want %s" (Protocol.render want))
    cases got

let test_reader_lines () =
  let r = Protocol.Reader.create () in
  Protocol.Reader.feed_string r "PING\r\nSTATS\nHEL";
  (match Protocol.Reader.next_line r with
  | `Line l -> Alcotest.(check string) "crlf stripped" "PING" l
  | _ -> Alcotest.fail "expected first line");
  (match Protocol.Reader.next_line r with
  | `Line l -> Alcotest.(check string) "lf stripped" "STATS" l
  | _ -> Alcotest.fail "expected second line");
  (match Protocol.Reader.next_line r with
  | `More -> ()
  | _ -> Alcotest.fail "partial line must wait");
  Protocol.Reader.feed_string r "LO world\n";
  (match Protocol.Reader.next_line r with
  | `Line l -> Alcotest.(check string) "reassembled" "HELLO world" l
  | _ -> Alcotest.fail "expected reassembled line");
  (* Oversized line: flagged, then discardable once its newline shows. *)
  Protocol.Reader.feed_string r (String.make 64 'x');
  (match Protocol.Reader.next_line ~max:16 r with
  | `Too_long -> ()
  | _ -> Alcotest.fail "expected Too_long");
  Alcotest.(check bool) "no newline yet" false (Protocol.Reader.discard_line r);
  Protocol.Reader.feed_string r "tail\nPING\n";
  Alcotest.(check bool) "discards through newline" true
    (Protocol.Reader.discard_line r);
  match Protocol.Reader.next_line ~max:16 r with
  | `Line l -> Alcotest.(check string) "resynced" "PING" l
  | _ -> Alcotest.fail "expected PING after discard"

(* ------------------------------------------------------------------ *)
(* Engine *)

(* What `acqp run` prints for [sql] on [spec] with CLI defaults —
   computed independently of the engine, through the same shared
   one-shot renderer the CLI uses. *)
let expected_run_output spec sql =
  let history, live = Source.history_live spec in
  let schema = Acq_data.Dataset.schema history in
  match Acq_sql.Catalog.compile_result schema sql with
  | Error e -> Alcotest.failf "compile %S: %s" sql e
  | Ok c ->
      let text, _ =
        Serve.Oneshot.run_to_string ~algorithm:P.Heuristic ~history ~live
          c.Acq_sql.Catalog.query
      in
      text

let test_engine_run_byte_identity () =
  let engine = Engine.create small_spec in
  let sql = chatty in
  match Engine.run engine ~tenant:"t0" Protocol.no_opts sql with
  | Error (code, msg) -> Alcotest.failf "RUN failed: %d %s" code msg
  | Ok text ->
      Alcotest.(check string) "daemon RUN == one-shot CLI rendering"
        (expected_run_output small_spec sql)
        text;
      (* Deterministic across repeats (wall-clock is scrubbed). *)
      (match Engine.run engine ~tenant:"t0" Protocol.no_opts sql with
      | Ok again -> Alcotest.(check string) "repeatable" text again
      | Error (c, m) -> Alcotest.failf "second RUN failed: %d %s" c m)

let test_engine_admission () =
  (* Session cap. *)
  let limits = { Limits.default with Limits.max_sessions_per_tenant = 2 } in
  let engine = Engine.create ~limits small_spec in
  let sub owner =
    Engine.subscribe engine ~tenant:"t0" ~owner Protocol.no_opts chatty
  in
  (match sub 1 with Ok _ -> () | Error (c, m) -> Alcotest.failf "sub1: %d %s" c m);
  (match sub 1 with Ok _ -> () | Error (c, m) -> Alcotest.failf "sub2: %d %s" c m);
  (match sub 1 with
  | Error (429, _) -> ()
  | Ok _ -> Alcotest.fail "third subscription must hit the session cap"
  | Error (c, m) -> Alcotest.failf "expected 429, got %d %s" c m);
  (* Planning quota. First measure what one RUN costs in search nodes,
     then pin the quota so exactly one fits: the first request lands,
     the depleted remainder caps the second run's search budget below
     what it needs, and it is refused. *)
  let engine = Engine.create small_spec in
  (match Engine.run engine ~tenant:"t0" Protocol.no_opts chatty with
  | Ok _ -> ()
  | Error (c, m) -> Alcotest.failf "measuring run: %d %s" c m);
  let cost =
    Limits.default.Limits.plan_quota_per_tenant
    - Engine.tenant_quota_left (Engine.tenant engine "t0")
  in
  Alcotest.(check bool) "planning work was charged" true (cost > 0);
  let limits =
    { Limits.default with Limits.plan_quota_per_tenant = cost + (cost / 2) }
  in
  let engine = Engine.create ~limits small_spec in
  (match Engine.run engine ~tenant:"t0" Protocol.no_opts chatty with
  | Ok _ -> ()
  | Error (c, m) -> Alcotest.failf "first run under pinned quota: %d %s" c m);
  (match Engine.run engine ~tenant:"t0" Protocol.no_opts chatty with
  | Error (429, _) -> ()
  | Ok _ -> Alcotest.fail "exhausted quota must 429"
  | Error (c, m) -> Alcotest.failf "expected 429, got %d %s" c m);
  (* Other tenants keep their own quota. *)
  (match Engine.run engine ~tenant:"t1" Protocol.no_opts chatty with
  | Ok _ -> ()
  | Error (c, m) -> Alcotest.failf "tenant isolation: %d %s" c m);
  (* Drain refuses new work with 503. *)
  let engine = Engine.create small_spec in
  Engine.drain engine;
  (match Engine.run engine ~tenant:"t0" Protocol.no_opts chatty with
  | Error (503, _) -> ()
  | Ok _ -> Alcotest.fail "draining engine must 503"
  | Error (c, m) -> Alcotest.failf "expected 503, got %d %s" c m);
  match Engine.subscribe engine ~tenant:"t0" ~owner:1 Protocol.no_opts chatty with
  | Error (503, _) -> ()
  | Ok _ -> Alcotest.fail "draining engine must refuse SUBSCRIBE"
  | Error (c, m) -> Alcotest.failf "expected 503, got %d %s" c m

let test_engine_subscribe_tick () =
  let engine = Engine.create small_spec in
  let sub_id =
    match Engine.subscribe engine ~tenant:"t0" ~owner:7 Protocol.no_opts chatty with
    | Ok (id, _) -> id
    | Error (c, m) -> Alcotest.failf "subscribe: %d %s" c m
  in
  Alcotest.(check int) "live" 1 (Engine.live_subscriptions engine);
  (* The chatty predicate matches every night tuple, so the very first
     ticks must produce events routed to the owning connection. *)
  let events = ref 0 in
  for _ = 1 to 10 do
    List.iter
      (fun (owner, id, payload) ->
        incr events;
        Alcotest.(check int) "event owner" 7 owner;
        Alcotest.(check int) "event sub id" sub_id id;
        Alcotest.(check bool) "payload nonempty" true (String.length payload > 0))
      (Engine.tick engine)
  done;
  Alcotest.(check bool) "events flowed" true (!events > 0);
  (* Only the owning connection may unsubscribe. *)
  (match Engine.unsubscribe engine ~tenant:"t0" ~owner:99 sub_id with
  | Error (404, _) -> ()
  | Ok _ -> Alcotest.fail "foreign owner must not unsubscribe"
  | Error (c, m) -> Alcotest.failf "expected 404, got %d %s" c m);
  (match Engine.unsubscribe engine ~tenant:"t0" ~owner:7 sub_id with
  | Ok _ -> ()
  | Error (c, m) -> Alcotest.failf "unsubscribe: %d %s" c m);
  Alcotest.(check int) "released" 0 (Engine.live_subscriptions engine);
  Alcotest.(check (list (triple int int string))) "no subs, no events" []
    (Engine.tick engine);
  (* drop_owner releases everything a disconnecting connection held. *)
  ignore (Engine.subscribe engine ~tenant:"t0" ~owner:3 Protocol.no_opts chatty);
  ignore (Engine.subscribe engine ~tenant:"t0" ~owner:3 Protocol.no_opts chatty);
  Alcotest.(check int) "dropped" 2 (Engine.drop_owner engine 3);
  Alcotest.(check int) "all released" 0 (Engine.live_subscriptions engine)

(* The EVENT payload is Printf's ["match cost=%.2f %s\n"] over the
   acquired cells, byte for byte: literals from that format, including
   costs that round at the second decimal, and random outcomes against
   the format itself. *)
let test_engine_render_event () =
  let engine = Engine.create small_spec in
  let row = [| 0; 1; 2; 3; 4; 5 |] in
  let render cost acquired =
    Engine.render_event engine row
      { Acq_plan.Executor.verdict = true; cost; acquired }
  in
  List.iter
    (fun (cost, acquired, want) ->
      Alcotest.(check string) (Printf.sprintf "cost %h" cost) want (render cost acquired))
    [
      (0.125, [], "match cost=0.12 \n");
      (0.375, [ 5 ], "match cost=0.38 humidity=5\n");
      (2.675, [ 5; 4 ], "match cost=2.67 humidity=5 temp=4\n");
      (1.005, [ 5; 4; 3 ], "match cost=1.00 humidity=5 temp=4 light=3\n");
      ( 0.005,
        [ 0; 1; 2; 3; 4; 5 ],
        "match cost=0.01 nodeid=0 hour=1 voltage=2 light=3 temp=4 humidity=5\n" );
      (99.995, [ 3 ], "match cost=100.00 light=3\n");
      (12345.675, [ 4; 5 ], "match cost=12345.67 temp=4 humidity=5\n");
      (100.0, [ 5 ], "match cost=100.00 humidity=5\n");
    ];
  let names = [| "nodeid"; "hour"; "voltage"; "light"; "temp"; "humidity" |] in
  let rng = Random.State.make [| 28 |] in
  for _ = 1 to 1_000 do
    let row = Array.init 6 (fun _ -> Random.State.int rng 1_000) in
    let acquired = List.filter (fun _ -> Random.State.bool rng) [ 5; 4; 3; 0; 1; 2 ] in
    let cost = Random.State.float rng 1_000.0 in
    let want =
      Printf.sprintf "match cost=%.2f %s\n" cost
        (String.concat " "
           (List.map (fun a -> Printf.sprintf "%s=%d" names.(a) row.(a)) acquired))
    in
    Alcotest.(check string) "random outcome" want
      (Engine.render_event engine row
         { Acq_plan.Executor.verdict = true; cost; acquired })
  done

(* Every counter the daemon exports for a fixed engine script: two
   tenants, five heuristic subscriptions over two shapes, 300 ticks,
   one RUN, one UNSUBSCRIBE, 50 more ticks. The literals are the
   script's sorted Prometheus series, generated once and checked in;
   time-valued [*_ms] series and their buckets are left out. Counters
   are identities, so any change to how they are resolved or
   accumulated must leave every value as it is. *)
let heuristic_opts =
  { Protocol.no_opts with Protocol.planner = Some (Protocol.Fixed P.Heuristic) }

let pinned_series =
  [
    {|acqp_adapt_cache_hits_total 5|};
    {|acqp_adapt_cache_size 2|};
    {|acqp_adapt_drift{algorithm="Heuristic"} 0.204375|};
    {|acqp_adapt_supervised_sessions 4|};
    {|acqp_executor_acquisitions_total{attr="hour"} 0|};
    {|acqp_executor_acquisitions_total{attr="humidity"} 1000|};
    {|acqp_executor_acquisitions_total{attr="light"} 900|};
    {|acqp_executor_acquisitions_total{attr="nodeid"} 0|};
    {|acqp_executor_acquisitions_total{attr="temp"} 0|};
    {|acqp_executor_acquisitions_total{attr="voltage"} 0|};
    {|acqp_executor_matches_total 1000|};
    {|acqp_executor_traversal_depth_bucket{le="+Inf"} 1900|};
    {|acqp_executor_traversal_depth_bucket{le="1"} 1900|};
    {|acqp_executor_traversal_depth_bucket{le="128"} 1900|};
    {|acqp_executor_traversal_depth_bucket{le="16"} 1900|};
    {|acqp_executor_traversal_depth_bucket{le="2"} 1900|};
    {|acqp_executor_traversal_depth_bucket{le="32"} 1900|};
    {|acqp_executor_traversal_depth_bucket{le="4"} 1900|};
    {|acqp_executor_traversal_depth_bucket{le="64"} 1900|};
    {|acqp_executor_traversal_depth_bucket{le="8"} 1900|};
    {|acqp_executor_traversal_depth_count 1900|};
    {|acqp_executor_traversal_depth_sum 0|};
    {|acqp_executor_tuples_total 1900|};
    {|acqp_mote_acquisition_energy_total{mote="0"} 1700|};
    {|acqp_mote_acquisition_energy_total{mote="1"} 1700|};
    {|acqp_mote_acquisition_energy_total{mote="10"} 1700|};
    {|acqp_mote_acquisition_energy_total{mote="11"} 1700|};
    {|acqp_mote_acquisition_energy_total{mote="2"} 1700|};
    {|acqp_mote_acquisition_energy_total{mote="3"} 1700|};
    {|acqp_mote_acquisition_energy_total{mote="4"} 1600|};
    {|acqp_mote_acquisition_energy_total{mote="5"} 1600|};
    {|acqp_mote_acquisition_energy_total{mote="6"} 1600|};
    {|acqp_mote_acquisition_energy_total{mote="7"} 1600|};
    {|acqp_mote_acquisition_energy_total{mote="8"} 1700|};
    {|acqp_mote_acquisition_energy_total{mote="9"} 1700|};
    {|acqp_mote_radio_energy_total{mote="0"} 0|};
    {|acqp_mote_radio_energy_total{mote="1"} 0|};
    {|acqp_mote_radio_energy_total{mote="10"} 0|};
    {|acqp_mote_radio_energy_total{mote="11"} 0|};
    {|acqp_mote_radio_energy_total{mote="2"} 0|};
    {|acqp_mote_radio_energy_total{mote="3"} 0|};
    {|acqp_mote_radio_energy_total{mote="4"} 0|};
    {|acqp_mote_radio_energy_total{mote="5"} 0|};
    {|acqp_mote_radio_energy_total{mote="6"} 0|};
    {|acqp_mote_radio_energy_total{mote="7"} 0|};
    {|acqp_mote_radio_energy_total{mote="8"} 0|};
    {|acqp_mote_radio_energy_total{mote="9"} 0|};
    {|acqp_mote_tx_bytes_total{mote="0"} 0|};
    {|acqp_mote_tx_bytes_total{mote="1"} 0|};
    {|acqp_mote_tx_bytes_total{mote="10"} 0|};
    {|acqp_mote_tx_bytes_total{mote="11"} 0|};
    {|acqp_mote_tx_bytes_total{mote="2"} 0|};
    {|acqp_mote_tx_bytes_total{mote="3"} 0|};
    {|acqp_mote_tx_bytes_total{mote="4"} 0|};
    {|acqp_mote_tx_bytes_total{mote="5"} 0|};
    {|acqp_mote_tx_bytes_total{mote="6"} 0|};
    {|acqp_mote_tx_bytes_total{mote="7"} 0|};
    {|acqp_mote_tx_bytes_total{mote="8"} 0|};
    {|acqp_mote_tx_bytes_total{mote="9"} 0|};
    {|acqp_par_portfolio_arm_total{algorithm="Heuristic",status="finished"} 4|};
    {|acqp_par_portfolio_races_total 4|};
    {|acqp_par_portfolio_wins_total{algorithm="Heuristic"} 4|};
    {|acqp_planner_estimator_calls_total{algorithm="Heuristic"} 707|};
    {|acqp_planner_memo_hits_total{algorithm="Heuristic"} 0|};
    {|acqp_planner_nodes_solved_total{algorithm="Heuristic"} 700|};
    {|acqp_planner_plan_bytes_total{algorithm="Heuristic"} 18|};
    {|acqp_planner_plans_total{algorithm="Heuristic"} 5|};
    {|acqp_planner_pruned_total{algorithm="Heuristic"} 0|};
    {|acqp_runtime_epochs_total 200|};
    {|acqp_runtime_plan_bytes 4|};
    {|acqpd_events_total{tenant="t0"} 650|};
    {|acqpd_events_total{tenant="t1"} 350|};
    {|acqpd_requests_total{tenant="t0",verb="subscribe"} 3|};
    {|acqpd_requests_total{tenant="t0",verb="unsubscribe"} 1|};
    {|acqpd_requests_total{tenant="t1",verb="run"} 1|};
    {|acqpd_requests_total{tenant="t1",verb="subscribe"} 2|};
    {|acqpd_sessions{tenant="t0"} 2|};
    {|acqpd_sessions{tenant="t1"} 2|};
    {|acqpd_tenant_quota_nodes{tenant="t0"} 1999731|};
    {|acqpd_tenant_quota_nodes{tenant="t1"} 1999569|};
    {|acqpd_ticks_total 350|};
  ]

(* Whether a sample line (not a comment) belongs to a time-valued
   [*_ms] series or one of its buckets. *)
let timed_sample l =
  let name =
    match String.index_opt l '{' with
    | Some i -> String.sub l 0 i
    | None -> List.hd (String.split_on_char ' ' l)
  in
  List.exists
    (fun suffix -> String.ends_with ~suffix name)
    [ "_ms"; "_ms_bucket"; "_ms_sum"; "_ms_count"; "_ms_total" ]

let timeless_series prom =
  String.split_on_char '\n' prom
  |> List.filter (fun l -> l <> "" && l.[0] <> '#' && not (timed_sample l))
  |> List.sort compare

let test_engine_counters_pinned () =
  let engine = Engine.create small_spec in
  let shape_a = chatty and shape_b = "SELECT * WHERE light >= 100 AND temp <= 25" in
  let sub tenant owner sql =
    match Engine.subscribe engine ~tenant ~owner heuristic_opts sql with
    | Ok (id, _) -> id
    | Error (c, m) -> Alcotest.failf "subscribe: %d %s" c m
  in
  let first = sub "t0" 1 shape_a in
  ignore (sub "t0" 1 shape_b : int);
  ignore (sub "t0" 2 shape_a : int);
  ignore (sub "t1" 3 shape_b : int);
  ignore (sub "t1" 3 shape_a : int);
  let tick n =
    for _ = 1 to n do
      ignore (Engine.tick engine : (int * int * string) list)
    done
  in
  tick 300;
  (match Engine.run engine ~tenant:"t1" heuristic_opts shape_b with
  | Ok _ -> ()
  | Error (c, m) -> Alcotest.failf "run: %d %s" c m);
  (match Engine.unsubscribe engine ~tenant:"t0" ~owner:1 first with
  | Ok _ -> ()
  | Error (c, m) -> Alcotest.failf "unsubscribe: %d %s" c m);
  tick 50;
  Alcotest.(check (list string))
    "Prometheus series" pinned_series
    (timeless_series (Engine.prometheus engine))

(* Sharing must not change what any connection sees. The engine (one
   ring for the stream, one execution per distinct plan, a tenant plan
   cache keyed by window rows) against an independent reference: every
   subscription a private session on its own window, without a cache,
   stepped in subscription order under a replan budget that does not
   bind. Random shapes and subscribe/unsubscribe ticks, including joins
   mid-stream; the event stream (order, sub id, cost, acquired cells),
   the switch log and STATS (without uptime) must be byte-identical.
   The shapes are distinct predicate sets (see test_adapt's sharing
   property). *)
module Tbl = Acq_util.Tbl

type sharing_op = Sub of int * int | Unsub of int | Ticks of int

let sharing_shapes =
  [|
    chatty;
    "SELECT * WHERE light >= 100 AND temp <= 25";
    "SELECT * WHERE temp <= 22 AND humidity >= 30";
    "SELECT * WHERE light <= 400 AND humidity <= 45 AND temp >= 18";
  |]

let sharing_ops_gen =
  QCheck2.Gen.(
    list_size (int_range 4 20)
      (frequency
         [
           (4, map2 (fun c sh -> Sub (c, sh)) (int_bound 2) (int_bound 3));
           (1, map (fun k -> Unsub k) (int_bound 9));
           (3, map (fun n -> Ticks n) (int_range 1 600));
         ]))

let sharing_print ops =
  String.concat " "
    (List.map
       (function
         | Sub (c, sh) -> Printf.sprintf "sub(c%d,s%d)" c sh
         | Unsub k -> Printf.sprintf "unsub(%d)" k
         | Ticks n -> Printf.sprintf "ticks(%d)" n)
       ops)

type ref_sub = {
  r_id : int;
  r_owner : int;
  r_tenant : string;
  r_session : Acq_adapt.Session.t;
}

let tenant_of_conn c = if c = 0 then "t0" else "t1"

let prop_engine_sharing =
  QCheck2.Test.make ~count:20 ~name:"engine sharing matches private sessions"
    ~print:sharing_print sharing_ops_gen (fun ops ->
      let module Session = Acq_adapt.Session in
      let module Ex = Acq_plan.Executor in
      let limits = { Limits.default with Limits.replan_budget = max_int } in
      let spec = { small_spec with Source.rows = 2_000 } in
      let engine = Engine.create ~limits spec in
      let history, live = Source.history_live spec in
      let schema = Acq_data.Dataset.schema history in
      let names = Acq_data.Schema.names schema in
      (* The reference. *)
      let subs = ref [] (* subscription order *) and next = ref 0 in
      let budget = ref max_int and epoch = ref 0 and cursor = ref 0 in
      let requests = Hashtbl.create 4 and quota = Hashtbl.create 4 in
      let raced = Hashtbl.create 8 and switches = ref [] in
      let bump tbl k d =
        Hashtbl.replace tbl k (d + Option.value ~default:0 (Hashtbl.find_opt tbl k))
      in
      let ref_events = Buffer.create 4096 and eng_events = Buffer.create 4096 in
      let ref_tick () =
        if !subs <> [] then begin
          let row = Acq_data.Dataset.row live !cursor in
          cursor := (!cursor + 1) mod Acq_data.Dataset.nrows live;
          incr epoch;
          List.iter
            (fun r ->
              let o = Session.execute r.r_session ~lookup:(fun a -> row.(a)) in
              Session.observe r.r_session ~cost:o.Ex.cost row;
              if o.Ex.verdict then
                Printf.bprintf ref_events "%d %d match cost=%.2f %s\n" r.r_owner
                  r.r_id o.Ex.cost
                  (String.concat " "
                     (List.map
                        (fun a -> Printf.sprintf "%s=%d" names.(a) row.(a))
                        o.Ex.acquired)))
            !subs;
          List.iter
            (fun r ->
              let s = r.r_session in
              if Session.due s then begin
                let before = Session.planning_nodes s in
                (match Session.check ~max_nodes:!budget s with
                | Some sw -> switches := (r.r_id, sw) :: !switches
                | None -> ());
                budget := !budget - (Session.planning_nodes s - before)
              end)
            !subs
        end
      in
      let ref_stats () =
        let b = Buffer.create 256 in
        Printf.bprintf b
          "requests=%d subscriptions=%d supervisor_epoch=%d \
           replan_budget_left=%d parked=0 deferred=0 switches=%d\n"
          (Hashtbl.fold (fun _ n a -> n + a) requests 0)
          (List.length !subs) !epoch !budget (List.length !switches);
        let tbl =
          Tbl.create [ "tenant"; "sessions"; "requests"; "rejected"; "quota left" ]
        in
        List.iter
          (fun tn ->
            if Hashtbl.mem requests tn then
              Tbl.add_row tbl
                [
                  tn;
                  string_of_int
                    (List.length (List.filter (fun r -> r.r_tenant = tn) !subs));
                  string_of_int (Hashtbl.find requests tn);
                  "0";
                  string_of_int
                    (Limits.default.Limits.plan_quota_per_tenant
                    - Option.value ~default:0 (Hashtbl.find_opt quota tn));
                ])
          [ "t0"; "t1" ];
        Buffer.add_string b (Tbl.render tbl);
        Buffer.add_char b '\n';
        Buffer.contents b
      in
      let eng_stats () =
        match String.index_opt (Engine.stats engine) '\n' with
        | Some i ->
            let st = Engine.stats engine in
            String.sub st (i + 1) (String.length st - i - 1)
        | None -> Alcotest.fail "STATS has no body"
      in
      List.iter
        (function
          | Sub (conn, shape) -> (
              let tenant = tenant_of_conn conn and sql = sharing_shapes.(shape) in
              match Engine.subscribe engine ~tenant ~owner:conn heuristic_opts sql with
              | Error (c, m) -> Alcotest.failf "subscribe: %d %s" c m
              | Ok (id, _) ->
                  if id <> !next then Alcotest.fail "subscription ids diverge";
                  let q =
                    (Acq_sql.Catalog.compile schema sql).Acq_sql.Catalog.query
                  in
                  let left =
                    Limits.default.Limits.plan_quota_per_tenant
                    - Option.value ~default:0 (Hashtbl.find_opt quota tenant)
                  in
                  let options =
                    { P.default_options with P.search_budget = Some left }
                  in
                  let session =
                    Session.create ~options ~algorithm:P.Heuristic ~window:512
                      ~history q
                  in
                  if not (Hashtbl.mem raced (tenant, shape)) then begin
                    Hashtbl.replace raced (tenant, shape) ();
                    bump quota tenant
                      (Session.initial_stats session).Acq_core.Search.nodes_solved
                  end;
                  bump requests tenant 1;
                  subs :=
                    !subs
                    @ [ { r_id = id; r_owner = conn; r_tenant = tenant; r_session = session } ];
                  incr next)
          | Unsub k -> (
              match !subs with
              | [] -> ()
              | l ->
                  let r = List.nth l (k mod List.length l) in
                  (match
                     Engine.unsubscribe engine ~tenant:r.r_tenant ~owner:r.r_owner r.r_id
                   with
                  | Ok _ -> ()
                  | Error (c, m) -> Alcotest.failf "unsubscribe: %d %s" c m);
                  bump requests r.r_tenant 1;
                  subs := List.filter (fun r' -> r'.r_id <> r.r_id) l)
          | Ticks n ->
              for _ = 1 to n do
                List.iter
                  (fun (owner, id, payload) ->
                    Printf.bprintf eng_events "%d %d %s" owner id payload)
                  (Engine.tick engine);
                ref_tick ()
              done)
        ops;
      let by_sub =
        (* Supervisor ids and subscription ids both count up from 0 in
           subscription order. *)
        List.map (fun (sup_id, sw) -> (sup_id, sw))
          (Acq_adapt.Supervisor.switches (Engine.supervisor engine))
      in
      let log l =
        List.map
          (fun (id, (sw : Session.switch)) ->
            Printf.sprintf "%d %d %s %h %h %d %h %d" id sw.Session.epoch
              (Acq_adapt.Policy.describe sw.Session.reason)
              sw.Session.old_expected sw.Session.new_expected
              sw.Session.plan_bytes sw.Session.drift
              sw.Session.search.Acq_core.Search.nodes_solved)
          l
      in
      if Buffer.contents eng_events <> Buffer.contents ref_events then
        QCheck2.Test.fail_report "event streams differ";
      if log by_sub <> log (List.rev !switches) then
        QCheck2.Test.fail_reportf "switch logs differ:\n%s\nvs\n%s"
          (String.concat "\n" (log by_sub))
          (String.concat "\n" (log (List.rev !switches)));
      if eng_stats () <> ref_stats () then
        QCheck2.Test.fail_reportf "STATS differ:\n%s\nvs\n%s" (eng_stats ())
          (ref_stats ());
      true)

(* ------------------------------------------------------------------ *)
(* Server + Loadgen, in-process over a real Unix socket *)

let temp_socket_path name =
  let path = Filename.concat (Filename.get_temp_dir_name ()) name in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  path

let with_server ?(limits = Limits.default) ?spec ?clock name f =
  let spec = match spec with Some s -> s | None -> small_spec in
  let path = temp_socket_path name in
  let engine = Engine.create ~limits spec in
  let listener = Server.listen_unix path in
  let server =
    Server.create ?clock ~unix_path:path ~listeners:[ listener ] engine limits
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () -> f path engine server)

let connect_unix path () =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

(* A hand-driven client for the tests that need finer control than the
   load generator gives (reading specific frames, going silent). *)
type cli = {
  cfd : Unix.file_descr;
  crd : Protocol.Reader.t;
  mutable cframes : Protocol.frame list;  (** newest first *)
}

let cli_connect path =
  let fd = connect_unix path () in
  Unix.set_nonblock fd;
  { cfd = fd; crd = Protocol.Reader.create (); cframes = [] }

let cli_send c line =
  let data = line ^ "\n" in
  let off = ref 0 in
  while !off < String.length data do
    match
      Unix.single_write_substring c.cfd data !off (String.length data - !off)
    with
    | n -> off := !off + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ignore (Unix.select [] [ c.cfd ] [] 0.05)
  done

let cli_pump c =
  let buf = Bytes.create 8192 in
  let continue = ref true in
  while !continue do
    match Unix.read c.cfd buf 0 (Bytes.length buf) with
    | 0 -> continue := false
    | n ->
        Protocol.Reader.feed c.crd buf 0 n;
        if n < Bytes.length buf then continue := false
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
  done;
  let drain = ref true in
  while !drain do
    match Protocol.Reader.next_frame c.crd with
    | `Frame f -> c.cframes <- f :: c.cframes
    | `More -> drain := false
    | `Bad msg -> Alcotest.failf "client got bad frame: %s" msg
  done

let cli_close c = try Unix.close c.cfd with Unix.Unix_error _ -> ()

(* Poll the server until the client has accumulated [n] frames. *)
let pump_until server c ~frames:n =
  let steps = ref 0 in
  while List.length c.cframes < n && !steps < 5_000 do
    Server.poll ~timeout_ms:0 server;
    cli_pump c;
    incr steps
  done;
  if List.length c.cframes < n then
    Alcotest.failf "expected %d frames, got %d after %d polls" n
      (List.length c.cframes) !steps

let test_server_run_identity_over_socket () =
  with_server "acqpd_test_identity.sock" @@ fun path engine server ->
  ignore engine;
  let c = cli_connect path in
  Fun.protect ~finally:(fun () -> cli_close c) @@ fun () ->
  cli_send c "HELLO t0";
  cli_send c ("RUN " ^ chatty);
  pump_until server c ~frames:2;
  match List.rev c.cframes with
  | [ Protocol.Reply _hello; Protocol.Reply run ] ->
      Alcotest.(check string) "socket RUN == one-shot CLI rendering"
        (expected_run_output small_spec chatty)
        run
  | frames ->
      Alcotest.failf "unexpected frames: %s"
        (String.concat " | " (List.map Protocol.frame_kind frames))

let test_server_malformed_never_disconnects () =
  with_server "acqpd_test_malformed.sock" @@ fun path _engine server ->
  let c = cli_connect path in
  Fun.protect ~finally:(fun () -> cli_close c) @@ fun () ->
  cli_send c "HELLO t0";
  cli_send c "FROBNICATE the server";
  cli_send c "RUN SELECT * WHERE";
  cli_send c "\x01\x02\x03 binary junk \xff";
  cli_send c "PING";
  pump_until server c ~frames:5;
  match List.rev c.cframes with
  | [ Protocol.Reply _; Protocol.Failure _; Protocol.Failure _;
      Protocol.Failure _; Protocol.Reply _ ] ->
      ()
  | frames ->
      Alcotest.failf
        "want OK ERR ERR ERR OK (connection alive throughout), got: %s"
        (String.concat " | " (List.map Protocol.frame_kind frames))

(* Removed options — the execution path (exec=), the dense model
   (model=dense) and the memo suffix after a model — get a structured
   400 naming what was refused, and the connection stays usable. *)
let test_server_removed_options () =
  with_server "acqpd_test_exec_opt.sock" @@ fun path _engine server ->
  let c = cli_connect path in
  Fun.protect ~finally:(fun () -> cli_close c) @@ fun () ->
  cli_send c "HELLO t0";
  cli_send c ("RUN exec=tree " ^ chatty);
  let memo_model = String.concat "," [ "empirical"; "memo" ] in
  cli_send c ("RUN model=dense " ^ chatty);
  cli_send c ("RUN model=" ^ memo_model ^ " " ^ chatty);
  cli_send c "PING";
  pump_until server c ~frames:5;
  let unknown_model m =
    match Acq_prob.Backend.spec_of_string m with
    | Ok _ -> Alcotest.failf "%s still parses as a model" m
    | Error e -> Acq_prob.Backend.spec_error_to_string e ^ "\n"
  in
  match List.rev c.cframes with
  | [
   Protocol.Reply _;
   Protocol.Failure (exec_code, exec_msg);
   Protocol.Failure (model_code, model_msg);
   Protocol.Failure (memo_code, memo_msg);
   Protocol.Reply _;
  ] ->
      Alcotest.(check int) "exec code" 400 exec_code;
      Alcotest.(check string) "exec message" "unknown option: exec\n" exec_msg;
      Alcotest.(check int) "model code" 400 model_code;
      Alcotest.(check string) "model message" (unknown_model "dense") model_msg;
      Alcotest.(check int) "memo code" 400 memo_code;
      Alcotest.(check string) "memo message" (unknown_model memo_model) memo_msg
  | frames ->
      Alcotest.failf "want OK ERR ERR ERR OK, got: %s"
        (String.concat " | " (List.map Protocol.frame_kind frames))

let test_server_slow_consumer_sheds () =
  (* Tiny write limits so a consumer that stops reading crosses the
     soft cap within a few ticks of chatty-subscription traffic. *)
  let limits =
    {
      Limits.default with
      Limits.write_soft_limit = 2_048;
      write_hard_limit = 64 * 1024;
    }
  in
  with_server ~limits "acqpd_test_slow.sock" @@ fun path engine server ->
  let c = cli_connect path in
  Fun.protect ~finally:(fun () -> cli_close c) @@ fun () ->
  cli_send c "HELLO t0";
  (* Many subscriptions on one connection multiply per-tick event
     volume, overwhelming both the kernel socket buffer and the
     server-side queue without needing thousands of ticks. *)
  let subs = 50 in
  for _ = 1 to subs do
    cli_send c ("SUBSCRIBE algo=heuristic " ^ chatty)
  done;
  pump_until server c ~frames:(1 + subs);
  (* Go silent: stop reading while the server keeps ticking. *)
  for _ = 1 to 400 do
    Server.poll ~timeout_ms:0 server
  done;
  let prom = Engine.prometheus engine in
  let shed_nonzero =
    String.split_on_char '\n' prom
    |> List.exists (fun l ->
           String.length l > 0
           && String.starts_with ~prefix:"acqpd_shed_events_total" l
           && not (String.ends_with ~suffix:" 0" l))
  in
  Alcotest.(check bool) "server shed events for the slow consumer" true
    shed_nonzero;
  (* The connection survived shedding (drop-with-notice, not a drop of
     the client): a PING still round-trips, and the backlog we finally
     read contains at least one OVERLOAD notice. *)
  cli_send c "PING";
  let saw_overload () =
    List.exists (function Protocol.Overload _ -> true | _ -> false) c.cframes
  in
  let steps = ref 0 in
  while (not (saw_overload ())) && !steps < 5_000 do
    Server.poll ~timeout_ms:0 server;
    cli_pump c;
    incr steps
  done;
  Alcotest.(check bool) "OVERLOAD notice delivered in-stream" true
    (saw_overload ());
  Alcotest.(check int) "connection still open" 1 (Server.connections server)

(* Sum of every series of one counter family in a Prometheus dump. *)
let counter engine name =
  String.split_on_char '\n' (Engine.prometheus engine)
  |> List.fold_left
       (fun acc l ->
         match String.split_on_char ' ' l with
         | [ series; v ]
           when series = name || String.starts_with ~prefix:(name ^ "{") series
           ->
             acc +. float_of_string v
         | _ -> acc)
       0.0

let epoch engine = Acq_adapt.Supervisor.epoch (Engine.supervisor engine)

let count_frames c pred = List.length (List.filter pred c.cframes)
let is_event = function Protocol.Event _ -> true | _ -> false
let is_overload = function Protocol.Overload _ -> true | _ -> false
let is_reply = function Protocol.Reply _ -> true | _ -> false

(* HELLO plus [n] chatty heuristic subscriptions; returns the ids. *)
let subscribe_chatty server c ~tenant n =
  cli_send c ("HELLO " ^ tenant);
  for _ = 1 to n do
    cli_send c ("SUBSCRIBE algo=heuristic " ^ chatty)
  done;
  pump_until server c ~frames:(1 + n);
  List.rev c.cframes
  |> List.filter_map (function
       | Protocol.Reply p when String.starts_with ~prefix:"subscribed " p ->
           Some (Scanf.sscanf p "subscribed %d" Fun.id)
       | _ -> None)

(* A lone subscriber that stops reading pauses the stream instead of
   losing events: the tick batch runs only while some subscriber has
   an empty write queue, so the queue never grows past one batch. *)
let test_server_stalled_subscriber_pauses () =
  with_server "acqpd_test_stall.sock" @@ fun path engine server ->
  let c = cli_connect path in
  Fun.protect ~finally:(fun () -> cli_close c) @@ fun () ->
  let ids = subscribe_chatty server c ~tenant:"t0" 50 in
  Alcotest.(check int) "subscribed" 50 (List.length ids);
  (* Go silent: the kernel buffer absorbs a few batches, then the
     epoch must stop advancing. *)
  let still = ref 0 and polls = ref 0 in
  while !still < 200 && !polls < 20_000 do
    let before = epoch engine in
    Server.poll ~timeout_ms:0 server;
    if epoch engine = before then incr still else still := 0;
    incr polls
  done;
  Alcotest.(check bool) "stream paused for the stalled subscriber" true
    (!still >= 200);
  Alcotest.(check (float 0.0)) "nothing shed while paused" 0.0
    (counter engine "acqpd_shed_events_total");
  (* Read again: the stream resumes. *)
  let paused = epoch engine in
  let steps = ref 0 in
  while epoch engine < paused + 100 && !steps < 20_000 do
    Server.poll ~timeout_ms:0 server;
    cli_pump c;
    incr steps
  done;
  Alcotest.(check bool) "stream resumed once the client read" true
    (epoch engine >= paused + 100);
  (* Unsubscribe everything; once every reply is read, no event is in
     flight and the client has read every event the engine produced. *)
  List.iter (fun id -> cli_send c (Printf.sprintf "UNSUBSCRIBE %d" id)) ids;
  let replies = 1 + (2 * List.length ids) in
  let steps = ref 0 in
  while count_frames c is_reply < replies && !steps < 20_000 do
    Server.poll ~timeout_ms:0 server;
    cli_pump c;
    incr steps
  done;
  Alcotest.(check int) "every request answered" replies
    (count_frames c is_reply);
  Alcotest.(check int) "no OVERLOAD" 0 (count_frames c is_overload);
  Alcotest.(check (float 0.0)) "nothing shed" 0.0
    (counter engine "acqpd_shed_events_total");
  Alcotest.(check (float 0.0)) "every event delivered"
    (counter engine "acqpd_events_total")
    (float_of_int (count_frames c is_event))

(* A server clock the test moves by hand, so what counts as still
   reading and how long the stream may pause for a reader that is
   behind do not depend on how fast the test runs. *)
let manual_clock () =
  let now = ref 0.0 in
  ((fun () -> !now), fun dt -> now := !now +. dt)

(* Beside a subscriber that keeps reading, the stream keeps advancing
   and a silent one is shed with notice, still connected. Each poll
   takes 1 ms on the server's clock, so the silent one counts as not
   reading 10 polls after its last write made progress. *)
let test_server_silent_beside_reader_shed () =
  let clock, advance = manual_clock () in
  with_server ~clock "acqpd_test_pair.sock" @@ fun path engine server ->
  let silent = cli_connect path and reader = cli_connect path in
  Fun.protect
    ~finally:(fun () ->
      cli_close silent;
      cli_close reader)
  @@ fun () ->
  ignore (subscribe_chatty server silent ~tenant:"t0" 50 : int list);
  ignore (subscribe_chatty server reader ~tenant:"t1" 1 : int list);
  let poll () =
    Server.poll ~timeout_ms:0 server;
    advance 0.001
  in
  let steps = ref 0 in
  while counter engine "acqpd_shed_events_total" = 0.0 && !steps < 20_000 do
    poll ();
    cli_pump reader;
    incr steps
  done;
  Alcotest.(check bool) "silent consumer shed" true
    (counter engine "acqpd_shed_events_total" > 0.0);
  let before = epoch engine in
  for _ = 1 to 100 do
    poll ();
    cli_pump reader
  done;
  Alcotest.(check bool) "stream still advancing" true (epoch engine > before);
  Alcotest.(check int) "both connections open" 2 (Server.connections server);
  (* The silent client finds the gap announced in its stream. *)
  let steps = ref 0 in
  while count_frames silent is_overload = 0 && !steps < 5_000 do
    poll ();
    cli_pump silent;
    cli_pump reader;
    incr steps
  done;
  Alcotest.(check bool) "OVERLOAD notice delivered in-stream" true
    (count_frames silent is_overload > 0)

(* ------------------------------------------------------------------ *)
(* Pinned wire bytes and METRICS dumps, co-driving Server.poll *)

(* Everything readable on [fd] now, appended to [buf]. *)
let read_raw fd buf =
  let chunk = Bytes.create 8192 in
  let continue = ref true in
  while !continue do
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> continue := false
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        if n < Bytes.length chunk then continue := false
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
  done

(* Frames a byte string decodes to; it must hold whole frames only. *)
let decode raw =
  let rd = Protocol.Reader.create () in
  Protocol.Reader.feed_string rd raw;
  let rec go acc =
    match Protocol.Reader.next_frame rd with
    | `Frame f -> go (f :: acc)
    | `More ->
        if Protocol.Reader.buffered rd > 0 then
          Alcotest.failf "%d bytes after the last whole frame"
            (Protocol.Reader.buffered rd);
        List.rev acc
    | `Bad msg -> Alcotest.failf "bad frame: %s" msg
  in
  go []

let wire_shared = chatty
let wire_two = "SELECT * WHERE humidity >= 40 AND temp <= 30"
let wire_three = "SELECT * WHERE humidity >= 40 AND temp <= 30 AND light <= 500"

(* Two connections, both connected and accepted before either speaks;
   then each sends its request lines, one poll answers them all (no
   tick: every subscriber's queue then holds its replies), and each
   client reads its replies. *)
let two_clients path server ~a_lines ~b_lines k =
  let a = cli_connect path and b = cli_connect path in
  Fun.protect
    ~finally:(fun () ->
      cli_close a;
      cli_close b)
  @@ fun () ->
  Server.poll ~timeout_ms:0 server;
  List.iter (cli_send a) a_lines;
  List.iter (cli_send b) b_lines;
  Server.poll ~timeout_ms:0 server;
  cli_pump a;
  cli_pump b;
  Alcotest.(check int) "a: one reply per request" (List.length a_lines)
    (count_frames a is_reply);
  Alcotest.(check int) "b: one reply per request" (List.length b_lines)
    (count_frames b is_reply);
  k a b

(* The EVENT bytes each connection reads over one poll (four ticks)
   after subscribing: connection a holds two subscribers of the shared
   one-cell shape and the only subscriber of a three-cell shape,
   connection b two of the shared shape and the only one of a two-cell
   shape. *)
let wire_events () =
  with_server "acqpd_test_wire.sock" @@ fun path _engine server ->
  let sub sql = "SUBSCRIBE algo=heuristic " ^ sql in
  two_clients path server
    ~a_lines:[ "HELLO t0"; sub wire_shared; sub wire_three; sub wire_shared ]
    ~b_lines:[ "HELLO t1"; sub wire_shared; sub wire_two; sub wire_shared ]
  @@ fun a b ->
  let raw_a = Buffer.create 4096 and raw_b = Buffer.create 4096 in
  Server.poll ~timeout_ms:0 server;
  read_raw a.cfd raw_a;
  read_raw b.cfd raw_b;
  (Buffer.contents raw_a, Buffer.contents raw_b)

(* [Metrics.to_prometheus] with the value of every time-valued series
   ([*_ms*]) masked: families, series and their order stay. *)
let mask_times prom =
  String.split_on_char '\n' prom
  |> List.map (fun l ->
         match String.rindex_opt l ' ' with
         | Some i when l.[0] <> '#' && timed_sample l -> String.sub l 0 i ^ " <t>"
         | _ -> l)
  |> String.concat "\n"

(* Two tenants' subscriptions, 200 ticks with events flowing, one RUN,
   then METRICS: the dump the second connection reads. *)
let metrics_after_ticks () =
  with_server "acqpd_test_metrics.sock" @@ fun path _engine server ->
  let sub sql = "SUBSCRIBE algo=heuristic " ^ sql in
  two_clients path server
    ~a_lines:[ "HELLO t0"; sub wire_shared; sub wire_three; sub wire_shared ]
    ~b_lines:[ "HELLO t1"; sub wire_two; sub wire_shared ]
  @@ fun a b ->
  for _ = 1 to 50 do
    Server.poll ~timeout_ms:0 server;
    cli_pump a;
    cli_pump b
  done;
  let ask c line =
    let before = count_frames c is_reply in
    cli_send c line;
    let polls = ref 0 in
    while count_frames c is_reply = before && !polls < 100 do
      Server.poll ~timeout_ms:0 server;
      cli_pump a;
      cli_pump b;
      incr polls
    done;
    match
      List.find_map (function Protocol.Reply p -> Some p | _ -> None) c.cframes
    with
    | Some p -> p
    | None -> Alcotest.failf "no reply to %s" line
  in
  ignore (ask a ("RUN " ^ wire_two) : string);
  mask_times (ask b "METRICS")

(* The frames of one poll (four ticks), recorded from the renderer
   that formatted every subscriber's payload with Printf and framed it
   with [Protocol.render]: the shared shape's four subscribers across
   two connections, and the one- to three-cell payloads. *)
let wire_a =
  {|EVENT 3 30
match cost=100.00 humidity=21
EVENT 4 45
match cost=300.00 humidity=21 temp=5 light=0
EVENT 5 30
match cost=100.00 humidity=21
EVENT 3 30
match cost=100.00 humidity=17
EVENT 4 45
match cost=300.00 humidity=17 temp=5 light=0
EVENT 5 30
match cost=100.00 humidity=17
EVENT 3 30
match cost=100.00 humidity=18
EVENT 4 45
match cost=300.00 humidity=18 temp=7 light=0
EVENT 5 30
match cost=100.00 humidity=18
EVENT 3 30
match cost=100.00 humidity=17
EVENT 4 45
match cost=300.00 humidity=17 temp=5 light=0
EVENT 5 30
match cost=100.00 humidity=17
|}

let wire_b =
  {|EVENT 0 30
match cost=100.00 humidity=21
EVENT 1 37
match cost=200.00 humidity=21 temp=5
EVENT 2 30
match cost=100.00 humidity=21
EVENT 0 30
match cost=100.00 humidity=17
EVENT 1 37
match cost=200.00 humidity=17 temp=5
EVENT 2 30
match cost=100.00 humidity=17
EVENT 0 30
match cost=100.00 humidity=18
EVENT 1 37
match cost=200.00 humidity=18 temp=7
EVENT 2 30
match cost=100.00 humidity=18
EVENT 0 30
match cost=100.00 humidity=17
EVENT 1 37
match cost=200.00 humidity=17 temp=5
EVENT 2 30
match cost=100.00 humidity=17
|}

let test_server_event_frames_pinned () =
  let raw_a, raw_b = wire_events () in
  Alcotest.(check string) "connection a's EVENT bytes" wire_a raw_a;
  Alcotest.(check string) "connection b's EVENT bytes" wire_b raw_b;
  let events raw =
    List.map
      (function
        | Protocol.Event (sub, p) -> (sub, p)
        | f -> Alcotest.failf "unexpected %s frame" (Protocol.frame_kind f))
      (decode raw)
  in
  let a = events raw_a and b = events raw_b in
  Alcotest.(check int) "a: three subscribers x four ticks" 12 (List.length a);
  Alcotest.(check int) "b: three subscribers x four ticks" 12 (List.length b);
  (* Per tick, the shared shape's four subscribers (a: 3 and 5, b: 0
     and 2) read one payload. *)
  for tick = 0 to 3 do
    let shared = snd (List.nth b (3 * tick)) in
    List.iter
      (fun (sub, p) ->
        Alcotest.(check string) (Printf.sprintf "tick %d, sub %d" tick sub) shared p)
      [ List.nth a (3 * tick); List.nth a ((3 * tick) + 2); List.nth b ((3 * tick) + 2) ]
  done

(* METRICS after ticks, a RUN and the lazily resolved event, tick and
   frame counters: the whole dump, in order, recorded when those
   counters were incremented by name at each event (time-valued series
   masked). *)
let pinned_metrics =
  [
    {|# TYPE acqp_mote_tx_bytes_total counter|};
    {|acqp_mote_tx_bytes_total{mote="8"} 68|};
    {|acqp_mote_tx_bytes_total{mote="9"} 68|};
    {|acqp_mote_tx_bytes_total{mote="10"} 68|};
    {|acqp_mote_tx_bytes_total{mote="11"} 68|};
    {|acqp_mote_tx_bytes_total{mote="0"} 68|};
    {|acqp_mote_tx_bytes_total{mote="1"} 68|};
    {|acqp_mote_tx_bytes_total{mote="2"} 68|};
    {|acqp_mote_tx_bytes_total{mote="3"} 68|};
    {|acqp_mote_tx_bytes_total{mote="4"} 64|};
    {|acqp_mote_tx_bytes_total{mote="5"} 64|};
    {|acqp_mote_tx_bytes_total{mote="6"} 64|};
    {|acqp_mote_tx_bytes_total{mote="7"} 64|};
    {|# TYPE acqp_mote_radio_energy_total counter|};
    {|acqp_mote_radio_energy_total{mote="8"} 81.6|};
    {|acqp_mote_radio_energy_total{mote="9"} 81.6|};
    {|acqp_mote_radio_energy_total{mote="10"} 81.6|};
    {|acqp_mote_radio_energy_total{mote="11"} 81.6|};
    {|acqp_mote_radio_energy_total{mote="0"} 20.4|};
    {|acqp_mote_radio_energy_total{mote="1"} 40.8|};
    {|acqp_mote_radio_energy_total{mote="2"} 40.8|};
    {|acqp_mote_radio_energy_total{mote="3"} 61.2|};
    {|acqp_mote_radio_energy_total{mote="4"} 57.6|};
    {|acqp_mote_radio_energy_total{mote="5"} 57.6|};
    {|acqp_mote_radio_energy_total{mote="6"} 57.6|};
    {|acqp_mote_radio_energy_total{mote="7"} 76.8|};
    {|# TYPE acqp_mote_acquisition_energy_total counter|};
    {|acqp_mote_acquisition_energy_total{mote="8"} 3400|};
    {|acqp_mote_acquisition_energy_total{mote="9"} 3400|};
    {|acqp_mote_acquisition_energy_total{mote="10"} 3400|};
    {|acqp_mote_acquisition_energy_total{mote="11"} 3400|};
    {|acqp_mote_acquisition_energy_total{mote="0"} 3400|};
    {|acqp_mote_acquisition_energy_total{mote="1"} 3400|};
    {|acqp_mote_acquisition_energy_total{mote="2"} 3400|};
    {|acqp_mote_acquisition_energy_total{mote="3"} 3400|};
    {|acqp_mote_acquisition_energy_total{mote="4"} 3200|};
    {|acqp_mote_acquisition_energy_total{mote="5"} 3200|};
    {|acqp_mote_acquisition_energy_total{mote="6"} 3200|};
    {|acqp_mote_acquisition_energy_total{mote="7"} 3200|};
    {|# TYPE acqp_runtime_matches_total counter|};
    {|acqp_runtime_matches_total 200|};
    {|# TYPE acqp_runtime_epochs_total counter|};
    {|acqp_runtime_epochs_total 200|};
    {|# TYPE acqp_runtime_plan_bytes gauge|};
    {|acqp_runtime_plan_bytes 4|};
    {|# TYPE acqp_adapt_drift gauge|};
    {|acqp_adapt_drift{algorithm="Heuristic"} 0.215277777778|};
    {|# TYPE acqpd_events_total counter|};
    {|acqpd_events_total{tenant="t1"} 408|};
    {|acqpd_events_total{tenant="t0"} 612|};
    {|# HELP acqp_executor_acquisitions_total sensor acquisitions the executor paid for|};
    {|# TYPE acqp_executor_acquisitions_total counter|};
    {|acqp_executor_acquisitions_total{attr="nodeid"} 0|};
    {|acqp_executor_acquisitions_total{attr="hour"} 0|};
    {|acqp_executor_acquisitions_total{attr="voltage"} 0|};
    {|acqp_executor_acquisitions_total{attr="light"} 204|};
    {|acqp_executor_acquisitions_total{attr="temp"} 608|};
    {|acqp_executor_acquisitions_total{attr="humidity"} 1220|};
    {|# HELP acqp_executor_traversal_depth plan tests traversed per tuple|};
    {|# TYPE acqp_executor_traversal_depth histogram|};
    {|acqp_executor_traversal_depth_bucket{le="1"} 1220|};
    {|acqp_executor_traversal_depth_bucket{le="2"} 1220|};
    {|acqp_executor_traversal_depth_bucket{le="4"} 1220|};
    {|acqp_executor_traversal_depth_bucket{le="8"} 1220|};
    {|acqp_executor_traversal_depth_bucket{le="16"} 1220|};
    {|acqp_executor_traversal_depth_bucket{le="32"} 1220|};
    {|acqp_executor_traversal_depth_bucket{le="64"} 1220|};
    {|acqp_executor_traversal_depth_bucket{le="128"} 1220|};
    {|acqp_executor_traversal_depth_bucket{le="+Inf"} 1220|};
    {|acqp_executor_traversal_depth_sum 0|};
    {|acqp_executor_traversal_depth_count 1220|};
    {|# HELP acqp_executor_tuples_total tuples executed|};
    {|# TYPE acqp_executor_tuples_total counter|};
    {|acqp_executor_tuples_total 1220|};
    {|# HELP acqp_executor_matches_total tuples satisfying the WHERE clause|};
    {|# TYPE acqp_executor_matches_total counter|};
    {|acqp_executor_matches_total 1220|};
    {|# TYPE acqpd_ticks_total counter|};
    {|acqpd_ticks_total 204|};
    {|# TYPE acqpd_bytes_out_total counter|};
    {|acqpd_bytes_out_total 47259|};
    {|# TYPE acqpd_sessions gauge|};
    {|acqpd_sessions{tenant="t1"} 2|};
    {|acqpd_sessions{tenant="t0"} 3|};
    {|# TYPE acqp_adapt_supervised_sessions gauge|};
    {|acqp_adapt_supervised_sessions 5|};
    {|# TYPE acqp_adapt_cache_hits_total counter|};
    {|acqp_adapt_cache_hits_total 5|};
    {|# TYPE acqp_adapt_cache_size gauge|};
    {|acqp_adapt_cache_size 2|};
    {|# TYPE acqp_par_portfolio_wins_total counter|};
    {|acqp_par_portfolio_wins_total{algorithm="Heuristic"} 4|};
    {|# TYPE acqp_par_portfolio_arm_ms histogram|};
    {|acqp_par_portfolio_arm_ms_bucket{algorithm="Heuristic",le="0.001"} <t>|};
    {|acqp_par_portfolio_arm_ms_bucket{algorithm="Heuristic",le="0.004"} <t>|};
    {|acqp_par_portfolio_arm_ms_bucket{algorithm="Heuristic",le="0.016"} <t>|};
    {|acqp_par_portfolio_arm_ms_bucket{algorithm="Heuristic",le="0.064"} <t>|};
    {|acqp_par_portfolio_arm_ms_bucket{algorithm="Heuristic",le="0.256"} <t>|};
    {|acqp_par_portfolio_arm_ms_bucket{algorithm="Heuristic",le="1.024"} <t>|};
    {|acqp_par_portfolio_arm_ms_bucket{algorithm="Heuristic",le="4.096"} <t>|};
    {|acqp_par_portfolio_arm_ms_bucket{algorithm="Heuristic",le="16.384"} <t>|};
    {|acqp_par_portfolio_arm_ms_bucket{algorithm="Heuristic",le="65.536"} <t>|};
    {|acqp_par_portfolio_arm_ms_bucket{algorithm="Heuristic",le="262.144"} <t>|};
    {|acqp_par_portfolio_arm_ms_bucket{algorithm="Heuristic",le="1048.58"} <t>|};
    {|acqp_par_portfolio_arm_ms_bucket{algorithm="Heuristic",le="4194.3"} <t>|};
    {|acqp_par_portfolio_arm_ms_bucket{algorithm="Heuristic",le="16777.2"} <t>|};
    {|acqp_par_portfolio_arm_ms_bucket{algorithm="Heuristic",le="67108.9"} <t>|};
    {|acqp_par_portfolio_arm_ms_bucket{algorithm="Heuristic",le="268435"} <t>|};
    {|acqp_par_portfolio_arm_ms_bucket{algorithm="Heuristic",le="1.07374e+06"} <t>|};
    {|acqp_par_portfolio_arm_ms_bucket{algorithm="Heuristic",le="4.29497e+06"} <t>|};
    {|acqp_par_portfolio_arm_ms_bucket{algorithm="Heuristic",le="1.71799e+07"} <t>|};
    {|acqp_par_portfolio_arm_ms_bucket{algorithm="Heuristic",le="6.87195e+07"} <t>|};
    {|acqp_par_portfolio_arm_ms_bucket{algorithm="Heuristic",le="2.74878e+08"} <t>|};
    {|acqp_par_portfolio_arm_ms_bucket{algorithm="Heuristic",le="+Inf"} <t>|};
    {|acqp_par_portfolio_arm_ms_sum{algorithm="Heuristic"} <t>|};
    {|acqp_par_portfolio_arm_ms_count{algorithm="Heuristic"} <t>|};
    {|# TYPE acqp_par_portfolio_arm_total counter|};
    {|acqp_par_portfolio_arm_total{algorithm="Heuristic",status="finished"} 4|};
    {|# TYPE acqp_par_portfolio_races_total counter|};
    {|acqp_par_portfolio_races_total 4|};
    {|# TYPE acqp_planner_plan_ms histogram|};
    {|acqp_planner_plan_ms_bucket{algorithm="Heuristic",le="0.001"} <t>|};
    {|acqp_planner_plan_ms_bucket{algorithm="Heuristic",le="0.004"} <t>|};
    {|acqp_planner_plan_ms_bucket{algorithm="Heuristic",le="0.016"} <t>|};
    {|acqp_planner_plan_ms_bucket{algorithm="Heuristic",le="0.064"} <t>|};
    {|acqp_planner_plan_ms_bucket{algorithm="Heuristic",le="0.256"} <t>|};
    {|acqp_planner_plan_ms_bucket{algorithm="Heuristic",le="1.024"} <t>|};
    {|acqp_planner_plan_ms_bucket{algorithm="Heuristic",le="4.096"} <t>|};
    {|acqp_planner_plan_ms_bucket{algorithm="Heuristic",le="16.384"} <t>|};
    {|acqp_planner_plan_ms_bucket{algorithm="Heuristic",le="65.536"} <t>|};
    {|acqp_planner_plan_ms_bucket{algorithm="Heuristic",le="262.144"} <t>|};
    {|acqp_planner_plan_ms_bucket{algorithm="Heuristic",le="1048.58"} <t>|};
    {|acqp_planner_plan_ms_bucket{algorithm="Heuristic",le="4194.3"} <t>|};
    {|acqp_planner_plan_ms_bucket{algorithm="Heuristic",le="16777.2"} <t>|};
    {|acqp_planner_plan_ms_bucket{algorithm="Heuristic",le="67108.9"} <t>|};
    {|acqp_planner_plan_ms_bucket{algorithm="Heuristic",le="268435"} <t>|};
    {|acqp_planner_plan_ms_bucket{algorithm="Heuristic",le="1.07374e+06"} <t>|};
    {|acqp_planner_plan_ms_bucket{algorithm="Heuristic",le="4.29497e+06"} <t>|};
    {|acqp_planner_plan_ms_bucket{algorithm="Heuristic",le="1.71799e+07"} <t>|};
    {|acqp_planner_plan_ms_bucket{algorithm="Heuristic",le="6.87195e+07"} <t>|};
    {|acqp_planner_plan_ms_bucket{algorithm="Heuristic",le="2.74878e+08"} <t>|};
    {|acqp_planner_plan_ms_bucket{algorithm="Heuristic",le="+Inf"} <t>|};
    {|acqp_planner_plan_ms_sum{algorithm="Heuristic"} <t>|};
    {|acqp_planner_plan_ms_count{algorithm="Heuristic"} <t>|};
    {|# TYPE acqp_planner_plan_bytes_total counter|};
    {|acqp_planner_plan_bytes_total{algorithm="Heuristic"} 19|};
    {|# TYPE acqp_planner_pruned_total counter|};
    {|acqp_planner_pruned_total{algorithm="Heuristic"} 0|};
    {|# TYPE acqp_planner_estimator_calls_total counter|};
    {|acqp_planner_estimator_calls_total{algorithm="Heuristic"} 904|};
    {|# TYPE acqp_planner_memo_hits_total counter|};
    {|acqp_planner_memo_hits_total{algorithm="Heuristic"} 0|};
    {|# TYPE acqp_planner_nodes_solved_total counter|};
    {|acqp_planner_nodes_solved_total{algorithm="Heuristic"} 1106|};
    {|# TYPE acqp_planner_plans_total counter|};
    {|acqp_planner_plans_total{algorithm="Heuristic"} 5|};
    {|# TYPE acqpd_requests_total counter|};
    {|acqpd_requests_total{tenant="t1",verb="subscribe"} 2|};
    {|acqpd_requests_total{tenant="t0",verb="subscribe"} 3|};
    {|acqpd_requests_total{tenant="t0",verb="run"} 1|};
    {|# TYPE acqpd_frames_total counter|};
    {|acqpd_frames_total{kind="ok"} 8|};
    {|acqpd_frames_total{kind="event"} 1020|};
    {|# TYPE acqpd_tenant_quota_nodes gauge|};
    {|acqpd_tenant_quota_nodes{tenant="t1"} 1999669|};
    {|acqpd_tenant_quota_nodes{tenant="t0"} 1999225|};
    {|# TYPE acqpd_connections gauge|};
    {|acqpd_connections 2|};
    {|# TYPE acqpd_connections_total counter|};
    {|acqpd_connections_total 2|};
    {||};
  ]

let test_server_metrics_pinned () =
  Alcotest.(check (list string))
    "METRICS, times masked" pinned_metrics
    (String.split_on_char '\n' (metrics_after_ticks ()))

(* A subscriber that reads but falls behind the stream for a moment,
   beside one that keeps up: the stream waits for it instead of
   shedding its events. It skips reading for 150 polls of 0.05 ms on
   the server's clock, inside the 10 ms that still count as reading and
   the 50 ms pacing burst. Once its kernel buffer (about 200 KiB by
   default) is full, those polls skip their tick batch; without
   pacing, 150 batches of 50 chatty subscriptions pass the 256 KiB
   soft limit. In the end it has read every event the engine produced
   for it. *)
let test_server_slow_reader_paces () =
  let clock, advance = manual_clock () in
  with_server ~clock "acqpd_test_pace.sock" @@ fun path engine server ->
  let slow = cli_connect path and reader = cli_connect path in
  Fun.protect
    ~finally:(fun () ->
      cli_close slow;
      cli_close reader)
  @@ fun () ->
  ignore (subscribe_chatty server slow ~tenant:"t0" 50 : int list);
  ignore (subscribe_chatty server reader ~tenant:"t1" 1 : int list);
  let poll ~slow_reads =
    Server.poll ~timeout_ms:0 server;
    advance 0.00005;
    cli_pump reader;
    if slow_reads then cli_pump slow
  in
  for _ = 1 to 200 do
    poll ~slow_reads:true
  done;
  for _ = 1 to 150 do
    poll ~slow_reads:false
  done;
  for _ = 1 to 200 do
    poll ~slow_reads:true
  done;
  Alcotest.(check bool) "the stream advanced" true (epoch engine >= 1_000);
  let events_t0 () =
    String.split_on_char '\n' (Engine.prometheus engine)
    |> List.find_map (fun l ->
           match String.split_on_char ' ' l with
           | [ {|acqpd_events_total{tenant="t0"}|}; v ] -> Some (float_of_string v)
           | _ -> None)
    |> Option.value ~default:0.0
  in
  (* Catch up: once both have read what each poll flushed, nothing is
     in flight. *)
  let steps = ref 0 in
  while
    float_of_int (count_frames slow is_event) < events_t0 () && !steps < 5_000
  do
    poll ~slow_reads:true;
    incr steps
  done;
  Alcotest.(check (float 0.0)) "nothing shed" 0.0
    (counter engine "acqpd_shed_events_total");
  Alcotest.(check int) "no OVERLOAD" 0 (count_frames slow is_overload);
  Alcotest.(check (float 0.0)) "every event delivered" (events_t0 ())
    (float_of_int (count_frames slow is_event))

(* A subscriber that keeps reading but never keeps up cannot hold the
   stream back: it reads at most 4 KiB a poll, well under what its 50
   chatty subscriptions produce, yet the stream pauses for readers that
   are behind at most a tenth as long as it advances, plus the 50 ms
   burst. With 0.1 ms polls that is at most 500 + A/10 paused polls
   (one more for the last pause's overshoot), so the subscriber that
   keeps up sees a tick batch on at least 10/11 of the rest (one poll
   of slack for rounding), and the slow one is shed instead, still
   connected. *)
let test_server_pacing_bounded () =
  let clock, advance = manual_clock () in
  let step = 0.0001 and polls = 3_000 in
  with_server ~clock "acqpd_test_pace_floor.sock" @@ fun path engine server ->
  let slow = cli_connect path and reader = cli_connect path in
  Fun.protect
    ~finally:(fun () ->
      cli_close slow;
      cli_close reader)
  @@ fun () ->
  ignore (subscribe_chatty server slow ~tenant:"t0" 50 : int list);
  ignore (subscribe_chatty server reader ~tenant:"t1" 1 : int list);
  let chunk = Bytes.create 4096 in
  let trickle () =
    try ignore (Unix.read slow.cfd chunk 0 (Bytes.length chunk) : int)
    with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  let advanced = ref 0 in
  for _ = 1 to polls do
    let before = epoch engine in
    Server.poll ~timeout_ms:0 server;
    advance step;
    if epoch engine > before then incr advanced;
    cli_pump reader;
    trickle ()
  done;
  let floor =
    (float_of_int polls -. (0.05 /. step) -. 2.0) *. 10.0 /. 11.0
  in
  if float_of_int !advanced < floor then
    Alcotest.failf "the stream advanced on %d of %d polls, under %.0f"
      !advanced polls floor;
  Alcotest.(check bool) "the slow reader was shed" true
    (counter engine "acqpd_shed_events_total" > 0.0);
  Alcotest.(check int) "both connections open" 2 (Server.connections server)

(* The headline scenario: >= 1000 concurrent continuous sessions from
   one load generator, malformed clients sprinkled in, then a graceful
   drain that BYEs everyone. *)
let test_server_thousand_sessions_and_drain () =
  let limits =
    { Limits.default with Limits.max_sessions_per_tenant = 1_100 }
  in
  with_server ~limits "acqpd_test_scale.sock" @@ fun path engine server ->
  let config =
    {
      Loadgen.connections = 50;
      subscriptions_per_conn = 21;
      pings_per_conn = 2;
      runs_per_conn = 0;
      tenants = 5;
      malformed = 3;
      slow = 0;
      (* Park every client in its event-soak phase so all 1050
         sessions are provably concurrent; the drain releases them. *)
      events_target = max_int;
      sql = "algo=heuristic " ^ chatty;
    }
  in
  let gen = Loadgen.create ~config (connect_unix path) in
  Fun.protect ~finally:(fun () -> Loadgen.close_all gen) @@ fun () ->
  let max_live = ref 0 in
  let steps = ref 0 in
  let target = config.Loadgen.connections * config.Loadgen.subscriptions_per_conn in
  while !max_live < target && !steps < 20_000 do
    Server.poll ~timeout_ms:0 server;
    ignore (Loadgen.step ~timeout_ms:1 gen : bool);
    max_live := max !max_live (Engine.live_subscriptions engine);
    incr steps
  done;
  Alcotest.(check bool)
    (Printf.sprintf "concurrent sessions (saw %d)" !max_live)
    true
    (!max_live >= 1_000);
  (* Let event traffic flow to the parked clients before draining. *)
  let report = Loadgen.report gen in
  Alcotest.(check bool) "events delivered" true (report.Loadgen.events > 0);
  (* Graceful drain: every client gets a BYE and finishes cleanly. *)
  Server.request_shutdown server;
  let steps = ref 0 in
  while
    (not (Server.finished server && Loadgen.finished gen)) && !steps < 20_000
  do
    Server.poll ~timeout_ms:0 server;
    Server.drain_step ~grace_s:2.0 server;
    ignore (Loadgen.step ~timeout_ms:1 gen : bool);
    incr steps
  done;
  Alcotest.(check bool) "server drained" true (Server.finished server);
  Alcotest.(check bool) "all clients done" true (Loadgen.finished gen);
  let report = Loadgen.report gen in
  (* 3 malformed clients x 4 garbage lines, each a structured ERR —
     and nothing else fails. *)
  Alcotest.(check int) "structured errors from garbage" 12
    report.Loadgen.errors;
  Alcotest.(check int) "no client dropped mid-script" 0
    report.Loadgen.disconnects;
  let expected_ok =
    (* hello + subscribe acks + pings per connection *)
    config.Loadgen.connections
    * (1 + config.Loadgen.subscriptions_per_conn + config.Loadgen.pings_per_conn)
  in
  Alcotest.(check int) "every request answered OK" expected_ok
    report.Loadgen.ok

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "parse basics" `Quick test_parse_basics;
          Alcotest.test_case "parse opts and raw sql" `Quick
            test_parse_opts_and_sql;
          Alcotest.test_case "parse errors are structured" `Quick
            test_parse_errors;
          Alcotest.test_case "frame roundtrip, byte-at-a-time" `Quick
            test_frame_roundtrip;
          Alcotest.test_case "reader lines" `Quick test_reader_lines;
        ] );
      ( "engine",
        [
          Alcotest.test_case "RUN byte-identity with one-shot CLI" `Quick
            test_engine_run_byte_identity;
          Alcotest.test_case "admission: caps, quotas, drain" `Quick
            test_engine_admission;
          Alcotest.test_case "subscribe, tick, unsubscribe" `Quick
            test_engine_subscribe_tick;
          Alcotest.test_case "counters pinned for a fixed script" `Quick
            test_engine_counters_pinned;
          Alcotest.test_case "EVENT payload renders as Printf" `Quick
            test_engine_render_event;
          QCheck_alcotest.to_alcotest prop_engine_sharing;
        ] );
      ( "server",
        [
          Alcotest.test_case "RUN byte-identity over the socket" `Quick
            test_server_run_identity_over_socket;
          Alcotest.test_case "malformed input never disconnects" `Quick
            test_server_malformed_never_disconnects;
          Alcotest.test_case "removed exec and dense options are 400s" `Quick
            test_server_removed_options;
          Alcotest.test_case "slow consumer sheds with OVERLOAD" `Quick
            test_server_slow_consumer_sheds;
          Alcotest.test_case "stalled lone subscriber pauses, loses nothing"
            `Quick test_server_stalled_subscriber_pauses;
          Alcotest.test_case "silent subscriber beside a reader is shed"
            `Quick test_server_silent_beside_reader_shed;
          Alcotest.test_case "slow reader beside a fast one paces" `Quick
            test_server_slow_reader_paces;
          Alcotest.test_case "pacing keeps 10/11 of the stream" `Quick
            test_server_pacing_bounded;
          Alcotest.test_case "EVENT frames pinned on the wire" `Quick
            test_server_event_frames_pinned;
          Alcotest.test_case "METRICS pinned after ticks and a RUN" `Quick
            test_server_metrics_pinned;
          Alcotest.test_case "1000+ sessions, then graceful drain" `Slow
            test_server_thousand_sessions_and_drain;
        ] );
    ]
