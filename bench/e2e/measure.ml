(* The socket phase: set the daemon up several times, drive one timed
   phase over its Unix socket, and check every response. *)

module G = Gen
module C = Client
module Pr = Acq_serve.Protocol
module D = Acq_data.Dataset
module Q = Acq_plan.Query
module Pred = Acq_plan.Predicate
module Engine = Acq_serve.Engine

let ping_rate = 100.0
let warmup_ticks = 1000

(* The acquisition-cost metric averages a fixed prefix of RUN/PLAN
   replies, so it depends on the seed and on nothing else. *)
let cost_prefix = function
  | G.Run_lab -> 60
  | G.Plan_synthetic -> 20
  | G.Mixed_chatty | G.Tick_selective -> 0

type ctx = {
  g : G.t;
  history : D.t;
  live : D.t;
  exe : string;  (** the acqpd binary *)
  socket : string;
}

type result = {
  setup_s : float array;
  fg : float array;
      (** latencies of the workload's measured request, ms: RUN, PLAN,
          or (on the tick workloads) open-loop PING from its due time *)
  fg_verb : string;
  runs : float array;  (** mixed-chatty's paced RUN latencies, ms *)
  subscribes : float array;  (** SUBSCRIBE latencies during set-up, ms *)
  late : float array;  (** how late each open-loop request was sent, ms *)
  throughput : float;
  throughput_what : string;
  acq_cost : float;
  rss_mb : float;
  attempted : int;
  failed : int;
  shed : int;
  events : int;
  ticks_per_s : float;
  cpu_frac : float;
  transport : float array;  (** socket minus in-process latency, ms *)
  mismatches : string list;
}

(* ------------------------------------------------------------------ *)
(* Response checks *)

type st = {
  ctx : ctx;
  mutable attempted : int;
  mutable errors : int;
  mutable mismatches : string list;
  subs : (int, Q.t) Hashtbl.t;  (** live daemon's subscription id -> query *)
  mutable events : int;
  mutable window_events : int;
  mutable in_window : bool;
  acks : (string * string, string) Hashtbl.t;
      (** (tenant, SUBSCRIBE line) -> ack payload without its id *)
  runs : (string, string) Hashtbl.t;  (** RUN line -> payload *)
  plans : (int, int * string * string) Hashtbl.t;
      (** stream index -> segment, PLAN line, payload *)
  costs : (int, float) Hashtbl.t;  (** stream index -> cost *)
  mutable next : int;  (** next RUN/PLAN stream index *)
  mutable segment : int;
  mutable fresh : bool;  (** no HELLO sent on this daemon's RUN/PLAN connection yet *)
}

let bad st fmt =
  Printf.ksprintf
    (fun m -> if List.length st.mismatches < 20 then st.mismatches <- m :: st.mismatches)
    fmt

let compile st sql =
  match Acq_sql.Catalog.compile_result (D.schema st.ctx.history) sql with
  | Ok c -> c.Acq_sql.Catalog.query
  | Error e -> failwith ("generated SQL does not compile: " ^ e)

let sql_of_line line =
  match Pr.parse_request line with
  | Ok (Pr.Run (o, s) | Pr.Plan (o, s) | Pr.Subscribe (o, s)) -> (o, s)
  | _ -> failwith ("not a query request: " ^ line)

(* The payload of an OK frame; ERR frames count as failed requests. *)
let ok st what = function
  | Pr.Reply p -> Some p
  | Pr.Failure (code, msg) ->
      st.errors <- st.errors + 1;
      bad st "%s: ERR %d %s" what code (String.trim msg);
      None
  | f ->
      bad st "%s: unexpected %s frame" what (Pr.frame_kind f);
      None

let expect st what want frame =
  match ok st what frame with
  | Some p when p <> want -> bad st "%s: got %S, want %S" what p want
  | _ -> ()

let field_after ~prefix payload =
  List.find_map
    (fun l ->
      if String.starts_with ~prefix l then
        float_of_string_opt
          (String.trim (String.sub l (String.length prefix) (String.length l - String.length prefix)))
      else None)
    (String.split_on_char '\n' payload)

(* An EVENT is a true match when every predicate holds: on the value
   acquired for its attribute, or on the attribute's whole domain when
   the plan had no need to acquire it. *)
let true_match schema q payload =
  match String.split_on_char ' ' (String.trim payload) with
  | "match" :: cost :: cells when String.starts_with ~prefix:"cost=" cost ->
      let value name =
        List.find_map
          (fun cell ->
            match String.index_opt cell '=' with
            | Some i when String.sub cell 0 i = name ->
                int_of_string_opt (String.sub cell (i + 1) (String.length cell - i - 1))
            | _ -> None)
          cells
      in
      Array.for_all
        (fun (p : Pred.t) ->
          let a = Acq_data.Schema.attr schema p.Pred.attr in
          match value a.Acq_data.Attribute.name with
          | Some v -> Pred.eval p v
          | None ->
              Pred.truth_under p (Acq_plan.Range.full a.Acq_data.Attribute.domain)
              = Pred.True)
        (Q.predicates q)
  | _ -> false

let on_event st sub payload =
  st.attempted <- st.attempted + 1;
  st.events <- st.events + 1;
  if st.in_window then st.window_events <- st.window_events + 1;
  match Hashtbl.find_opt st.subs sub with
  | None -> bad st "EVENT for unknown subscription %d" sub
  | Some q ->
      if not (true_match (D.schema st.ctx.history) q payload) then
        bad st "EVENT %d is not a match: %s" sub (String.trim payload)

let send st ?due c line k =
  st.attempted <- st.attempted + 1;
  C.send ?due c line k

let call st cl c line =
  st.attempted <- st.attempted + 1;
  C.call cl c line

(* ------------------------------------------------------------------ *)
(* Set-up *)

let hello st cl (c : C.conn) tenant =
  let f, _ = call st cl c ("HELLO " ^ tenant) in
  expect st "HELLO"
    (Printf.sprintf "hello %s dataset=%s\n" tenant
       (Acq_serve.Source.spec_to_string (G.spec st.ctx.g.G.workload)))
    f

(* "subscribed <id> <rest>" -> (id, rest) *)
let split_ack payload =
  Scanf.sscanf_opt payload "subscribed %d %[^\000]" (fun id rest -> (id, rest))

(* Both connections subscribe concurrently, each in a closed loop. *)
let subscribe_all st cl ~lat =
  let g = st.ctx.g in
  Array.iteri (fun i c -> hello st cl c g.G.tenants.(i)) cl.C.conns;
  let next = Array.make 2 0 in
  let rec issue i =
    let lines = g.G.subscribe.(i) in
    if next.(i) < Array.length lines then begin
      let line = lines.(next.(i)) in
      next.(i) <- next.(i) + 1;
      send st cl.C.conns.(i) line (fun f ~sent ~due:_ ~at ->
          lat := ((at -. sent) *. 1000.0) :: !lat;
          (match ok st "SUBSCRIBE" f with
          | None -> ()
          | Some p -> (
              match split_ack p with
              | None -> bad st "SUBSCRIBE: bad ack %S" p
              | Some (id, rest) ->
                  Hashtbl.replace st.subs id (compile st (snd (sql_of_line line)));
                  Hashtbl.replace st.acks (g.G.tenants.(i), line) rest));
          issue i)
    end
  in
  issue 0;
  issue 1;
  if not (C.wait_until cl (fun () -> C.outstanding cl = 0)) then
    failwith "SUBSCRIBE acks did not arrive"

(* Spawn, wait for the first PING reply, and on tick workloads
   subscribe everything: that whole span is one set-up. *)
let setup st ~sub_lat =
  Hashtbl.reset st.subs;
  let d = C.spawn ~exe:st.ctx.exe (G.spec st.ctx.g.G.workload) ~socket:st.ctx.socket in
  let cl = C.connect d ~conns:(G.connections st.ctx.g.G.workload) ~timeout:60.0 in
  cl.C.on_event <- on_event st;
  let f, _ = call st cl cl.C.conns.(0) "PING" in
  expect st "PING" "pong\n" f;
  if G.ticking st.ctx.g.G.workload then subscribe_all st cl ~lat:sub_lat;
  (d, cl, C.now () -. d.C.spawned)

(* ------------------------------------------------------------------ *)
(* The timed phase *)

let stats_epoch st cl =
  let f, _ = call st cl cl.C.conns.(0) "STATS" in
  match ok st "STATS" f with
  | None -> 0
  | Some p -> (
      match
        List.find_map
          (fun w ->
            match String.split_on_char '=' w with
            | [ "supervisor_epoch"; n ] -> int_of_string_opt n
            | _ -> None)
          (String.split_on_char ' ' (List.nth (String.split_on_char '\n' p) 1))
      with
      | Some e -> e
      | None ->
          bad st "STATS: no supervisor_epoch in %S" p;
          0)

let shed_events st cl =
  let f, _ = call st cl cl.C.conns.(0) "METRICS" in
  match ok st "METRICS" f with
  | None -> 0
  | Some p ->
      List.fold_left
        (fun acc l ->
          match String.split_on_char ' ' l with
          | [ "acqpd_shed_events_total"; v ] -> acc + int_of_float (float_of_string v)
          | _ -> acc)
        0
        (String.split_on_char '\n' p)

(* Record a foreground reply: its cost for the prefix metric, and the
   payload for the post-run identity checks. *)
let record_fg st i line frame =
  match ok st (String.sub line 0 (String.index line ' ')) frame with
  | None -> ()
  | Some p ->
      let cost =
        if String.starts_with ~prefix:"RUN " line then begin
          Hashtbl.replace st.runs line p;
          field_after ~prefix:"avg acquisition cost/epoch:" p
        end
        else begin
          Hashtbl.replace st.plans i (st.segment, line, p);
          field_after ~prefix:"expected cost:" p
        end
      in
      match cost with
      | Some c -> Hashtbl.replace st.costs i c
      | None -> bad st "no cost in reply to %s" line

(* RUN/PLAN request [i] on [c], HELLOing first on a new daemon and
   into a fresh tenant every [G.tenant_every] requests. [k] gets the
   latency in ms (from [due] when given, else from sending) and the
   arrival time. *)
let send_fg st ?due c i k =
  let g = st.ctx.g in
  if st.fresh || i mod G.tenant_every = 0 then begin
    st.fresh <- false;
    st.attempted <- st.attempted + 1;
    let tenant = G.tenant_for g i in
    C.send c ("HELLO " ^ tenant) (fun f ~sent:_ ~due:_ ~at:_ ->
        expect st "HELLO"
          (Printf.sprintf "hello %s dataset=%s\n" tenant
             (Acq_serve.Source.spec_to_string (G.spec g.G.workload)))
          f)
  end;
  let line = G.request g i in
  send st ?due c line (fun f ~sent:_ ~due ~at ->
      record_fg st i line f;
      k ((at -. due) *. 1000.0) at)

let run_warmup st cl c =
  for _ = 1 to G.warmup st.ctx.g.G.workload do
    let fin = ref false in
    send_fg st c st.next (fun _ _ -> fin := true);
    st.next <- st.next + 1;
    if not (C.wait_until cl (fun () -> !fin)) then failwith "warm-up stalled"
  done

type timed = {
  fg_lat : float list;
  fg_done : int;
  busy_s : float;  (** from the start to the last RUN/PLAN reply *)
  ping_lat : float list;
  late : float list;
  span_s : float;
  cpu : float;
}

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* RUN/PLAN requests on [fg] (if any) in the workload's loop, and
   open-loop PINGs at [ping_rate] on [ping] (if any), for [seconds]; a
   closed loop also runs until [min_fg] replies arrived. *)
let timed st cl ~seconds ~fg ~ping ~min_fg =
  let fg_lat = ref [] and ping_lat = ref [] and late = ref [] in
  let busy = ref false and fg_done = ref 0 in
  let cpu0 = cpu_now () in
  let start = C.now () in
  let last_done = ref start in
  let stop_at = start +. seconds in
  let next_ping = ref start and next_fg = ref start in
  let rate = G.foreground_rate st.ctx.g.G.workload in
  st.in_window <- true;
  let finished () = C.now () >= stop_at && (rate <> None || !fg_done >= min_fg) in
  let issue ?due c =
    let i = st.next in
    st.next <- i + 1;
    send_fg st ?due c i (fun ms at ->
        busy := false;
        incr fg_done;
        last_done := at;
        fg_lat := ms :: !fg_lat)
  in
  let open_loop next rate send =
    let t = C.now () in
    while !next <= t && !next < stop_at do
      late := ((C.now () -. !next) *. 1000.0) :: !late;
      send !next;
      next := !next +. (1.0 /. rate)
    done
  in
  while not (finished ()) do
    (match (fg, rate) with
    | Some c, None when not !busy ->
        busy := true;
        issue c
    | Some c, Some r -> open_loop next_fg r (fun due -> issue ~due c)
    | _ -> ());
    Option.iter
      (fun c ->
        open_loop next_ping ping_rate (fun due ->
            send st ~due c "PING" (fun f ~sent:_ ~due ~at ->
                expect st "PING" "pong\n" f;
                ping_lat := ((at -. due) *. 1000.0) :: !ping_lat)))
      ping;
    let t = C.now () in
    let wake =
      if t >= stop_at then t +. 0.05
      else
        List.fold_left Float.min stop_at
          ((if ping <> None then [ !next_ping ] else [])
          @ if rate <> None then [ !next_fg ] else [])
    in
    C.poll cl ~timeout:(wake -. t)
  done;
  let stop = C.now () in
  st.in_window <- false;
  let cpu = cpu_now () -. cpu0 in
  if not (C.wait_until cl ~timeout:60.0 (fun () -> C.outstanding cl = 0)) then begin
    st.errors <- st.errors + C.outstanding cl;
    bad st "%d requests unanswered" (C.outstanding cl)
  end;
  {
    fg_lat = !fg_lat;
    fg_done = !fg_done;
    busy_s = !last_done -. start;
    ping_lat = !ping_lat;
    late = !late;
    span_s = stop -. start;
    cpu;
  }

(* ------------------------------------------------------------------ *)
(* Post-run identity checks against in-process execution *)

let check_runs st =
  Hashtbl.iter
    (fun line payload ->
      let _, sql = sql_of_line line in
      let want, _ =
        Acq_serve.Oneshot.run_to_string ~exec:Acq_exec.Mode.Compiled
          ~algorithm:Acq_core.Planner.Heuristic ~history:st.ctx.history
          ~live:st.ctx.live (compile st sql)
      in
      if want <> payload then bad st "RUN reply differs from Oneshot.run_to_string: %s" line)
    st.runs

(* Each segment ran on a fresh daemon, so each replays on a fresh
   in-process Engine. *)
let check_plans st =
  let g = st.ctx.g in
  let by_segment = Hashtbl.create 4 in
  Hashtbl.iter
    (fun i (seg, line, payload) ->
      Hashtbl.replace by_segment seg
        ((i, line, payload) :: Option.value (Hashtbl.find_opt by_segment seg) ~default:[]))
    st.plans;
  Hashtbl.iter
    (fun _ plans ->
      let e = Engine.create (G.spec g.G.workload) in
      List.iter
        (fun (i, line, payload) ->
          let opts, sql = sql_of_line line in
          match Engine.plan e ~tenant:(G.tenant_for g i) opts sql with
          | Ok want when want = payload -> ()
          | Ok _ -> bad st "PLAN reply differs from in-process Engine.plan: %s" line
          | Error (code, msg) -> bad st "in-process PLAN failed (%d %s): %s" code msg line)
        (List.sort compare plans))
    by_segment

let check_acks st =
  let g = st.ctx.g in
  let e = Engine.create (G.spec g.G.workload) in
  Array.iteri
    (fun i lines ->
      let tenant = g.G.tenants.(i) in
      Array.iter
        (fun line ->
          let opts, sql = sql_of_line line in
          match Engine.subscribe e ~tenant ~owner:i opts sql with
          | Ok (_, want) -> (
              match (split_ack want, Hashtbl.find_opt st.acks (tenant, line)) with
              | Some (_, w), Some got when w = got -> ()
              | _ -> bad st "SUBSCRIBE ack differs from in-process Engine.subscribe: %s" line)
          | Error (code, msg) -> bad st "in-process SUBSCRIBE failed (%d %s)" code msg)
        lines)
    g.G.subscribe

(* ------------------------------------------------------------------ *)

(* Summed in sorted order, so the value is the same however the
   inputs were collected. *)
let mean xs =
  if xs = [] then 0.0
  else List.fold_left ( +. ) 0.0 (List.sort compare xs) /. float_of_int (List.length xs)

(* The timed phase is split over the last [segments] set-up daemons,
   so no single process's speed decides a run. *)
let segments = 3

let setups = function
  | G.Run_lab | G.Plan_synthetic -> 5
  | G.Tick_selective | G.Mixed_chatty -> segments

type acc = {
  mutable t : timed list;
  mutable ticks : int;
  mutable tick_s : float;
  mutable shed : int;
  mutable rss : float list;
  mutable transport : float list;
}

(* Socket and in-process latency of the same requests, taken one after
   the other on the live daemon so drift in the machine hits both
   sides: socket minus in-process, ms. *)
let pair_requests st cl c (lines, inproc) =
  List.mapi
    (fun i line ->
      let socket () =
        let f, ms = call st cl c line in
        ignore (ok st "paired request" f);
        ms
      in
      let local () =
        let t0 = C.now () in
        inproc line;
        (C.now () -. t0) *. 1000.0
      in
      if i mod 2 = 0 then
        let s = socket () in
        s -. local ()
      else
        let l = local () in
        socket () -. l)
    lines

let segment st acc d cl ~seconds ~last ~pair =
  let g = st.ctx.g in
  let ticking = G.ticking g.G.workload in
  let a = cl.C.conns.(0) in
  let fg, ping =
    match g.G.workload with
    | G.Run_lab | G.Plan_synthetic -> (Some a, None)
    | G.Tick_selective -> (None, Some a)
    | G.Mixed_chatty -> (Some cl.C.conns.(1), Some cl.C.conns.(1))
  in
  Option.iter (run_warmup st cl) fg;
  if ticking then
    while stats_epoch st cl < warmup_ticks do
      C.poll cl ~timeout:0.02
    done;
  let e0 = if ticking then stats_epoch st cl else 0 and t0 = C.now () in
  let done_before = List.fold_left (fun n t -> n + t.fg_done) 0 acc.t in
  let min_fg = if last then cost_prefix g.G.workload - done_before else 0 in
  let t = timed st cl ~seconds ~fg ~ping ~min_fg in
  if ticking then begin
    acc.ticks <- acc.ticks + (stats_epoch st cl - e0);
    acc.tick_s <- acc.tick_s +. (C.now () -. t0)
  end;
  acc.t <- t :: acc.t;
  (match (pair, fg, ping) with
  | Some p, Some c, _ | Some p, None, Some c when last -> acc.transport <- pair_requests st cl c p
  | _ -> ());
  acc.shed <- acc.shed + shed_events st cl;
  acc.rss <- C.peak_rss_mb d :: acc.rss

(* [pair]: request lines and an in-process runner for them; the last
   daemon then also measures [transport] (see [pair_requests]). *)
let run ?pair ctx ~seconds ~setups =
  let g = ctx.g in
  let st =
    {
      ctx;
      attempted = 0;
      errors = 0;
      mismatches = [];
      subs = Hashtbl.create 512;
      events = 0;
      window_events = 0;
      in_window = false;
      acks = Hashtbl.create 64;
      runs = Hashtbl.create 256;
      plans = Hashtbl.create 256;
      costs = Hashtbl.create 256;
      next = 0;
      segment = 0;
      fresh = true;
    }
  in
  let sub_lat = ref [] in
  let acc = { t = []; ticks = 0; tick_s = 0.0; shed = 0; rss = []; transport = [] } in
  let segs = min segments setups in
  let setup_s =
    Array.init setups (fun k ->
        let d, cl, s = setup st ~sub_lat in
        if k >= setups - segs then begin
          st.segment <- k;
          st.fresh <- true;
          segment st acc d cl ~seconds:(seconds /. float_of_int segs) ~last:(k = setups - 1) ~pair
        end;
        C.close cl;
        C.stop d;
        s)
  in
  (match g.G.workload with
  | G.Run_lab | G.Mixed_chatty -> check_runs st
  | G.Plan_synthetic -> check_plans st
  | G.Tick_selective -> ());
  if G.ticking g.G.workload then check_acks st;
  let ts = List.rev acc.t in
  let sum f = List.fold_left (fun x t -> x +. f t) 0.0 ts in
  let all f = List.concat_map f ts in
  let span = sum (fun t -> t.span_s) in
  let fg_verb, fg =
    match g.G.workload with
    | G.Run_lab -> ("RUN", all (fun t -> t.fg_lat))
    | G.Plan_synthetic -> ("PLAN", all (fun t -> t.fg_lat))
    | G.Tick_selective | G.Mixed_chatty -> ("PING", all (fun t -> t.ping_lat))
  in
  let ticks_per_s = if acc.tick_s > 0.0 then float_of_int acc.ticks /. acc.tick_s else 0.0 in
  let throughput, throughput_what =
    match g.G.workload with
    | G.Run_lab | G.Plan_synthetic ->
        (sum (fun t -> float_of_int t.fg_done) /. sum (fun t -> t.busy_s), fg_verb ^ "/s")
    | G.Tick_selective -> (ticks_per_s, "ticks/s")
    | G.Mixed_chatty -> (float_of_int st.window_events /. span, "events/s")
  in
  let acq_cost =
    match g.G.workload with
    | G.Tick_selective | G.Mixed_chatty ->
        mean
          (Hashtbl.fold
             (fun _ rest acc ->
               match Scanf.sscanf_opt rest "algorithm=%s est_cost=%f" (fun _ c -> c) with
               | Some c -> c :: acc
               | None -> acc)
             st.acks [])
    | w ->
        mean
          (List.init (cost_prefix w) (fun i ->
               match Hashtbl.find_opt st.costs i with
               | Some c -> c
               | None ->
                   bad st "no reply to request %d, which the cost metric averages" i;
                   0.0))
  in
  {
    setup_s;
    fg = Array.of_list fg;
    fg_verb;
    runs = Array.of_list (if g.G.workload = G.Mixed_chatty then all (fun t -> t.fg_lat) else []);
    subscribes = Array.of_list !sub_lat;
    late = Array.of_list (all (fun t -> t.late));
    throughput;
    throughput_what;
    acq_cost;
    rss_mb = Acq_util.Stats.median (Array.of_list acc.rss);
    attempted = st.attempted + acc.shed;
    failed = st.errors + acc.shed;
    shed = acc.shed;
    events = st.events;
    ticks_per_s;
    cpu_frac = sum (fun t -> t.cpu) /. span;
    transport = Array.of_list acc.transport;
    mismatches = List.rev st.mismatches;
  }
