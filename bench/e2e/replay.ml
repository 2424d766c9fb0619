(* The traced run: replay a prefix of the workload's request stream
   in-process through the public functions the daemon calls, in the
   daemon's order, each call wrapped in an Acq_obs span named after its
   layer. A tracer-carrying Telemetry is also handed to the libraries,
   so their own planner.plan / runtime.* / adapt.* spans nest below.

   The replay runs three times, once per telemetry flavor: no-op and a
   live registry (as the Engine passes it) advance in lock step,
   alternating which goes first, so drift in the machine does not bias
   their ratio; the traced copy runs afterwards, so the spans it keeps
   in memory do not slow the other two. *)

module G = Gen
module T = Acq_obs.Telemetry
module Pr = Acq_serve.Protocol
module P = Acq_core.Planner
module Pf = Acq_par.Portfolio
module D = Acq_data.Dataset
module Q = Acq_plan.Query
module Session = Acq_adapt.Session
module Supervisor = Acq_adapt.Supervisor
module Plan_cache = Acq_adapt.Plan_cache
module Limits = Acq_serve.Limits

(* Prefix sizes: enough requests for stable per-layer shares while a
   traced run stays well inside its time limit. *)
let requests = function
  | G.Run_lab -> 12
  | G.Plan_synthetic -> 10
  | G.Mixed_chatty -> G.run_shapes_mixed
  | G.Tick_selective -> 0

(* Ticks replayed after the subscriptions on tick-selective. *)
let final_ticks = function G.Tick_selective -> 1500 | _ -> 0

type stats = {
  mutable wall : float;  (** seconds inside replayed steps *)
  mutable race_ms : float;
  mutable losing_ms : float;
  mutable arms : int;
  mutable budget_arms : int;
  arm_ms : (string, float) Hashtbl.t;
  mutable subscribes : int;
  mutable memo_hits : int;
  mutable ticks : int;
  mutable events : int;
  mutable event_bytes : int;
}

type env = {
  history : D.t;
  live : D.t;
  tel : T.t;
  supervisor : Supervisor.t;
  caches : (string, Plan_cache.t) Hashtbl.t;
  races : (string, P.algorithm * P.result) Hashtbl.t;
  by_sup : (int, int * Q.t) Hashtbl.t;  (** supervisor id -> sub id, query *)
  mutable cursor : int;
  s : stats;
}

let make_env ~history ~live tel =
  {
    history;
    live;
    tel;
    supervisor =
      Supervisor.create_empty ~telemetry:tel
        ~planning_budget:Limits.default.Limits.replan_budget ();
    caches = Hashtbl.create 4;
    races = Hashtbl.create 64;
    by_sup = Hashtbl.create 512;
    cursor = 0;
    s =
      {
        wall = 0.0;
        race_ms = 0.0;
        losing_ms = 0.0;
        arms = 0;
        budget_arms = 0;
        arm_ms = Hashtbl.create 4;
        subscribes = 0;
        memo_hits = 0;
        ticks = 0;
        events = 0;
        event_bytes = 0;
      };
  }

let span env cat name f = T.span env.tel ~cat name f

(* Every planner call, whoever makes it (a RUN, a race arm, a session
   replan), adds to these counters of the env's registry: (calls,
   nodes solved, estimator calls). *)
let planner_totals env =
  match T.metrics env.tel with
  | None -> (0.0, 0.0, 0.0)
  | Some m ->
      let sum prefix =
        List.fold_left
          (fun acc (k, v) -> if String.starts_with ~prefix:(prefix ^ "{") k then acc +. v else acc)
          0.0 (Acq_obs.Metrics.snapshot m)
      in
      ( sum "acqp_planner_plans_total",
        sum "acqp_planner_nodes_solved_total",
        sum "acqp_planner_estimator_calls_total" )

(* The Engine's per-request options: the tenant quota caps the search
   budget; a replay never comes near it. *)
let options (o : Pr.opts) =
  let base = P.default_options in
  let base =
    match o.Pr.model with Some m -> { base with P.prob_model = m } | None -> base
  in
  { base with P.search_budget = Some Limits.default.Limits.plan_quota_per_tenant }

let algorithms (o : Pr.opts) =
  match o.Pr.planner with
  | Some (Pr.Fixed a) -> [ a ]
  | Some Pr.Portfolio | None -> Pf.default_algorithms

let race env options q algos =
  let outcome =
    span env "par" "par.race" (fun () ->
        Pf.race ~options ~telemetry:env.tel ~algorithms:algos q ~train:env.history)
  in
  let s = env.s in
  let winner = Option.map fst outcome.Pf.winner in
  List.iter
    (fun (arm : Pf.arm) ->
      s.arms <- s.arms + 1;
      s.race_ms <- s.race_ms +. arm.Pf.wall_ms;
      if Some arm.Pf.algorithm <> winner then s.losing_ms <- s.losing_ms +. arm.Pf.wall_ms;
      if arm.Pf.status = Pf.Budget then s.budget_arms <- s.budget_arms + 1;
      let name = P.algorithm_name arm.Pf.algorithm in
      Hashtbl.replace s.arm_ms name
        (arm.Pf.wall_ms +. Option.value (Hashtbl.find_opt s.arm_ms name) ~default:0.0))
    outcome.Pf.arms;
  outcome

let compile env sql =
  match
    span env "sql" "sql.compile" (fun () ->
        Acq_sql.Catalog.compile_result (D.schema env.history) sql)
  with
  | Ok c -> c.Acq_sql.Catalog.query
  | Error e -> failwith ("replay: " ^ e)

let render env frame = ignore (span env "serve" "serve.render" (fun () -> Pr.render frame))

let cache env tenant =
  match Hashtbl.find_opt env.caches tenant with
  | Some c -> c
  | None ->
      let c =
        Plan_cache.create ~telemetry:env.tel
          ~capacity:(max 4 (Limits.default.Limits.max_sessions_per_tenant / 4))
          ()
      in
      Hashtbl.replace env.caches tenant c;
      c

(* One request line, as Server.handle_request and the Engine run it. *)
let request env ~tenant line =
  span env "serve" "serve.request" @@ fun () ->
  match span env "serve" "serve.parse_request" (fun () -> Pr.parse_request line) with
  | Ok (Pr.Run (o, sql)) ->
      let q = compile env sql in
      let algorithm =
        match o.Pr.planner with Some (Pr.Fixed a) -> a | _ -> P.Heuristic
      in
      let text, _ =
        span env "serve" "serve.oneshot" (fun () ->
            Acq_serve.Oneshot.run_to_string ~options:(options o)
              ~exec:Acq_exec.Mode.Compiled ~telemetry:env.tel ~algorithm
              ~history:env.history ~live:env.live q)
      in
      render env (Pr.Reply text)
  | Ok (Pr.Plan (o, sql)) -> (
      let q = compile env sql in
      let outcome = race env (options o) q (algorithms o) in
      match outcome.Pf.winner with
      | Some (_, r) ->
          render env
            (Pr.Reply
               (Acq_plan.Printer.to_string q r.P.plan
               ^ Acq_plan.Printer.summary q r.P.plan))
      | None -> failwith "replay: no arm finished")
  | Ok (Pr.Subscribe (o, sql)) ->
      let q = compile env sql in
      let options = options o and algos = algorithms o in
      let key =
        String.concat "|"
          (Plan_cache.signature ~options ~stats_epoch:0 ~algorithm:(List.hd algos) q
          :: List.map P.algorithm_name algos)
        ^ "|" ^ tenant
      in
      env.s.subscribes <- env.s.subscribes + 1;
      let algorithm, r =
        match Hashtbl.find_opt env.races key with
        | Some w ->
            env.s.memo_hits <- env.s.memo_hits + 1;
            w
        | None -> (
            match (race env options q algos).Pf.winner with
            | Some w ->
                Hashtbl.replace env.races key w;
                w
            | None -> failwith "replay: no arm finished")
      in
      let cache = cache env tenant in
      Plan_cache.add cache (Plan_cache.signature ~options ~stats_epoch:0 ~algorithm q) r;
      let session =
        span env "adapt" "adapt.session_create" (fun () ->
            Session.create ~options ~telemetry:env.tel ~cache
              ~exec_mode:Acq_exec.Mode.Compiled ~algorithm ~window:512
              ~history:env.history q)
      in
      let sup_id = Supervisor.register env.supervisor session in
      let sub_id = Hashtbl.length env.by_sup in
      Hashtbl.replace env.by_sup sup_id (sub_id, q);
      render env
        (Pr.Reply
           (Printf.sprintf "subscribed %d algorithm=%s est_cost=%.2f query: %s\n" sub_id
              (P.algorithm_name algorithm) r.P.est_cost (Q.describe q)))
  | Ok Pr.Ping -> render env (Pr.Reply "pong\n")
  | Ok _ | Error _ -> failwith ("replay: unexpected request " ^ line)

(* One serving tick, as Engine.tick runs it; [on_event] sees each
   matching (sub id, tuple). *)
let tick ?(on_event = fun _ _ -> ()) env =
  span env "serve" "serve.tick" @@ fun () ->
  let row = D.row env.live env.cursor in
  env.cursor <- (env.cursor + 1) mod D.nrows env.live;
  let outcomes =
    span env "adapt" "adapt.supervisor_step" (fun () -> Supervisor.step env.supervisor row)
  in
  let names = Acq_data.Schema.names (D.schema env.live) in
  env.s.ticks <- env.s.ticks + 1;
  List.iteri
    (fun i sup_id ->
      let o = outcomes.(i) in
      if o.Acq_plan.Executor.verdict then begin
        let sub_id, _ = Hashtbl.find env.by_sup sup_id in
        on_event sub_id row;
        let frame =
          span env "serve" "serve.render" (fun () ->
              Pr.render
                (Pr.Event
                   ( sub_id,
                     Printf.sprintf "match cost=%.2f %s\n" o.Acq_plan.Executor.cost
                       (String.concat " "
                          (List.map
                             (fun at -> Printf.sprintf "%s=%d" names.(at) row.(at))
                             o.Acq_plan.Executor.acquired)) )))
        in
        env.s.events <- env.s.events + 1;
        env.s.event_bytes <- env.s.event_bytes + String.length frame
      end)
    (Supervisor.ids env.supervisor)

(* ------------------------------------------------------------------ *)
(* The step sequence *)

type step = Request of string * string (* tenant, line *) | Tick

let steps (g : G.t) ~fg_lines ~ticks_per_request =
  (* Subscriptions alternate between connections, as the two closed
     loops interleave them. *)
  let longest = Array.fold_left (fun n a -> max n (Array.length a)) 0 g.G.subscribe in
  let subs =
    List.concat
      (List.init longest (fun j ->
           List.concat
             (List.mapi
                (fun c lines ->
                  if j < Array.length lines then [ Request (g.G.tenants.(c), lines.(j)) ]
                  else [])
                (Array.to_list g.G.subscribe))))
  in
  let fg =
    List.concat_map
      (fun (i, line) ->
        Request (G.tenant_for g i, line) :: List.init ticks_per_request (fun _ -> Tick))
      fg_lines
  in
  subs @ fg @ List.init (final_ticks g.G.workload) (fun _ -> Tick)

let run_step env step =
  let t0 = Unix.gettimeofday () in
  (match step with Request (tenant, line) -> request env ~tenant line | Tick -> tick env);
  env.s.wall <- env.s.wall +. (Unix.gettimeofday () -. t0)

type flavors = { noop : env; registry : env; traced : env; tracer : Acq_obs.Tracer.t }

(* [ticks_per_request]: ticks between foreground requests, so the
   replay splits its time between requests and ticks as the daemon
   did. *)
let run g ~history ~live ~fg_lines ~ticks_per_request =
  let tracer = Acq_obs.Tracer.create () in
  let mk tel = make_env ~history ~live tel in
  let f =
    {
      noop = mk T.noop;
      registry = mk (T.create ~metrics:(Acq_obs.Metrics.create ()) ());
      traced = mk (T.create ~metrics:(Acq_obs.Metrics.create ()) ~tracer ());
      tracer;
    }
  in
  let steps = steps g ~fg_lines ~ticks_per_request in
  List.iteri
    (fun i step ->
      if i mod 2 = 0 then (run_step f.noop step; run_step f.registry step)
      else (run_step f.registry step; run_step f.noop step))
    steps;
  List.iter (run_step f.traced) steps;
  f

(* The requests [Measure] pairs socket against in-process latency on,
   and the in-process side: the workload's RUN or PLAN lines, or PINGs
   on tick-selective, run with a live registry as the Engine has. *)
let pairing g ~history ~live =
  let env = make_env ~history ~live (T.create ~metrics:(Acq_obs.Metrics.create ()) ()) in
  let lines =
    match g.G.workload with
    | G.Tick_selective -> List.init 50 (fun _ -> "PING")
    | w -> List.init (requests w) (G.request g)
  in
  (lines, fun line -> request env ~tenant:"paired" line)

(* One full cycle of the live trace on [env]: every subscription's
   event count must equal the number of live tuples its WHERE clause
   accepts. Returns the mismatches. *)
let full_cycle_gate env =
  let n = D.nrows env.live in
  let counts = Hashtbl.create 512 in
  for _ = 1 to n do
    tick env ~on_event:(fun sub _ ->
        Hashtbl.replace counts sub (1 + Option.value (Hashtbl.find_opt counts sub) ~default:0))
  done;
  let truth = Hashtbl.create 64 in
  Hashtbl.fold
    (fun _ (sub, q) bad ->
      let key = Q.describe q in
      let want =
        match Hashtbl.find_opt truth key with
        | Some w -> w
        | None ->
            let w = ref 0 in
            for i = 0 to n - 1 do
              if Q.eval q (D.row env.live i) then incr w
            done;
            Hashtbl.replace truth key !w;
            !w
      in
      let got = Option.value (Hashtbl.find_opt counts sub) ~default:0 in
      if got <> want then
        Printf.sprintf "subscription %d: %d events over one live cycle, Query.eval says %d"
          sub got want
        :: bad
      else bad)
    env.by_sup []

(* ------------------------------------------------------------------ *)
(* Attribution *)

module Span = Acq_obs.Span

(* Library spans are named after their module; map them to layers. *)
let layer_of name =
  let prefix = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name in
  match prefix with
  | "planner" -> "core"
  | "runtime" -> "sensor"
  | "executor" -> "exec"
  | p -> p

type row = { name : string; mutable calls : int; mutable self_us : float; mutable total_us : float }

type attribution = {
  rows : row list;  (** by self time, largest first *)
  root_us : float;  (** summed duration of the request and tick spans *)
  root_self_us : float;  (** the part no layer span below them covers *)
  durations : (string, float list) Hashtbl.t;  (** span name -> durations, us *)
}

(* A span's self time is its duration minus the durations of the spans
   one level below it. Spans nest by depth; sorting by (start, depth)
   puts every parent before its children. *)
let attribute tracer =
  let spans =
    Array.of_list
      (List.filter_map
         (function Span.Complete s -> Some s | Span.Instant _ | Span.Sample _ -> None)
         (Acq_obs.Tracer.items tracer))
  in
  Array.stable_sort
    (fun (a : Span.span) (b : Span.span) -> compare (a.start_us, a.depth) (b.start_us, b.depth))
    spans;
  let child = Array.make (Array.length spans) 0.0 in
  let stack = ref [] in
  Array.iteri
    (fun i (s : Span.span) ->
      let rec pop () =
        match !stack with
        | j :: rest when spans.(j).Span.depth >= s.Span.depth ->
            stack := rest;
            pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with j :: _ -> child.(j) <- child.(j) +. s.Span.dur_us | [] -> ());
      stack := i :: !stack)
    spans;
  let rows = Hashtbl.create 32 and durations = Hashtbl.create 32 in
  let root_us = ref 0.0 and root_self_us = ref 0.0 in
  Array.iteri
    (fun i (s : Span.span) ->
      let self = s.Span.dur_us -. child.(i) in
      let r =
        match Hashtbl.find_opt rows s.Span.name with
        | Some r -> r
        | None ->
            let r = { name = s.Span.name; calls = 0; self_us = 0.0; total_us = 0.0 } in
            Hashtbl.replace rows s.Span.name r;
            r
      in
      r.calls <- r.calls + 1;
      r.self_us <- r.self_us +. self;
      r.total_us <- r.total_us +. s.Span.dur_us;
      Hashtbl.replace durations s.Span.name
        (s.Span.dur_us :: Option.value (Hashtbl.find_opt durations s.Span.name) ~default:[]);
      if s.Span.depth = 0 then begin
        root_us := !root_us +. s.Span.dur_us;
        root_self_us := !root_self_us +. self
      end)
    spans;
  {
    rows =
      List.sort (fun a b -> compare b.self_us a.self_us) (Hashtbl.fold (fun _ r acc -> r :: acc) rows []);
    root_us = !root_us;
    root_self_us = !root_self_us;
    durations;
  }

let layers = [ "serve"; "sql"; "par"; "core"; "sensor"; "exec"; "adapt" ]

let layer_self_us a layer =
  List.fold_left (fun acc r -> if layer_of r.name = layer then acc +. r.self_us else acc) 0.0 a.rows
