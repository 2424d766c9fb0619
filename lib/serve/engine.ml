module D = Acq_data.Dataset
module P = Acq_core.Planner
module Pf = Acq_par.Portfolio
module Search = Acq_core.Search
module Session = Acq_adapt.Session
module Supervisor = Acq_adapt.Supervisor
module Plan_cache = Acq_adapt.Plan_cache
module T = Acq_obs.Telemetry
module Ex = Acq_plan.Executor

type tenant = {
  name : string;
  cache : Plan_cache.t;
  mutable nodes_left : int;  (** planning quota, in search nodes *)
  mutable live_subs : int;
  mutable requests : int;
  mutable rejected : int;
  races : (string, P.algorithm * P.result) Hashtbl.t;
      (** memoized portfolio winners, keyed by query signature — a
          thousand identical SUBSCRIBEs race the portfolio once *)
  events_c : Acq_obs.Metrics.counter Lazy.t;
      (** [acqpd_events_total{tenant}], resolved at the tenant's first
          event, where a by-name increment would first register it *)
}

type sub = {
  sub_id : int;
  sup_id : int;  (** id under the daemon-wide supervisor *)
  owner : int;  (** connection token, for disconnect cleanup *)
  tn : tenant;
  sql : string;
  mutable events : int;
}

type t = {
  spec : Source.spec;
  schema : Acq_data.Schema.t;
  history : D.t;
  live : D.t;
  limits : Limits.t;
  registry : Acq_obs.Metrics.t;
  telemetry : T.t;
  supervisor : Supervisor.t;
  tenants : (string, tenant) Hashtbl.t;
  subs : (int, sub) Hashtbl.t;
  by_sup : (int, sub) Hashtbl.t;  (** supervisor id -> sub, for tick routing *)
  owned : (int, int) Hashtbl.t;  (** connection -> live subscriptions it owns *)
  mutable next_sub : int;
  mutable cursor : int;  (** next live row the tick loop serves *)
  mutable draining : bool;
  mutable requests : int;
  started : float;
  ticks_c : Acq_obs.Metrics.counter Lazy.t;  (** [acqpd_ticks_total] *)
  render_buf : Buffer.t;  (** EVENT payloads are rendered here *)
}

let err code msg = Error (code, msg)

let create ?(limits = Limits.default) ?registry spec =
  let registry =
    match registry with Some r -> r | None -> Acq_obs.Metrics.create ()
  in
  let telemetry = T.create ~metrics:registry () in
  let history, live = Source.history_live spec in
  {
    spec;
    schema = D.schema history;
    history;
    live;
    limits;
    registry;
    telemetry;
    supervisor =
      Supervisor.create_empty ~telemetry ~planning_budget:limits.replan_budget
        ();
    tenants = Hashtbl.create 16;
    subs = Hashtbl.create 64;
    by_sup = Hashtbl.create 64;
    owned = Hashtbl.create 16;
    next_sub = 0;
    cursor = 0;
    draining = false;
    requests = 0;
    started = Unix.gettimeofday ();
    ticks_c = lazy (Acq_obs.Metrics.counter registry "acqpd_ticks_total");
    render_buf = Buffer.create 128;
  }

let telemetry t = t.telemetry
let registry t = t.registry
let draining t = t.draining
let live_subscriptions t = Hashtbl.length t.subs
let spec t = t.spec

let tenant t name =
  match Hashtbl.find_opt t.tenants name with
  | Some tn -> tn
  | None ->
      let capacity = max 4 (t.limits.Limits.max_sessions_per_tenant / 4) in
      let tn =
        {
          name;
          cache = Plan_cache.create ~telemetry:t.telemetry ~capacity ();
          nodes_left = t.limits.Limits.plan_quota_per_tenant;
          live_subs = 0;
          requests = 0;
          rejected = 0;
          races = Hashtbl.create 8;
          events_c =
            lazy
              (Acq_obs.Metrics.counter t.registry
                 ~labels:[ ("tenant", name) ]
                 "acqpd_events_total");
        }
      in
      Hashtbl.replace t.tenants name tn;
      T.set t.telemetry ~labels:[ ("tenant", name) ] "acqpd_tenant_quota_nodes"
        (float_of_int tn.nodes_left);
      tn

let tenants t =
  Hashtbl.fold (fun _ tn acc -> tn :: acc) t.tenants []
  |> List.sort (fun a b -> compare a.name b.name)

let count t (tn : tenant) verb =
  t.requests <- t.requests + 1;
  tn.requests <- tn.requests + 1;
  T.incr t.telemetry
    ~labels:[ ("tenant", tn.name); ("verb", verb) ]
    "acqpd_requests_total"

let reject t (tn : tenant) code =
  tn.rejected <- tn.rejected + 1;
  T.incr t.telemetry
    ~labels:[ ("tenant", tn.name); ("code", string_of_int code) ]
    "acqpd_errors_total"

let charge t (tn : tenant) nodes =
  tn.nodes_left <- tn.nodes_left - nodes;
  T.set t.telemetry ~labels:[ ("tenant", tn.name) ] "acqpd_tenant_quota_nodes"
    (float_of_int (max 0 tn.nodes_left))

(* Per-request planner options: the tenant's remaining quota caps the
   search budget, so one request can never spend more nodes than the
   tenant has left, and the model opt threads through. *)
let planner_options (tn : tenant) (o : Protocol.opts) =
  let base = P.default_options in
  let base =
    match o.Protocol.model with
    | Some m -> { base with P.prob_model = m }
    | None -> base
  in
  let cap =
    match base.P.search_budget with
    | Some b -> min b tn.nodes_left
    | None -> tn.nodes_left
  in
  { base with P.search_budget = Some cap }

let nodes_of_outcome (o : Pf.outcome) =
  List.fold_left
    (fun n (arm : Pf.arm) ->
      match arm.Pf.result with
      | Some r -> n + r.P.stats.Search.nodes_solved
      | None -> n)
    0 o.Pf.arms

(* Shared guards: drain refuses new work with 503; an exhausted
   planning quota refuses with 429 before any search runs. *)
let admit_request t (tn : tenant) =
  if t.draining then begin
    reject t tn 503;
    err 503 "draining: server is shutting down"
  end
  else if tn.nodes_left <= 0 then begin
    reject t tn 429;
    err 429
      (Printf.sprintf "planning quota exhausted for tenant %s (spent %d nodes)"
         tn.name
         (t.limits.Limits.plan_quota_per_tenant - tn.nodes_left))
  end
  else Ok ()

let compile t sql =
  match Acq_sql.Catalog.compile_result t.schema sql with
  | Ok c -> Ok c.Acq_sql.Catalog.query
  | Error msg -> err 422 msg

(* ------------------------------------------------------------------ *)
(* PLAN *)

let race t tn options query algorithms =
  let outcome =
    Pf.race ~options ~telemetry:t.telemetry ~algorithms query ~train:t.history
  in
  charge t tn (nodes_of_outcome outcome);
  outcome

let render_arms (o : Pf.outcome) =
  let tbl = Acq_util.Tbl.create [ "arm"; "status"; "est cost" ] in
  List.iter
    (fun (arm : Pf.arm) ->
      Acq_util.Tbl.add_row tbl
        [
          P.algorithm_name arm.Pf.algorithm;
          (match arm.Pf.status with
          | Pf.Failed msg -> "failed: " ^ msg
          | s -> Pf.status_name s);
          (match arm.Pf.result with
          | Some r -> Printf.sprintf "%.2f" r.P.est_cost
          | None -> "-");
        ])
    o.Pf.arms;
  Acq_util.Tbl.render tbl

let render_plan query (r : P.result) =
  Printf.sprintf "%s\n%s\nplan size (zeta): %d bytes\nexpected cost: %.2f\n"
    (Acq_plan.Printer.to_string query r.P.plan)
    (Acq_plan.Printer.summary query r.P.plan)
    (Acq_plan.Serialize.size r.P.plan)
    r.P.est_cost

let algorithms_of (o : Protocol.opts) =
  match o.Protocol.planner with
  | Some (Protocol.Fixed a) -> [ a ]
  | Some Protocol.Portfolio | None -> Pf.default_algorithms

let race_key options algorithms query =
  String.concat "|"
    (Plan_cache.signature ~options ~stats_epoch:0
       ~algorithm:(List.hd algorithms) query
    :: List.map P.algorithm_name algorithms)

(* Race the portfolio once per distinct (query, options, arms) shape;
   later identical requests reuse the winner without burning quota —
   planning a shape the tenant already paid for costs nothing. *)
let race_memo t (tn : tenant) options query algorithms =
  let key = race_key options algorithms query in
  match Hashtbl.find_opt tn.races key with
  | Some winner -> Ok winner
  | None -> (
      let outcome = race t tn options query algorithms in
      match outcome.Pf.winner with
      | None -> Error ()
      | Some winner ->
          Hashtbl.replace tn.races key winner;
          Ok winner)

let plan t ~tenant:name (opts : Protocol.opts) sql =
  let tn = tenant t name in
  count t tn "plan";
  match admit_request t tn with
  | Error _ as e -> e
  | Ok () -> (
      match compile t sql with
      | Error _ as e -> e
      | Ok query -> (
          let options = planner_options tn opts in
          let outcome = race t tn options query (algorithms_of opts) in
          match outcome.Pf.winner with
          | None ->
              reject t tn 429;
              err 429 "no planner arm finished within the granted budget"
          | Some (algo, r) ->
              Ok
                (Printf.sprintf "%swinner: %s\n\n%s" (render_arms outcome)
                   (P.algorithm_name algo) (render_plan query r))))

(* ------------------------------------------------------------------ *)
(* RUN: the one-shot path, byte-identical to [acqp run] because both
   call {!Oneshot.run_to_string} on the same (spec, query, options). *)

let run t ~tenant:name (opts : Protocol.opts) sql =
  let tn = tenant t name in
  count t tn "run";
  match admit_request t tn with
  | Error _ as e -> e
  | Ok () -> (
      match compile t sql with
      | Error _ as e -> e
      | Ok query -> (
          let options = planner_options tn opts in
          let algorithm =
            match opts.Protocol.planner with
            | Some (Protocol.Fixed a) -> a
            | Some Protocol.Portfolio | None ->
                (* CLI default: acqp run plans with the heuristic. *)
                P.Heuristic
          in
          match
            Oneshot.run_to_string ~options ~telemetry:t.telemetry ~algorithm
              ~history:t.history ~live:t.live query
          with
          | text, report ->
              charge t tn
                report.Acq_sensor.Runtime.plan_stats.Search.nodes_solved;
              Ok text
          | exception Search.Budget_exceeded ->
              reject t tn 429;
              err 429 "planning budget exhausted before a plan was found"
          | exception Search.Deadline_exceeded ->
              reject t tn 429;
              err 429 "planning deadline exceeded"))

(* ------------------------------------------------------------------ *)
(* SUBSCRIBE / UNSUBSCRIBE *)

let subscribe t ~tenant:name ~owner (opts : Protocol.opts) sql =
  let tn = tenant t name in
  count t tn "subscribe";
  match admit_request t tn with
  | Error _ as e -> e
  | Ok () ->
      if tn.live_subs >= t.limits.Limits.max_sessions_per_tenant then begin
        reject t tn 429;
        err 429
          (Printf.sprintf "tenant %s is at its session cap (%d)" tn.name
             t.limits.Limits.max_sessions_per_tenant)
      end
      else (
        match compile t sql with
        | Error _ as e -> e
        | Ok query -> (
            let options = planner_options tn opts in
            (* Pick the serving algorithm via the (memoized) portfolio
               race, then seed the tenant's plan cache with the winner
               so Session.create's own lookup hits instead of
               re-planning. *)
            match race_memo t tn options query (algorithms_of opts) with
            | Error () ->
                reject t tn 429;
                err 429 "no planner arm finished within the granted budget"
            | Ok (algorithm, r) ->
                let key =
                  Plan_cache.signature ~options ~stats_epoch:0 ~algorithm query
                in
                Plan_cache.add tn.cache key r;
                let session =
                  Session.create ~options ~telemetry:t.telemetry
                    ~cache:tn.cache ~algorithm
                    ~window:512 ~history:t.history query
                in
                let sup_id = Supervisor.register t.supervisor session in
                let sub_id = t.next_sub in
                t.next_sub <- sub_id + 1;
                let sub =
                  { sub_id; sup_id; owner; tn; sql; events = 0 }
                in
                Hashtbl.replace t.subs sub_id sub;
                Hashtbl.replace t.by_sup sup_id sub;
                Hashtbl.replace t.owned owner
                  (1 + Option.value ~default:0 (Hashtbl.find_opt t.owned owner));
                tn.live_subs <- tn.live_subs + 1;
                T.set t.telemetry
                  ~labels:[ ("tenant", tn.name) ]
                  "acqpd_sessions"
                  (float_of_int tn.live_subs);
                Ok
                  ( sub_id,
                    Printf.sprintf
                      "subscribed %d algorithm=%s est_cost=%.2f query: %s\n"
                      sub_id (P.algorithm_name algorithm) r.P.est_cost
                      (Acq_plan.Query.describe query) )))

let remove_sub t (sub : sub) =
  ignore (Supervisor.unregister t.supervisor sub.sup_id : bool);
  Hashtbl.remove t.subs sub.sub_id;
  Hashtbl.remove t.by_sup sub.sup_id;
  (match Hashtbl.find_opt t.owned sub.owner with
  | Some n when n > 1 -> Hashtbl.replace t.owned sub.owner (n - 1)
  | Some _ | None -> Hashtbl.remove t.owned sub.owner);
  sub.tn.live_subs <- sub.tn.live_subs - 1;
  T.set t.telemetry
    ~labels:[ ("tenant", sub.tn.name) ]
    "acqpd_sessions"
    (float_of_int sub.tn.live_subs)

let unsubscribe t ~tenant:name ~owner id =
  let tn = tenant t name in
  count t tn "unsubscribe";
  match Hashtbl.find_opt t.subs id with
  | Some sub when sub.owner = owner ->
      remove_sub t sub;
      Ok (Printf.sprintf "unsubscribed %d\n" id)
  | Some _ | None ->
      reject t tn 404;
      err 404 (Printf.sprintf "no subscription %d on this connection" id)

let has_subscription t ~owner = Hashtbl.mem t.owned owner

let drop_owner t owner =
  let mine =
    Hashtbl.fold
      (fun _ sub acc -> if sub.owner = owner then sub :: acc else acc)
      t.subs []
  in
  List.iter (remove_sub t) mine;
  List.length mine

(* ------------------------------------------------------------------ *)
(* The serving tick: replay the live trace cyclically, one tuple per
   tick, through every subscribed session (one execution per distinct
   plan, see Supervisor.step). Matching tuples become EVENT payloads
   routed back to the owning connection, in subscription order. *)

(* The bytes of [Printf.sprintf "match cost=%.2f %s\n"] over the
   space-separated [name=value] cells, built in one buffer; [%.2f]
   stays Printf's, whose rounding is the contract. *)
let render_event t row (o : Ex.outcome) =
  let names = Acq_data.Schema.names t.schema in
  let b = t.render_buf in
  Buffer.clear b;
  Buffer.add_string b "match cost=";
  Buffer.add_string b (Printf.sprintf "%.2f" o.Ex.cost);
  Buffer.add_char b ' ';
  List.iteri
    (fun i at ->
      if i > 0 then Buffer.add_char b ' ';
      Buffer.add_string b names.(at);
      Buffer.add_char b '=';
      Buffer.add_string b (string_of_int row.(at)))
    o.Ex.acquired;
  Buffer.add_char b '\n';
  Buffer.contents b

let tick t =
  if Hashtbl.length t.subs = 0 || D.nrows t.live = 0 then []
  else begin
    let row = D.row t.live t.cursor in
    t.cursor <- (t.cursor + 1) mod D.nrows t.live;
    Acq_obs.Metrics.incr (Lazy.force t.ticks_c);
    ignore (Supervisor.step t.supervisor row : Ex.outcome array);
    (* A plan group's members share one physical outcome, and the
       payload is a function of (row, outcome): render once per group,
       hand every member the same string. *)
    let rendered = ref [] in
    let events = ref [] in
    Supervisor.iter_matches t.supervisor (fun sup_id o ->
        match Hashtbl.find_opt t.by_sup sup_id with
        | None -> ()
        | Some sub ->
            sub.events <- sub.events + 1;
            Acq_obs.Metrics.incr (Lazy.force sub.tn.events_c);
            let payload =
              match List.assq_opt o !rendered with
              | Some p -> p
              | None ->
                  let p = render_event t row o in
                  rendered := (o, p) :: !rendered;
                  p
            in
            events := (sub.owner, sub.sub_id, payload) :: !events);
    List.rev !events
  end

(* ------------------------------------------------------------------ *)
(* STATS / METRICS / drain *)

let stats t =
  let b = Buffer.create 512 in
  Printf.bprintf b "acqpd: dataset=%s uptime_s=%.0f draining=%b\n"
    (Source.spec_to_string t.spec)
    (Unix.gettimeofday () -. t.started)
    t.draining;
  Printf.bprintf b
    "requests=%d subscriptions=%d supervisor_epoch=%d replan_budget_left=%d \
     parked=%d deferred=%d switches=%d\n"
    t.requests (Hashtbl.length t.subs)
    (Supervisor.epoch t.supervisor)
    (Supervisor.budget_remaining t.supervisor)
    (Supervisor.parked_sessions t.supervisor)
    (Supervisor.deferred_replans t.supervisor)
    (List.length (Supervisor.switches t.supervisor));
  let tbl =
    Acq_util.Tbl.create
      [ "tenant"; "sessions"; "requests"; "rejected"; "quota left" ]
  in
  List.iter
    (fun (tn : tenant) ->
      Acq_util.Tbl.add_row tbl
        [
          tn.name;
          string_of_int tn.live_subs;
          string_of_int tn.requests;
          string_of_int tn.rejected;
          string_of_int (max 0 tn.nodes_left);
        ])
    (tenants t);
  Buffer.add_string b (Acq_util.Tbl.render tbl);
  Buffer.add_char b '\n';
  Buffer.contents b

let prometheus t = Acq_obs.Metrics.to_prometheus t.registry

let drain t =
  t.draining <- true;
  T.set t.telemetry "acqpd_draining" 1.0

(* Introspection for stats/tests *)
let tenant_sessions (tn : tenant) = tn.live_subs
let tenant_quota_left (tn : tenant) = tn.nodes_left
let tenant_name (tn : tenant) = tn.name
let requests t = t.requests
let supervisor t = t.supervisor
