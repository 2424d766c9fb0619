module T = Acq_obs.Telemetry
module Ex = Acq_plan.Executor

(* One registered session. [parked] marks a confirmed trigger that
   could not replan because the shared budget was gone — the session
   sits in Drifting with its replan deferred. [charged] is the part of
   the session's planning-node spend this supervisor has already
   debited from its budget, so unregistration can settle the ledger
   exactly. *)
type entry = {
  id : int;
  session : Session.t;
  mutable parked : bool;
  mutable charged : int;
}

type t = {
  mutable entries : entry list;  (** registration order *)
  telemetry : T.t;
  mutable budget_left : int;
  mutable next_id : int;
  mutable epoch : int;
  mutable acquisition : float;
  mutable matches : int;
  mutable switch_bytes : int;
  mutable deferred : int;
  mutable unregistered : int;
  mutable released_parked : int;
  mutable switches_rev : (int * Session.switch) list;
}

let set_session_gauge t =
  T.set t.telemetry "acqp_adapt_supervised_sessions"
    (float_of_int (List.length t.entries))

let register t session =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.entries <- t.entries @ [ { id; session; parked = false; charged = 0 } ];
  set_session_gauge t;
  id

let create_empty ?(telemetry = T.noop) ?(planning_budget = max_int) () =
  {
    entries = [];
    telemetry;
    budget_left = planning_budget;
    next_id = 0;
    epoch = 0;
    acquisition = 0.0;
    matches = 0;
    switch_bytes = 0;
    deferred = 0;
    unregistered = 0;
    released_parked = 0;
    switches_rev = [];
  }

let create ?telemetry ?planning_budget sessions =
  if sessions = [] then invalid_arg "Supervisor.create: no sessions";
  let t = create_empty ?telemetry ?planning_budget () in
  List.iter (fun s -> ignore (register t s : int)) sessions;
  t

let sessions t = List.map (fun e -> e.session) t.entries
let ids t = List.map (fun e -> e.id) t.entries

let session t id =
  match List.find_opt (fun e -> e.id = id) t.entries with
  | Some e -> Some e.session
  | None -> None

let unregister t id =
  match List.find_opt (fun e -> e.id = id) t.entries with
  | None -> false
  | Some e ->
      (* Release a parked deferred replan: the pending claim on the
         shared budget disappears with the session. Nodes the session
         already spent stay spent — [charged] remains debited; only
         the *future* demand is released. *)
      if e.parked then begin
        t.released_parked <- t.released_parked + 1;
        T.incr t.telemetry "acqp_adapt_released_parked_total"
      end;
      t.entries <- List.filter (fun e' -> e'.id <> id) t.entries;
      t.unregistered <- t.unregistered + 1;
      set_session_gauge t;
      true

let step t row =
  t.epoch <- t.epoch + 1;
  let entries = Array.of_list t.entries in
  let outcomes =
    Array.map
      (fun e ->
        (* Through the session's prepared runner (byte-identical to
           the direct tree interpretation), so an attached audit
           pipeline sees every supervised tuple too. *)
        let o =
          Session.execute ~obs:t.telemetry e.session
            ~lookup:(fun at -> row.(at))
        in
        Session.observe e.session ~cost:o.Ex.cost row;
        t.acquisition <- t.acquisition +. o.Ex.cost;
        if o.Ex.verdict then t.matches <- t.matches + 1;
        o)
      entries
  in
  Array.iter
    (fun e ->
      let s = e.session in
      if Session.due s then begin
        let before = Session.planning_nodes s in
        let sw = Session.check ~max_nodes:t.budget_left s in
        let spent = Session.planning_nodes s - before in
        t.budget_left <- max 0 (t.budget_left - spent);
        e.charged <- e.charged + spent;
        match sw with
        | Some sw ->
            e.parked <- false;
            t.switch_bytes <- t.switch_bytes + sw.Session.plan_bytes;
            t.switches_rev <- (e.id, sw) :: t.switches_rev
        | None ->
            if Session.state s = Session.Drifting then begin
              if t.budget_left <= 0 then begin
                t.deferred <- t.deferred + 1;
                e.parked <- true;
                T.incr t.telemetry "acqp_adapt_deferred_replans_total"
              end
            end
            else e.parked <- false
      end)
    entries;
  outcomes

let run_dataset t ds =
  Acq_data.Dataset.iter_rows ds (fun r ->
      ignore (step t (Acq_data.Dataset.row ds r) : Ex.outcome array))

let epoch t = t.epoch
let acquisition_cost t = t.acquisition
let matches t = t.matches
let switch_bytes t = t.switch_bytes
let budget_remaining t = t.budget_left
let deferred_replans t = t.deferred

let parked_sessions t =
  List.fold_left (fun n e -> if e.parked then n + 1 else n) 0 t.entries

let charged_nodes t = List.fold_left (fun n e -> n + e.charged) 0 t.entries
let unregistered t = t.unregistered
let released_parked t = t.released_parked
let switches t = List.rev t.switches_rev
