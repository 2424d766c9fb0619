module T = Acq_obs.Telemetry
module Ex = Acq_plan.Executor
module Sl = Acq_prob.Sliding

(* Sessions serving one compiled automaton: each tick runs it once and
   fans the outcome out to every member. An audited session is a group
   of its own, so its probe sees exactly its own tuples. *)
type group = {
  key : string;
  prepared : Acq_exec.Runner.prepared;
  audited : Session.t option;
  mutable members : entry array;
}

(* One registered session. [parked] marks a confirmed trigger that
   could not replan because the shared budget was gone — the session
   sits in Drifting with its replan deferred. [charged] is the part of
   the session's planning-node spend this supervisor has already
   debited from its budget, so unregistration can settle the ledger
   exactly. *)
and entry = {
  id : int;
  session : Session.t;
  mutable parked : bool;
  mutable charged : int;
  mutable slot : int;  (** index in [live] *)
  mutable group : group option;
}

type t = {
  mutable live : entry array;  (** registration order *)
  by_id : (int, entry) Hashtbl.t;
  groups : (string, group) Hashtbl.t;
  mutable group_list : group array;
  mutable ring : Sl.t option;  (** the stream every attached window views *)
  mutable outcomes : Ex.outcome array;  (** indexed like [live] *)
  mutable due : int array;  (** slots due a check this step *)
  mutable matched : int array;  (** slots whose outcome matched *)
  mutable n_matched : int;
  telemetry : T.t;
  mutable budget_left : int;
  mutable next_id : int;
  mutable epoch : int;
  acquisition : float array;  (** one cell: no boxing per session *)
  mutable matches : int;
  mutable executions : int;
  mutable switch_bytes : int;
  mutable deferred : int;
  mutable unregistered : int;
  mutable released_parked : int;
  mutable switches_rev : (int * Session.switch) list;
}

let set_session_gauge t =
  T.set t.telemetry "acqp_adapt_supervised_sessions"
    (float_of_int (Array.length t.live))

(* Sessions execute identically when their schemas' costs and domains,
   their predicates (in order: plans index them) and their plans
   agree. *)
let plan_key session =
  let q = Session.query session in
  let schema = Acq_plan.Query.schema q in
  let b = Buffer.create 64 in
  Array.iter (Printf.bprintf b "%h,") (Acq_data.Schema.costs schema);
  Array.iter (Printf.bprintf b "%d,") (Acq_data.Schema.domains schema);
  Array.iter
    (fun (p : Acq_plan.Predicate.t) ->
      Printf.bprintf b "|%d:%d:%d:%b" p.Acq_plan.Predicate.attr p.lo p.hi
        (p.polarity = Acq_plan.Predicate.Inside))
    (Acq_plan.Query.predicates q);
  Buffer.add_char b '|';
  Buffer.add_bytes b (Acq_plan.Serialize.encode (Session.plan session));
  Buffer.contents b

let join t e =
  let s = e.session in
  let audited = Option.map (fun _ -> s) (Session.audit s) in
  let key =
    match audited with
    | Some _ -> Printf.sprintf "audit:%d" e.id
    | None -> plan_key s
  in
  let g =
    match Hashtbl.find_opt t.groups key with
    | Some g -> g
    | None ->
        let g =
          { key; prepared = Session.prepared s; audited; members = [||] }
        in
        Hashtbl.replace t.groups key g;
        t.group_list <- Array.append t.group_list [| g |];
        g
  in
  g.members <- Array.append g.members [| e |];
  e.group <- Some g

let leave t e =
  match e.group with
  | None -> ()
  | Some g ->
      e.group <- None;
      g.members <- Array.of_list (List.filter (( != ) e) (Array.to_list g.members));
      if Array.length g.members = 0 then begin
        Hashtbl.remove t.groups g.key;
        t.group_list <-
          Array.of_list (List.filter (( != ) g) (Array.to_list t.group_list))
      end

let register t session =
  let id = t.next_id in
  t.next_id <- id + 1;
  let ring =
    match t.ring with
    | Some r -> r
    | None ->
        let r =
          Sl.create (Acq_plan.Query.schema (Session.query session)) ~capacity:1
        in
        t.ring <- Some r;
        r
  in
  ignore (Session.attach session ring : bool);
  let e =
    {
      id;
      session;
      parked = false;
      charged = 0;
      slot = Array.length t.live;
      group = None;
    }
  in
  t.live <- Array.append t.live [| e |];
  Hashtbl.replace t.by_id id e;
  join t e;
  t.n_matched <- 0;
  set_session_gauge t;
  id

let create_empty ?(telemetry = T.noop) ?(planning_budget = max_int) () =
  {
    live = [||];
    by_id = Hashtbl.create 64;
    groups = Hashtbl.create 16;
    group_list = [||];
    ring = None;
    outcomes = [||];
    due = [||];
    matched = [||];
    n_matched = 0;
    telemetry;
    budget_left = planning_budget;
    next_id = 0;
    epoch = 0;
    acquisition = [| 0.0 |];
    matches = 0;
    executions = 0;
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

let sessions t = Array.to_list (Array.map (fun e -> e.session) t.live)
let ids t = Array.to_list (Array.map (fun e -> e.id) t.live)
let session t id = Option.map (fun e -> e.session) (Hashtbl.find_opt t.by_id id)

let unregister t id =
  match Hashtbl.find_opt t.by_id id with
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
      leave t e;
      Hashtbl.remove t.by_id id;
      t.live <- Array.of_list (List.filter (( != ) e) (Array.to_list t.live));
      Array.iteri (fun i e -> e.slot <- i) t.live;
      t.n_matched <- 0;
      t.unregistered <- t.unregistered + 1;
      set_session_gauge t;
      true

let swap (a : int array) i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

(* Sift [a.(i)] down the max-heap held in [a.(0 .. len-1)]. *)
let rec sift (a : int array) i len =
  let l = (2 * i) + 1 in
  if l < len then begin
    let c = if l + 1 < len && a.(l + 1) > a.(l) then l + 1 else l in
    if a.(c) > a.(i) then begin
      swap a i c;
      sift a c len
    end
  end

(* Sort the first [n] slots ascending — registration order. Slots
   usually arrive in order, so this is mostly a linear check; otherwise
   an in-place heap sort, O(n log n) without allocating (a prefix can
   hold every session). *)
let sort_prefix (a : int array) n =
  let sorted = ref true in
  for i = 1 to n - 1 do
    if a.(i - 1) > a.(i) then sorted := false
  done;
  if not !sorted then begin
    for i = (n / 2) - 1 downto 0 do
      sift a i n
    done;
    for last = n - 1 downto 1 do
      swap a 0 last;
      sift a 0 last
    done
  end

let no_outcome = { Ex.verdict = false; cost = 0.0; acquired = [] }

let check_due t e =
  let s = e.session in
  let before = Session.planning_nodes s in
  let sw = Session.check ~max_nodes:t.budget_left s in
  let spent = Session.planning_nodes s - before in
  t.budget_left <- max 0 (t.budget_left - spent);
  e.charged <- e.charged + spent;
  match sw with
  | Some sw ->
      e.parked <- false;
      t.switch_bytes <- t.switch_bytes + sw.Session.plan_bytes;
      t.switches_rev <- (e.id, sw) :: t.switches_rev;
      (* The new plan executes with its own group from the next step. *)
      leave t e;
      join t e
  | None ->
      if Session.state s = Session.Drifting then begin
        if t.budget_left <= 0 then begin
          t.deferred <- t.deferred + 1;
          e.parked <- true;
          T.incr t.telemetry "acqp_adapt_deferred_replans_total"
        end
      end
      else e.parked <- false

let step t row =
  t.epoch <- t.epoch + 1;
  let n = Array.length t.live in
  if Array.length t.outcomes <> n then t.outcomes <- Array.make n no_outcome;
  if Array.length t.due < n then begin
    t.due <- Array.make n 0;
    t.matched <- Array.make n 0
  end;
  (match t.ring with Some r -> Sl.push r row | None -> ());
  let lookup at = row.(at) in
  let n_due = ref 0 and n_matched = ref 0 in
  for gi = 0 to Array.length t.group_list - 1 do
    let g = t.group_list.(gi) in
    let members = g.members in
    let probe =
      match g.audited with Some s -> Session.audit_probe s | None -> None
    in
    let o =
      Acq_exec.Runner.run ~obs:t.telemetry ?probe
        ~times:(Array.length members) g.prepared ~lookup
    in
    t.executions <- t.executions + 1;
    for k = 0 to Array.length members - 1 do
      let e = members.(k) in
      let s = e.session in
      Session.observe s ~cost:o.Ex.cost row;
      t.acquisition.(0) <- t.acquisition.(0) +. o.Ex.cost;
      t.outcomes.(e.slot) <- o;
      if o.Ex.verdict then begin
        t.matches <- t.matches + 1;
        t.matched.(!n_matched) <- e.slot;
        incr n_matched
      end;
      if Session.due s then begin
        t.due.(!n_due) <- e.slot;
        incr n_due
      end
    done
  done;
  (* Checks run after every session has observed the tuple, first
     come first served on the shared budget in registration order. *)
  sort_prefix t.due !n_due;
  for k = 0 to !n_due - 1 do
    check_due t t.live.(t.due.(k))
  done;
  sort_prefix t.matched !n_matched;
  t.n_matched <- !n_matched;
  t.outcomes

let iter_matches t f =
  for k = 0 to t.n_matched - 1 do
    let slot = t.matched.(k) in
    f t.live.(slot).id t.outcomes.(slot)
  done

let run_dataset t ds =
  Acq_data.Dataset.iter_rows ds (fun r ->
      ignore (step t (Acq_data.Dataset.row ds r) : Ex.outcome array))

let epoch t = t.epoch
let acquisition_cost t = t.acquisition.(0)
let matches t = t.matches
let executions t = t.executions
let plan_groups t = Array.length t.group_list
let switch_bytes t = t.switch_bytes
let budget_remaining t = t.budget_left
let deferred_replans t = t.deferred

let parked_sessions t =
  Array.fold_left (fun n e -> if e.parked then n + 1 else n) 0 t.live

let charged_nodes t = Array.fold_left (fun n e -> n + e.charged) 0 t.live
let unregistered t = t.unregistered
let released_parked t = t.released_parked
let switches t = List.rev t.switches_rev
