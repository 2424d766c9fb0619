(* Request streams for the end-to-end benchmark. Everything here is a
   pure function of the workload and the query-stream seed: the daemon
   only ever sees the SQL lines this module renders. *)

module Source = Acq_serve.Source
module Rng = Acq_util.Rng
module D = Acq_data.Dataset
module Q = Acq_plan.Query
module Pred = Acq_plan.Predicate

type workload = Run_lab | Plan_synthetic | Tick_selective | Mixed_chatty

let workloads = [ Run_lab; Plan_synthetic; Tick_selective; Mixed_chatty ]

let name = function
  | Run_lab -> "run-lab"
  | Plan_synthetic -> "plan-synthetic"
  | Tick_selective -> "tick-selective"
  | Mixed_chatty -> "mixed-chatty"

let of_name s = List.find_opt (fun w -> name w = s) workloads

let index = function
  | Run_lab -> 0
  | Plan_synthetic -> 1
  | Tick_selective -> 2
  | Mixed_chatty -> 3

(* The daemon's dataset never changes with the query seed. *)
let dataset_seed = 42

let spec = function
  | Plan_synthetic ->
      { Source.kind = Source.Synthetic; rows = 4_000; seed = dataset_seed }
  | Run_lab | Tick_selective | Mixed_chatty ->
      { Source.kind = Source.Lab; rows = 20_000; seed = dataset_seed }

(* Shapes and sizes. Selective shapes match at most 5% of live tuples,
   so 500 sessions emit only a few events per tick; chatty shapes match
   at least 90%, so egress dominates. [subs_per_conn] counts SUBSCRIBEs
   on each subscribing connection. *)
let selective_shapes = 25
let selective_max = 0.05
let chatty_min = 0.90
let subs_per_conn = function
  | Tick_selective -> 250
  | Mixed_chatty -> 16
  | Run_lab | Plan_synthetic -> 0

let run_shapes_mixed = 8

(* Planning quota is 2M nodes per tenant; a PLAN costs ~18k, so the
   client moves to a fresh tenant every 50 foreground requests. *)
let tenant_every = 50

(* Workloads that hold subscriptions, so the daemon ticks. *)
let ticking = function
  | Tick_selective | Mixed_chatty -> true
  | Run_lab | Plan_synthetic -> false

(* Foreground RUN/PLAN requests per second for an open loop; [None]
   is a closed loop. mixed-chatty paces its RUNs so the ticks between
   them, and so events/s, do not hinge on how fast the client turns a
   reply around. *)
let foreground_rate = function
  | Mixed_chatty -> Some 1.0
  | Run_lab | Plan_synthetic | Tick_selective -> None

(* The tick workloads measure open-loop PINGs; the others measure
   their RUN or PLAN stream on a single connection. *)
let connections = function
  | Run_lab | Plan_synthetic -> 1
  | Tick_selective | Mixed_chatty -> 2

(* Untimed RUN/PLAN requests at the start of each timed segment. *)
let warmup = function
  | Run_lab -> 3
  | Plan_synthetic -> 2
  | Mixed_chatty | Tick_selective -> 0

(* ------------------------------------------------------------------ *)
(* SQL rendering in raw units: each band endpoint is its bin's
   midpoint, which the catalog snaps back to exactly that bin. *)

let sql_of_query q =
  let schema = Q.schema q in
  let cond (p : Pred.t) =
    let a = Acq_data.Schema.attr schema p.Pred.attr in
    let v b =
      match a.Acq_data.Attribute.binner with
      | Some bn -> Printf.sprintf "%.2f" (Acq_data.Discretize.mid bn b)
      | None -> string_of_int b
    in
    let name = a.Acq_data.Attribute.name in
    let band =
      if p.Pred.lo = p.Pred.hi && a.Acq_data.Attribute.binner = None then
        Printf.sprintf "%s = %s" name (v p.Pred.lo)
      else Printf.sprintf "%s <= %s <= %s" (v p.Pred.lo) name (v p.Pred.hi)
    in
    match p.Pred.polarity with
    | Pred.Inside -> band
    | Pred.Outside -> "NOT (" ^ band ^ ")"
  in
  "SELECT * WHERE "
  ^ String.concat " AND " (List.map cond (Array.to_list (Q.predicates q)))

let signature q =
  Acq_adapt.Plan_cache.signature ~algorithm:Acq_core.Planner.Heuristic q

let match_fraction q live =
  let n = D.nrows live in
  let hits = ref 0 in
  for i = 0 to n - 1 do
    if Q.eval q (D.row live i) then incr hits
  done;
  float_of_int !hits /. float_of_int (max 1 n)

(* [count] distinct queries drawn from [draw], keeping those [keep]
   accepts; distinctness is by plan-cache signature. *)
let distinct ~count ~keep draw =
  let seen = Hashtbl.create 64 in
  let out = ref [] and n = ref 0 and tries = ref 0 in
  while !n < count do
    incr tries;
    if !tries > 1000 * (count + 10) then
      failwith "gen: could not draw enough distinct queries";
    let q = draw () in
    let s = signature q in
    if (not (Hashtbl.mem seen s)) && keep q then begin
      Hashtbl.add seen s ();
      out := q :: !out;
      incr n
    end
  done;
  Array.of_list (List.rev !out)

(* The paper's Section 6 lab recipe. *)
let lab_queries rng ~history ~count =
  distinct ~count ~keep:(fun _ -> true) (fun () ->
      Acq_workload.Query_gen.lab_query rng ~train:history)

let selective rng ~history ~live =
  distinct ~count:selective_shapes
    ~keep:(fun q ->
      let f = match_fraction q live in
      f > 0.0 && f <= selective_max)
    (fun () -> Acq_workload.Query_gen.lab_query rng ~train:history)

(* [count] shapes of [preds] wide bands over distinct expensive lab
   attributes; no band covers a whole domain. *)
let chatty rng ~live ~count ~preds =
  let schema = D.schema live in
  let expensive = Array.of_list (Acq_data.Schema.expensive_indices schema) in
  let domains = Acq_data.Schema.domains schema in
  let band attr =
    let k = domains.(attr) in
    let lo = Rng.int rng (max 1 (k / 4)) in
    let hi = k - 1 - Rng.int rng (max 1 (k / 4)) in
    Pred.inside ~attr ~lo ~hi
  in
  let full (p : Pred.t) = p.Pred.lo = 0 && p.Pred.hi = domains.(p.Pred.attr) - 1 in
  distinct ~count
    ~keep:(fun q ->
      (not (Array.exists full (Q.predicates q))) && match_fraction q live >= chatty_min)
    (fun () ->
      let attrs = Array.copy expensive in
      Rng.shuffle rng attrs;
      Q.create schema (List.init preds (fun i -> band attrs.(i))))

(* All conjunctions of 2..5 of the synthetic expensive attributes,
   each compared with 0 or 1: 232 distinct queries. *)
let synthetic_queries schema =
  let attrs = Array.of_list (Acq_data.Schema.expensive_indices schema) in
  let n = Array.length attrs in
  let out = ref [] in
  for mask = 0 to (1 lsl n) - 1 do
    let chosen = List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init n Fun.id) in
    let m = List.length chosen in
    if m >= 2 then
      for values = 0 to (1 lsl m) - 1 do
        let preds =
          List.mapi
            (fun j i ->
              let v = (values lsr j) land 1 in
              Pred.inside ~attr:attrs.(i) ~lo:v ~hi:v)
            chosen
        in
        out := Q.create schema preds :: !out
      done
  done;
  Array.of_list (List.rev !out)

(* Each size class shuffled, then spread evenly over the stream: every
   prefix mixes 2- to 5-predicate conjunctions in the pool's
   proportions, so a run of any length sees the same blend of cheap and
   expensive plans. *)
let interleave_by_size rng qs =
  let keyed =
    List.concat_map
      (fun size ->
        let group = Array.of_list (List.filter (fun q -> Q.n_predicates q = size) (Array.to_list qs)) in
        Rng.shuffle rng group;
        let n = float_of_int (Array.length group) in
        List.mapi (fun j q -> ((float_of_int j +. 0.5) /. n, size, q)) (Array.to_list group))
      [ 2; 3; 4; 5 ]
  in
  Array.of_list
    (List.map (fun (_, _, q) -> q)
       (List.stable_sort (fun (a, s, _) (b, t, _) -> compare (a, s) (b, t)) keyed))

(* ------------------------------------------------------------------ *)
(* Streams *)

type t = {
  workload : workload;
  seed : int;
  tenants : string array;  (** HELLO tenant per subscribing connection *)
  subscribe : string array array;
      (** SUBSCRIBE lines per connection, sent during set-up; empty
          unless the workload ticks *)
  requests : string array;
      (** RUN/PLAN lines in send order; the client cycles if it runs
          out *)
}

let foreground_limit = 1000

let make workload ~seed =
  let history, live = Source.history_live (spec workload) in
  let rng = Rng.create ((seed * 8) + index workload) in
  let sub_lines shapes =
    Array.init (subs_per_conn workload) (fun j ->
        "SUBSCRIBE algo=heuristic "
        ^ sql_of_query shapes.(j mod Array.length shapes))
  in
  let run q = "RUN " ^ sql_of_query q in
  match workload with
  | Run_lab ->
      {
        workload;
        seed;
        tenants = [||];
        subscribe = [||];
        requests = Array.map run (lab_queries rng ~history ~count:foreground_limit);
      }
  | Plan_synthetic ->
      let qs = interleave_by_size rng (synthetic_queries (D.schema history)) in
      {
        workload;
        seed;
        tenants = [||];
        subscribe = [||];
        requests = Array.map (fun q -> "PLAN " ^ sql_of_query q) qs;
      }
  | Tick_selective ->
      let shapes = selective rng ~history ~live in
      let half = selective_shapes / 2 in
      let a = Array.sub shapes 0 half
      and b = Array.sub shapes half (selective_shapes - half) in
      {
        workload;
        seed;
        tenants = [| "sel-a"; "sel-b" |];
        subscribe = [| sub_lines a; sub_lines b |];
        requests = [||];
      }
  | Mixed_chatty ->
      (* Connection A holds the chatty subscriptions, as many one-band
         as two-band shapes so their per-tuple cost is alike across
         seeds; connection B carries the RUNs and PINGs, so its replies
         never queue behind A's events in the client. *)
      let per = subs_per_conn workload in
      let shapes =
        Array.append
          (chatty rng ~live ~count:(per / 2) ~preds:1)
          (chatty rng ~live ~count:(per - (per / 2)) ~preds:2)
      in
      let runs = lab_queries rng ~history ~count:run_shapes_mixed in
      {
        workload;
        seed;
        tenants = [| "chat-a"; "chat-b" |];
        subscribe = [| sub_lines shapes; [||] |];
        requests =
          Array.init foreground_limit (fun i -> run runs.(i mod run_shapes_mixed));
      }

(* Tenant of the i-th RUN/PLAN request (warm-up included). *)
let tenant_for t i = Printf.sprintf "%s-%d" (name t.workload) (i / tenant_every)

let request t i = t.requests.(i mod Array.length t.requests)

let render t =
  let b = Buffer.create 4096 in
  Printf.bprintf b "workload %s seed %d\n" (name t.workload) t.seed;
  Array.iteri
    (fun c lines ->
      Printf.bprintf b "conn %d tenant %s\n" c t.tenants.(c);
      Array.iter (fun l -> Printf.bprintf b "%s\n" l) lines)
    t.subscribe;
  Array.iter (fun l -> Printf.bprintf b "%s\n" l) t.requests;
  Buffer.contents b
