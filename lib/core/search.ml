exception Budget_exceeded
exception Deadline_exceeded

module Telemetry = Acq_obs.Telemetry

type 'memo t = {
  budget : int;
  deadline_ms : float option;
  started : float;
  memo : (string, 'memo) Hashtbl.t;
  mutable nodes_solved : int;
  mutable memo_hits : int;
  mutable estimator_calls : int;
  mutable pruned_branches : int;
  obs : Telemetry.t;
}

type certificate = {
  epsilon : float;
  delta : float;
  samples : int;
  refinements : int;
  cost_bound : float;
}

type stats = {
  nodes_solved : int;
  memo_hits : int;
  estimator_calls : int;
  plan_size : int;
  wall_ms : float;
  certificate : certificate option;
}

let create ?(budget = max_int) ?deadline_ms ?(telemetry = Telemetry.noop) () =
  {
    budget;
    deadline_ms;
    started = Unix.gettimeofday ();
    memo = Hashtbl.create 4096;
    nodes_solved = 0;
    memo_hits = 0;
    estimator_calls = 0;
    pruned_branches = 0;
    obs = telemetry;
  }

let elapsed_ms (t : _ t) = (Unix.gettimeofday () -. t.started) *. 1000.0

let solved (t : _ t) =
  t.nodes_solved <- t.nodes_solved + 1;
  if t.nodes_solved > t.budget then raise Budget_exceeded;
  match t.deadline_ms with
  | Some d when elapsed_ms t >= d -> raise Deadline_exceeded
  | Some _ | None -> ()

let hit (t : _ t) = t.memo_hits <- t.memo_hits + 1
let pruned (t : _ t) = t.pruned_branches <- t.pruned_branches + 1
let memo (t : 'm t) = t.memo
let nodes_solved (t : _ t) = t.nodes_solved
let memo_hits (t : _ t) = t.memo_hits
let estimator_calls (t : _ t) = t.estimator_calls
let pruned_branches (t : _ t) = t.pruned_branches
let telemetry (t : _ t) = t.obs

let trace (t : _ t) thunk =
  if Telemetry.enabled t.obs then Telemetry.event t.obs ~cat:"search" (thunk ())

let wrap_backend (t : _ t) b =
  Acq_prob.Backend.counting
    ~tick:(fun () -> t.estimator_calls <- t.estimator_calls + 1)
    b

let stats ?(plan_size = 0) ?certificate (t : _ t) =
  {
    nodes_solved = t.nodes_solved;
    memo_hits = t.memo_hits;
    estimator_calls = t.estimator_calls;
    plan_size;
    wall_ms = elapsed_ms t;
    certificate;
  }

let zero_stats =
  {
    nodes_solved = 0;
    memo_hits = 0;
    estimator_calls = 0;
    plan_size = 0;
    wall_ms = 0.0;
    certificate = None;
  }

(* Aggregating two certificates keeps the weaker guarantee on each
   axis (largest epsilon/delta/bound still covers both plans) and sums
   the effort fields. *)
let add_certificates a b =
  match (a, b) with
  | None, c | c, None -> c
  | Some a, Some b ->
      Some
        {
          epsilon = Float.max a.epsilon b.epsilon;
          delta = Float.max a.delta b.delta;
          samples = a.samples + b.samples;
          refinements = a.refinements + b.refinements;
          cost_bound = Float.max a.cost_bound b.cost_bound;
        }

let add_stats a b =
  {
    nodes_solved = a.nodes_solved + b.nodes_solved;
    memo_hits = a.memo_hits + b.memo_hits;
    estimator_calls = a.estimator_calls + b.estimator_calls;
    plan_size = a.plan_size + b.plan_size;
    wall_ms = a.wall_ms +. b.wall_ms;
    certificate = add_certificates a.certificate b.certificate;
  }

let certificate_to_string c =
  Printf.sprintf "epsilon=%.6g delta=%.6g samples=%d refinements=%d cost_bound=%.6g"
    c.epsilon c.delta c.samples c.refinements c.cost_bound

let stats_to_string s =
  let base =
    Printf.sprintf
      "nodes_solved=%d memo_hits=%d estimator_calls=%d plan_size=%d wall_ms=%.2f"
      s.nodes_solved s.memo_hits s.estimator_calls s.plan_size s.wall_ms
  in
  match s.certificate with
  | None -> base
  | Some c -> base ^ " " ^ certificate_to_string c

let pp_stats fmt s = Format.pp_print_string fmt (stats_to_string s)
