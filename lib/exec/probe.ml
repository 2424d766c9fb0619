module E = Acq_plan.Executor

(* Cost-error accumulator layout (unboxed float array, so observing a
   tuple's realized cost allocates nothing):
   0 = sum (observed - predicted)      signed: positive = underestimate
   1 = sum (observed - predicted)^2
   2 = max |observed - predicted|
   3 = tuple count
   4 = sum |observed - predicted|
   5 = sum observed                    realized-cost total, the audit-fed
                                       observed-cost source *)
let c_sum_err = 0

let c_sum_sq = 1
let c_max_abs = 2
let c_count = 3
let c_sum_abs = 4
let c_sum_obs = 5

type t = {
  auto : Compile.t;
  hits : int array;  (* per automaton node: times its band test held *)
  misses : int array;  (* per node: times it failed; visits = hits + misses *)
  cerr : float array;
  mutable pred_cost : float;
  mutable cursor : int;  (* tree-path mirror position in [auto] *)
  mutable hook : E.Audit_hook.t option;  (* built once, cached *)
}

let create auto =
  let n = Compile.n_nodes auto in
  {
    auto;
    hits = Array.make n 0;
    misses = Array.make n 0;
    cerr = Array.make 6 0.0;
    pred_cost = 0.0;
    cursor = Compile.entry auto;
    hook = None;
  }

let automaton t = t.auto
let n_nodes t = Array.length t.hits
let visits t = Array.map2 ( + ) t.hits t.misses
let hits t = t.hits
let misses t = t.misses
let cost_cells t = t.cerr
let predicted_cost t = t.pred_cost
let set_predicted_cost t c = t.pred_cost <- c

let observe_cost t cost =
  let err = cost -. t.pred_cost in
  let e = t.cerr in
  e.(c_sum_err) <- e.(c_sum_err) +. err;
  e.(c_sum_sq) <- e.(c_sum_sq) +. (err *. err);
  let a = Float.abs err in
  if a > e.(c_max_abs) then e.(c_max_abs) <- a;
  e.(c_count) <- e.(c_count) +. 1.0;
  e.(c_sum_abs) <- e.(c_sum_abs) +. a;
  e.(c_sum_obs) <- e.(c_sum_obs) +. cost

type cost_stats = {
  count : int;
  sum_err : float;
  sum_sq_err : float;
  max_abs_err : float;
  sum_abs_err : float;
  sum_observed : float;
  predicted : float;
}

let cost_stats t =
  let e = t.cerr in
  {
    count = int_of_float e.(c_count);
    sum_err = e.(c_sum_err);
    sum_sq_err = e.(c_sum_sq);
    max_abs_err = e.(c_max_abs);
    sum_abs_err = e.(c_sum_abs);
    sum_observed = e.(c_sum_obs);
    predicted = t.pred_cost;
  }

let observed_mean_cost t =
  let n = t.cerr.(c_count) in
  if n <= 0.0 then None
  else Some (t.cerr.(c_sum_obs) /. n, int_of_float n)

let reset t =
  Array.fill t.hits 0 (Array.length t.hits) 0;
  Array.fill t.misses 0 (Array.length t.misses) 0;
  Array.fill t.cerr 0 (Array.length t.cerr) 0.0;
  t.cursor <- Compile.entry t.auto

(* The tree interpreter has no node indices, but its traversal is
   exactly the automaton's transition relation (Compile lowers in
   traversal preorder), so a cursor that starts at [entry] and
   advances through [on_hit]/[on_miss] on each reported band outcome
   recovers per-node identity without restructuring the interpreter.
   The cursor resets to [entry] at every tuple boundary; a negative
   cursor (constant plan, or a terminal already reached) drops
   further steps defensively. *)
let hook t =
  match t.hook with
  | Some h -> h
  | None ->
      let a = t.auto in
      let h =
        {
          E.Audit_hook.on_step =
            (fun ~attr:_ ~hit ->
              let c = t.cursor in
              if c >= 0 then begin
                if hit then t.hits.(c) <- t.hits.(c) + 1
                else t.misses.(c) <- t.misses.(c) + 1;
                t.cursor <-
                  (if hit then a.Compile.on_hit.(c) else a.Compile.on_miss.(c))
              end);
          on_tuple =
            (fun ~verdict:_ ~cost ->
              t.cursor <- Compile.entry a;
              observe_cost t cost);
        }
      in
      t.hook <- Some h;
      h

let check t auto =
  if Compile.n_nodes auto <> n_nodes t || Compile.n_attrs auto <> Compile.n_attrs t.auto
  then
    invalid_arg
      "Probe: automaton shape does not match the probe's (probe and \
       executor must be lowered from the same query and plan)"
