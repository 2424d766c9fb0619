module IntSet = Set.Make (Int)
module B = Acq_prob.Backend

let default_epsilon_target = 0.05
let exhaustive_limit = 6

type interval = Hoeffding | Wilson

let interval_name = function Hoeffding -> "hoeffding" | Wilson -> "wilson"

(* Wilson score interval computed generically from any backend's
   point estimate and sampling parameters: the restricted sample size
   is the backend's weight, the success count is recovered from the
   point estimate (both exact for counting backends), and delta is
   the per-interval failure probability the backend reports. An
   exhaustive or deterministic backend reports delta 0 (or no
   sampling at all) and degenerates to the point — exactly like the
   Hoeffding path. The interval itself is
   {!Acq_util.Stats.wilson_ci}. *)
let wilson_ci est p =
  match B.sampling est with
  | None ->
      let x = B.pred_prob est p in
      (x, x)
  | Some s ->
      if s.B.delta <= 0.0 then begin
        let x = B.pred_prob est p in
        (x, x)
      end
      else begin
        let m = int_of_float (B.weight est) in
        if m = 0 then (0.0, 1.0)
        else begin
          let pos =
            int_of_float (Float.round (B.pred_prob est p *. float_of_int m))
          in
          Acq_util.Stats.wilson_ci ~pos ~n:m ~delta:s.B.delta
        end
      end

let ci_of = function Hoeffding -> B.pred_prob_ci | Wilson -> wilson_ci

(* [interval_cost] is Expected_cost.seq_cost with every point
   probability replaced by its confidence interval. The recursion is
   monotone in each probability (costs are nonnegative), so the
   lower/upper walks bound the true conditional expected cost whenever
   every consulted interval covers its true probability.

   [consulted] collects a key per distinct interval — the conditioning
   prefix (as a sorted predicate-id set; restriction order is
   immaterial to the event) plus the queried predicate — so the
   caller's union bound counts each interval once even though many
   candidate orders share prefixes. *)
let interval_cost ?(interval = Hoeffding) ~model ~consulted q est order =
  let ci = ci_of interval in
  let rec go est acquired prefix = function
    | [] -> (0.0, 0.0)
    | j :: rest ->
        let p = Acq_plan.Query.predicate q j in
        let atomic =
          Acq_plan.Cost_model.atomic model p.Acq_plan.Predicate.attr
            ~acquired:(fun a -> IntSet.mem a acquired)
        in
        let key =
          String.concat ","
            (List.map string_of_int (List.sort compare prefix))
          ^ "|" ^ string_of_int j
        in
        Hashtbl.replace consulted key ();
        let lo, hi = ci est p in
        let acquired = IntSet.add p.Acq_plan.Predicate.attr acquired in
        if hi <= 0.0 then (atomic, atomic)
        else
          let rlo, rhi =
            go (B.restrict_pred est p true) acquired (j :: prefix) rest
          in
          (atomic +. (lo *. rlo), atomic +. (hi *. rhi))
  in
  go est IntSet.empty [] order

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          List.map
            (fun rest -> x :: rest)
            (permutations (List.filter (fun y -> y <> x) l)))
        l

(* Candidate orders. Small queries enumerate every permutation — the
   PAC bound is then over the full order space, matching the
   Exhaustive-vs-certificate tests. Wider queries fall back to a small
   diverse pool: the cost/(1-p) greedy ranking under the point,
   lower-confidence, and upper-confidence selectivities, plus every
   adjacent transposition of the point ranking. *)
let candidates q ~model est =
  let m = Acq_plan.Query.n_predicates q in
  let ids = List.init m Fun.id in
  if m <= exhaustive_limit then permutations ids
  else begin
    let prices = Acq_plan.Cost_model.worst_case model in
    let rank_by f =
      let keyed =
        Array.of_list
          (List.map
             (fun j ->
               let p = Acq_plan.Query.predicate q j in
               let pass = f p in
               let c = prices.(p.Acq_plan.Predicate.attr) in
               ((if pass >= 1.0 then infinity else c /. (1.0 -. pass)), j))
             ids)
      in
      Array.sort compare keyed;
      Array.to_list (Array.map snd keyed)
    in
    let point = rank_by (fun p -> B.pred_prob est p) in
    let optimistic = rank_by (fun p -> fst (B.pred_prob_ci est p)) in
    let pessimistic = rank_by (fun p -> snd (B.pred_prob_ci est p)) in
    let swaps =
      let arr = Array.of_list point in
      List.init (m - 1) (fun i ->
          let a = Array.copy arr in
          let t = a.(i) in
          a.(i) <- a.(i + 1);
          a.(i + 1) <- t;
          Array.to_list a)
    in
    let seen = Hashtbl.create 16 in
    List.filter
      (fun ord ->
        let k = String.concat "," (List.map string_of_int ord) in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      (point :: optimistic :: pessimistic :: swaps)
  end

let plan ?search ?model ?(epsilon_target = default_epsilon_target)
    ?(interval = Hoeffding) q ~costs est =
  let model =
    match model with
    | Some m -> m
    | None -> Acq_plan.Cost_model.uniform costs
  in
  let tick =
    match search with Some s -> fun () -> Search.solved s | None -> ignore
  in
  let trace thunk =
    match search with Some s -> Search.trace s thunk | None -> ()
  in
  let finish est order ~cost_bound ~epsilon ~refinements ~consulted =
    let samples, per_interval_delta =
      match B.sampling est with
      | Some s -> (s.B.samples, s.B.delta)
      | None -> (0, 0.0)
    in
    (* Union bound over the distinct intervals the final decision
       consulted: each fails with probability at most the backend's
       per-interval delta, so every claim below holds with probability
       at least [1 - delta]. *)
    let delta =
      Float.min 1.0
        (per_interval_delta *. float_of_int (Hashtbl.length consulted))
    in
    let certificate =
      {
        Search.epsilon;
        delta;
        samples;
        refinements;
        cost_bound;
      }
    in
    let est_cost = Expected_cost.of_order ~model q ~costs est order in
    (Acq_plan.Plan.sequential order, est_cost, certificate)
  in
  let score_round est =
    let consulted = Hashtbl.create 64 in
    let scored =
      List.map
        (fun ord ->
          tick ();
          (ord, interval_cost ~interval ~model ~consulted q est ord))
        (candidates q ~model est)
    in
    match scored with
    | [] ->
        (* No predicates: the empty sequential plan is free and
           certain. *)
        (([], (0.0, 0.0)), 0.0, consulted)
    | first :: rest ->
        let chosen =
          (* argmin upper-confidence cost; ties keep the earlier
             candidate so the plan is deterministic across runs. *)
          List.fold_left
            (fun ((_, (_, bhi)) as best) ((_, (_, hi)) as cand) ->
              if hi < bhi then cand else best)
            first rest
        in
        let lo_min =
          List.fold_left
            (fun acc (_, (lo, _)) -> Float.min acc lo)
            infinity scored
        in
        (chosen, lo_min, consulted)
  in
  let rec loop est refinements =
    let (order, (_, hi)), lo_min, consulted = score_round est in
    let epsilon =
      if hi <= lo_min then 0.0
      else (hi -. lo_min) /. Float.max lo_min 1e-9
    in
    if epsilon > epsilon_target then
      match B.refine est with
      | Some est' ->
          trace (fun () ->
              Printf.sprintf "pac: epsilon %.4g > %.4g, refining (round %d)"
                epsilon epsilon_target (refinements + 1));
          loop est' (refinements + 1)
      | None ->
          finish est order ~cost_bound:hi ~epsilon ~refinements ~consulted
    else finish est order ~cost_bound:hi ~epsilon ~refinements ~consulted
  in
  loop est 0
