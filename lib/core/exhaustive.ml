exception Budget_exceeded = Search.Budget_exceeded

type memo =
  | Exact of float * Acq_plan.Plan.t
  | Lower_bound of float
      (* a previous bounded search proved the optimum is >= this *)

let default_budget = 2_000_000

let plan ?search ?model q ~costs ~grid base_est =
  let search =
    match search with
    | Some s -> s
    | None -> Search.create ~budget:default_budget ()
  in
  let schema = Acq_plan.Query.schema q in
  let domains = Acq_data.Schema.domains schema in
  let n = Array.length domains in
  let atomic_of ranges i =
    match model with
    | Some m -> Subproblem.acquisition_cost_model ranges ~domains ~model:m i
    | None -> Subproblem.acquisition_cost ranges ~domains ~costs i
  in
  let sort_costs =
    match model with
    | Some m -> Acq_plan.Cost_model.worst_case m
    | None -> costs
  in
  (* Cheap attributes first: good plans surface early, which tightens
     the pruning bound for the rest of the search. *)
  let attr_order =
    let idx = Array.init n (fun i -> i) in
    Array.sort (fun a b -> compare (sort_costs.(a), a) (sort_costs.(b), b)) idx;
    idx
  in
  let fallback_leaf ranges =
    (* Leaf for a branch the search will not model probabilistically:
       honor truth decided by the ranges, otherwise evaluate whatever
       is still unknown so the plan stays correct on any tuple. *)
    match Acq_plan.Query.truth_under q ranges with
    | Acq_plan.Predicate.True -> Acq_plan.Plan.const true
    | Acq_plan.Predicate.False -> Acq_plan.Plan.const false
    | Acq_plan.Predicate.Unknown ->
        Acq_plan.Plan.Leaf
          (Acq_plan.Plan.Seq
             (Array.of_list (Acq_plan.Query.unknown_predicates q ranges)))
  in
  let query_attrs = Array.of_list (Acq_plan.Query.attrs q) in
  let memo = Search.memo search in
  (* DP-tier instruments, resolved once per call: a counter per tier
     (attributes acquired so far, the DP's depth in the subproblem
     lattice) and the per-subproblem histogram. Each is forced at its
     first use -- where a by-name lookup would first have registered
     it -- so dumps keep their registration order. *)
  let obs = Search.telemetry search in
  let instrumented = Acq_obs.Telemetry.enabled obs in
  let metrics = Acq_obs.Telemetry.metrics obs in
  let tier_counters =
    Array.init (n + 1) (fun tier ->
        lazy
          (Option.map
             (fun m ->
               Acq_obs.Metrics.counter m
                 ~labels:[ ("tier", string_of_int tier) ]
                 "acqp_planner_subproblems_total")
             metrics))
  in
  let subproblem_ms =
    lazy
      (Option.map
         (fun m -> Acq_obs.Metrics.histogram m "acqp_planner_subproblem_ms")
         metrics)
  in
  (* [solve ranges lazy_est bound] returns [(cost, Some plan)] when an
     optimum strictly below [bound] exists, [(bound, None)] otherwise.
     The estimator is a thunk so that memo hits never pay for view
     restriction. *)
  let rec solve ranges lazy_est bound =
    match Acq_plan.Query.truth_under q ranges with
    | Acq_plan.Predicate.True -> (0.0, Some (Acq_plan.Plan.const true))
    | Acq_plan.Predicate.False -> (0.0, Some (Acq_plan.Plan.const false))
    | Acq_plan.Predicate.Unknown ->
        if Subproblem.all_acquired ranges ~domains query_attrs then
          (0.0, Some (fallback_leaf ranges))
        else begin
          let key = Subproblem.key ranges in
          match Hashtbl.find_opt memo key with
          | Some (Exact (cost, plan)) ->
              Search.hit search;
              if cost < bound then (cost, Some plan) else (bound, None)
          | Some (Lower_bound lb) when bound <= lb ->
              Search.hit search;
              (bound, None)
          | (Some (Lower_bound _) | None) as cached ->
              let est = Lazy.force lazy_est in
              if Acq_prob.Backend.is_empty est then
                (0.0, Some (fallback_leaf ranges))
              else begin
                Search.solved search;
                let t0 = if instrumented then Unix.gettimeofday () else 0.0 in
                let c_min = ref bound and best = ref None in
                Array.iter (fun i -> explore ranges est i c_min best) attr_order;
                let result =
                  match !best with
                  | Some plan when !c_min < bound ->
                      Hashtbl.replace memo key (Exact (!c_min, plan));
                      (!c_min, Some plan)
                  | Some _ | None ->
                      Search.pruned search;
                      (* Children narrow a range, so no solve below
                         this one wrote [key]: the lookup above still
                         holds. *)
                      let prev =
                        match cached with
                        | Some (Lower_bound lb) -> lb
                        | Some (Exact _) | None -> neg_infinity
                      in
                      Hashtbl.replace memo key
                        (Lower_bound (Float.max prev bound));
                      (bound, None)
                in
                if instrumented then begin
                  (* Inclusive solve time: children are timed inside
                     their parents. *)
                  let tier = ref 0 in
                  Array.iteri
                    (fun i _ ->
                      if Subproblem.acquired ranges ~domains i then incr tier)
                    ranges;
                  Option.iter Acq_obs.Metrics.incr
                    (Lazy.force tier_counters.(!tier));
                  Option.iter
                    (fun h ->
                      Acq_obs.Metrics.observe h
                        ((Unix.gettimeofday () -. t0) *. 1000.0))
                    (Lazy.force subproblem_ms)
                end;
                result
              end
        end
  and explore ranges est i c_min best =
    let candidates = Spsf.candidates grid i ranges.(i) in
    if candidates <> [] then begin
      let atomic = atomic_of ranges i in
      if atomic >= !c_min then Search.pruned search
      else begin
        (* One conditional histogram per attribute gives every split
           probability in O(1) — Equation (7)'s prefix-sum rule. *)
        let vp = Acq_prob.Backend.value_probs est i in
        let prefix = Array.make (Array.length vp + 1) 0.0 in
        Array.iteri (fun v p -> prefix.(v + 1) <- prefix.(v) +. p) vp;
        List.iter
          (fun x ->
            let lo_range, hi_range = Acq_plan.Range.split ranges.(i) x in
            let p_lo = prefix.(lo_range.hi + 1) -. prefix.(lo_range.lo) in
            let p_hi = 1.0 -. p_lo in
            let running = ref atomic in
            let side range p =
              let ranges' = Subproblem.with_range ranges i range in
              if p <= 0.0 then Some (0.0, fallback_leaf ranges')
              else begin
                let child_bound = (!c_min -. !running) /. p in
                let child_est =
                  lazy (Acq_prob.Backend.restrict_range est i range)
                in
                match solve ranges' child_est child_bound with
                | cost, Some plan -> Some (p *. cost, plan)
                | _, None -> None
              end
            in
            match side lo_range p_lo with
            | None -> ()
            | Some (w_lo, plan_lo) -> (
                running := !running +. w_lo;
                if !running < !c_min then
                  match side hi_range p_hi with
                  | None -> ()
                  | Some (w_hi, plan_hi) ->
                      running := !running +. w_hi;
                      if !running < !c_min then begin
                        c_min := !running;
                        best :=
                          Some
                            (Acq_plan.Plan.Test
                               {
                                 attr = i;
                                 threshold = x;
                                 low = plan_lo;
                                 high = plan_hi;
                               })
                      end))
          candidates
      end
    end

  in
  let est = Search.wrap_backend search base_est in
  let ranges0 = Subproblem.initial schema in
  let seq_order, seq_cost = Seq_planner.order ~search ?model q ~costs est in
  (* Seed with the sequential optimum; only a strictly better
     conditional plan displaces it, so ties keep the smaller plan. *)
  match solve ranges0 (lazy est) (seq_cost -. 1e-9) with
  | cost, Some plan -> (plan, cost)
  | _, None -> (Acq_plan.Plan.sequential seq_order, seq_cost)
