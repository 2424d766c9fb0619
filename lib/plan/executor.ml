module T = Acq_obs.Telemetry
module M = Acq_obs.Metrics

type outcome = { verdict : bool; cost : float; acquired : int list }

(* Pre-resolved instruments: one registry lookup per call (or per
   sweep), so the per-acquisition hot path is an array index, not a
   name-keyed registry lookup. Exposed so the compiled executor
   (Acq_exec) can record the same series. *)
module Instr = struct
  type t = {
    acq : M.counter array;  (* per-attribute acquisitions *)
    depth_hist : M.histogram;  (* plan tests traversed per tuple *)
    tuples_c : M.counter;
    matches_c : M.counter;
  }

  let of_obs obs q =
    match T.metrics obs with
    | None -> None
    | Some m ->
        let names = Acq_data.Schema.names (Query.schema q) in
        Some
          {
            acq =
              Array.map
                (fun name ->
                  M.counter m
                    ~help:"sensor acquisitions the executor paid for"
                    ~labels:[ ("attr", name) ]
                    "acqp_executor_acquisitions_total")
                names;
            depth_hist =
              M.histogram m ~help:"plan tests traversed per tuple" ~lowest:1.0
                ~growth:2.0 ~buckets:8 "acqp_executor_traversal_depth";
            tuples_c =
              M.counter m ~help:"tuples executed" "acqp_executor_tuples_total";
            matches_c =
              M.counter m ~help:"tuples satisfying the WHERE clause"
                "acqp_executor_matches_total";
          }

  let acquisition t attr = M.incr t.acq.(attr)

  let acquisitions t attr n =
    if n > 0 then M.add t.acq.(attr) (float_of_int n)

  let acquired t ~times order n =
    for k = 0 to n - 1 do
      M.add_int t.acq.(order.(k)) times
    done

  let tuple t ~times ~verdict ~tests =
    M.add_int t.tuples_c times;
    if verdict then M.add_int t.matches_c times;
    M.observe_int_times t.depth_hist tests times

  let tuples t ~n ~matches =
    M.add t.tuples_c (float_of_int n);
    M.add t.matches_c (float_of_int matches)

  let depth t tests = M.observe_int t.depth_hist tests
end

(* Neutral audit tap: the calibration layer (Acq_audit) lives above
   this library, so the executor only exposes a pair of callbacks and
   reports raw observations — band membership per step, realized cost
   per tuple. Band membership (lo <= v <= hi), not the
   polarity-adjusted predicate verdict, is what the step reports:
   that is the event whose probability the planner's estimator
   predicted, and it is what the compiled automaton branches on, so
   both execution paths feed identical observations. *)
module Audit_hook = struct
  type t = {
    on_step : attr:int -> hit:bool -> unit;
        (** One test or sequential step, in traversal order. [hit] is
            band membership: [v >= threshold] for a {!Plan.Test} node,
            [lo <= v <= hi] for a sequential predicate step. *)
    on_tuple : verdict:bool -> cost:float -> unit;
        (** End of one tuple's traversal with its realized
            acquisition cost. *)
  }
end

(* The single acquisition-accounting core: every public entry point —
   closure lookup, array tuple, dataset sweep — is a wrapper around
   this one traversal, so the atomic-cost rule lives in exactly one
   place. *)
let run_instr ?model ?audit ~instr q ~costs plan ~lookup =
  let model =
    match model with Some m -> m | None -> Cost_model.uniform costs
  in
  let n = Array.length costs in
  let acquired = Array.make n false in
  let order = ref [] in
  let cost = ref 0.0 in
  let tests = ref 0 in
  let touch attr =
    if not acquired.(attr) then begin
      cost :=
        !cost +. Cost_model.atomic model attr ~acquired:(fun j -> acquired.(j));
      acquired.(attr) <- true;
      order := attr :: !order;
      match instr with Some i -> Instr.acquisition i attr | None -> ()
    end;
    lookup attr
  in
  let rec exec = function
    | Plan.Leaf (Plan.Const b) -> b
    | Plan.Leaf (Plan.Seq preds) ->
        let rec eval_from i =
          if i >= Array.length preds then true
          else
            let p = Query.predicate q preds.(i) in
            let v = touch p.attr in
            let keep = Predicate.eval p v in
            (match audit with
            | Some a ->
                (* Band membership, independent of polarity. *)
                let hit =
                  match p.polarity with
                  | Predicate.Inside -> keep
                  | Predicate.Outside -> not keep
                in
                a.Audit_hook.on_step ~attr:p.attr ~hit
            | None -> ());
            if keep then eval_from (i + 1) else false
        in
        eval_from 0
    | Plan.Test { attr; threshold; low; high } ->
        incr tests;
        let v = touch attr in
        let hit = v >= threshold in
        (match audit with
        | Some a -> a.Audit_hook.on_step ~attr ~hit
        | None -> ());
        if hit then exec high else exec low
  in
  let verdict = exec plan in
  (match instr with
  | Some i -> Instr.tuple i ~times:1 ~verdict ~tests:!tests
  | None -> ());
  (match audit with
  | Some a -> a.Audit_hook.on_tuple ~verdict ~cost:!cost
  | None -> ());
  { verdict; cost = !cost; acquired = List.rev !order }

let run ?model ?(obs = T.noop) ?audit q ~costs plan ~lookup =
  run_instr ?model ?audit ~instr:(Instr.of_obs obs q) q ~costs plan ~lookup

let run_tuple ?model ?obs ?audit q ~costs plan tuple =
  run ?model ?obs ?audit q ~costs plan ~lookup:(fun attr -> tuple.(attr))

(* Shared dataset sweep: resolve instruments once, then fold the core
   over every row. [average_cost] and [consistent] are both sweeps;
   only their folds differ. *)
let sweep ?model ?audit ~instr q ~costs plan data ~init ~f =
  let n = Acq_data.Dataset.nrows data in
  let acc = ref init in
  let r = ref 0 in
  let continue = ref true in
  while !continue && !r < n do
    let row = !r in
    let o =
      run_instr ?model ?audit ~instr q ~costs plan ~lookup:(fun a ->
          Acq_data.Dataset.get data row a)
    in
    (match f !acc row o with
    | `Continue acc' -> acc := acc'
    | `Stop acc' ->
        acc := acc';
        continue := false);
    incr r
  done;
  !acc

let average_cost ?model ?(obs = T.noop) ?audit q ~costs plan data =
  let n = Acq_data.Dataset.nrows data in
  if n = 0 then 0.0
  else
    T.span obs ~cat:"executor"
      ~attrs:[ ("rows", string_of_int n) ]
      "executor.average_cost"
    @@ fun () ->
    (* Instruments are resolved once per sweep — here and in the
       compiled path (Acq_exec.Batch), which additionally batches the
       counter updates themselves. *)
    let instr = Instr.of_obs obs q in
    let total =
      sweep ?model ?audit ~instr q ~costs plan data ~init:0.0
        ~f:(fun acc _ o -> `Continue (acc +. o.cost))
    in
    total /. float_of_int n

let consistent q ~costs plan data =
  let ncols = Acq_data.Dataset.ncols data in
  sweep ~instr:None q ~costs plan data ~init:true ~f:(fun _ row o ->
      let tuple = Array.init ncols (fun c -> Acq_data.Dataset.get data row c) in
      if o.verdict = Query.eval q tuple then `Continue true else `Stop false)
