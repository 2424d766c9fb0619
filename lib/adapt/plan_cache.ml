module P = Acq_core.Planner
module T = Acq_obs.Telemetry

type entry = {
  result : P.result;
  epoch : int;  (** stats epoch parsed back out of the key *)
  mutable tick : int;  (** last-touched stamp for LRU *)
}

type t = {
  capacity : int;
  table : (string, entry) Hashtbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
  telemetry : T.t;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  size : int;
  capacity : int;
}

let create ?(telemetry = T.noop) ~capacity () =
  if capacity < 1 then invalid_arg "Plan_cache.create: capacity < 1";
  {
    capacity;
    table = Hashtbl.create (2 * capacity);
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
    telemetry;
  }

(* Keys start with "e<epoch>|" so [invalidate] can recover the epoch
   without a side table. *)
let key_epoch key =
  match String.index_opt key '|' with
  | Some i when i > 1 && key.[0] = 'e' -> (
      match int_of_string_opt (String.sub key 1 (i - 1)) with
      | Some e -> e
      | None -> 0)
  | _ -> 0

let signature ?options ?(stats_epoch = 0) ?window ~algorithm q =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "e%d|" stats_epoch);
  (match window with
  | Some (stream, rows) -> Buffer.add_string buf (Printf.sprintf "w%d:%d|" stream rows)
  | None -> ());
  Buffer.add_string buf (P.algorithm_name algorithm ^ "|");
  let schema = Acq_plan.Query.schema q in
  let names = Acq_data.Schema.names schema in
  let domains = Acq_data.Schema.domains schema in
  let costs = Acq_data.Schema.costs schema in
  Array.iteri
    (fun i n -> Buffer.add_string buf
        (Printf.sprintf "%s:%d:%g;" n domains.(i) costs.(i)))
    names;
  Buffer.add_char buf '|';
  let preds = Array.copy (Acq_plan.Query.predicates q) in
  Array.sort
    (fun (a : Acq_plan.Predicate.t) (b : Acq_plan.Predicate.t) ->
      compare
        (a.Acq_plan.Predicate.attr, a.lo, a.hi, a.polarity)
        (b.Acq_plan.Predicate.attr, b.lo, b.hi, b.polarity))
    preds;
  Array.iter
    (fun (p : Acq_plan.Predicate.t) ->
      Buffer.add_string buf
        (Printf.sprintf "%d:%d:%d:%s;" p.Acq_plan.Predicate.attr p.lo p.hi
           (match p.polarity with
           | Acq_plan.Predicate.Inside -> "in"
           | Acq_plan.Predicate.Outside -> "out")))
    preds;
  (match options with
  | None -> ()
  | Some (o : P.options) ->
      (* Only plan-shaping knobs: budgets and deadlines bound effort,
         they don't change which cached plan is valid to reuse. The
         probability model shapes the plan (different selectivity
         estimates, different tree), so it is part of the key —
         memoization is not (same probabilities, same plan). *)
      Buffer.add_string buf
        (Printf.sprintf "|k%d:r%d:t%d:a%g:m%s" o.P.max_splits
           o.P.split_points_per_attr o.P.optseq_threshold o.P.size_alpha
           (Acq_prob.Backend.kind_to_string o.P.prob_model.Acq_prob.Backend.kind));
      match o.P.candidate_attrs with
      | None -> ()
      | Some l ->
          Buffer.add_string buf
            (String.concat ","
               (List.map string_of_int (List.sort_uniq compare l))));
  Buffer.contents buf

let touch t e =
  t.clock <- t.clock + 1;
  e.tick <- t.clock

let set_size_gauge t =
  T.set t.telemetry "acqp_adapt_cache_size"
    (float_of_int (Hashtbl.length t.table))

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some e ->
      touch t e;
      t.hits <- t.hits + 1;
      T.incr t.telemetry "acqp_adapt_cache_hits_total";
      Some e.result
  | None ->
      t.misses <- t.misses + 1;
      T.incr t.telemetry "acqp_adapt_cache_misses_total";
      None

let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      match !victim with
      | Some (_, oldest) when oldest.tick <= e.tick -> ()
      | _ -> victim := Some (k, e))
    t.table;
  match !victim with
  | None -> ()
  | Some (k, _) ->
      Hashtbl.remove t.table k;
      t.evictions <- t.evictions + 1;
      T.incr t.telemetry "acqp_adapt_cache_evictions_total"

let add t key result =
  (if not (Hashtbl.mem t.table key) then
     if Hashtbl.length t.table >= t.capacity then evict_lru t);
  let e = { result; epoch = key_epoch key; tick = 0 } in
  touch t e;
  Hashtbl.replace t.table key e;
  set_size_gauge t

let find_or_plan t key plan =
  match find t key with
  | Some r -> r
  | None ->
      let r = plan () in
      add t key r;
      r

let invalidate t ~older_than =
  let stale =
    Hashtbl.fold
      (fun k e acc -> if e.epoch < older_than then k :: acc else acc)
      t.table []
  in
  List.iter (Hashtbl.remove t.table) stale;
  let n = List.length stale in
  t.invalidations <- t.invalidations + n;
  if n > 0 then begin
    T.add t.telemetry "acqp_adapt_cache_invalidations_total" (float_of_int n);
    set_size_gauge t
  end;
  n

let size t = Hashtbl.length t.table
let capacity (t : t) = t.capacity

let stats (t : t) =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    invalidations = t.invalidations;
    size = Hashtbl.length t.table;
    capacity = t.capacity;
  }
