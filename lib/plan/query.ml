type t = { schema : Acq_data.Schema.t; preds : Predicate.t array }

let create schema preds =
  if preds = [] then invalid_arg "Query.create: no predicates";
  let domains = Acq_data.Schema.domains schema in
  List.iter
    (fun (p : Predicate.t) ->
      if p.attr >= Array.length domains then
        invalid_arg "Query.create: predicate attribute out of schema";
      if p.hi >= domains.(p.attr) then
        invalid_arg "Query.create: predicate bound out of domain")
    preds;
  { schema; preds = Array.of_list preds }

let schema t = t.schema

let predicates t = Array.copy t.preds

let n_predicates t = Array.length t.preds

let predicate t j = t.preds.(j)

let attrs t =
  Array.to_list t.preds
  |> List.map (fun (p : Predicate.t) -> p.attr)
  |> List.sort_uniq compare

(* A loop, not a local recursive function: no closure per call. *)
let eval_at t cells ~base =
  let preds = t.preds in
  let j = ref 0 in
  while
    !j < Array.length preds
    &&
    let p = preds.(!j) in
    Predicate.eval p cells.(base + p.attr)
  do
    incr j
  done;
  !j = Array.length preds

let eval t tuple = eval_at t tuple ~base:0

let truth_under t ranges =
  let any_unknown = ref false in
  let any_false = ref false in
  Array.iter
    (fun (p : Predicate.t) ->
      match Predicate.truth_under p ranges.(p.attr) with
      | Predicate.False -> any_false := true
      | Predicate.Unknown -> any_unknown := true
      | Predicate.True -> ())
    t.preds;
  if !any_false then Predicate.False
  else if !any_unknown then Predicate.Unknown
  else Predicate.True

let unknown_predicates t ranges =
  Acq_util.Array_util.fold_lefti
    (fun acc j (p : Predicate.t) ->
      match Predicate.truth_under p ranges.(p.attr) with
      | Predicate.Unknown -> j :: acc
      | Predicate.True | Predicate.False -> acc)
    [] t.preds
  |> List.rev

let selectivity t data j =
  let p = t.preds.(j) in
  let n = Acq_data.Dataset.nrows data in
  if n = 0 then 0.0
  else begin
    let sat = ref 0 in
    for r = 0 to n - 1 do
      if Predicate.eval p (Acq_data.Dataset.get data r p.attr) then incr sat
    done;
    float_of_int !sat /. float_of_int n
  end

let describe t =
  String.concat " AND "
    (Array.to_list (Array.map (Predicate.describe t.schema) t.preds))
