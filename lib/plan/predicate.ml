type polarity = Inside | Outside

type t = { attr : int; lo : int; hi : int; polarity : polarity }

let make attr lo hi polarity =
  if attr < 0 then invalid_arg "Predicate: negative attribute index";
  if lo > hi then invalid_arg "Predicate: lo > hi";
  { attr; lo; hi; polarity }

let inside ~attr ~lo ~hi = make attr lo hi Inside

let outside ~attr ~lo ~hi = make attr lo hi Outside

let eval t v =
  let in_band = t.lo <= v && v <= t.hi in
  match t.polarity with Inside -> in_band | Outside -> not in_band

let eval_tuple t tuple = eval t tuple.(t.attr)

type truth = True | False | Unknown

(* [r] against the band [[t.lo, t.hi]]: {!Range.subset} and
   {!Range.intersects} spelled out, so no band range is built. *)
let truth_under t (r : Range.t) =
  let all_in = t.lo <= r.lo && r.hi <= t.hi in
  let none_in = r.hi < t.lo || t.hi < r.lo in
  match t.polarity with
  | Inside -> if all_in then True else if none_in then False else Unknown
  | Outside -> if all_in then False else if none_in then True else Unknown

let selectivity_interval t =
  match t.polarity with
  | Inside -> (t.lo, Some t.hi)
  | Outside -> (t.lo, None)

let describe schema t =
  let a = Acq_data.Schema.attr schema t.attr in
  let body =
    match a.binner with
    | None -> Printf.sprintf "%d <= %s <= %d" t.lo a.name t.hi
    | Some b ->
        (* Continuous: the band of bins [lo, hi] covers the raw
           interval [lower lo, upper hi]. *)
        Printf.sprintf "%.1f <= %s <= %.1f"
          (Acq_data.Discretize.lower b t.lo)
          a.name
          (Acq_data.Discretize.upper b t.hi)
  in
  match t.polarity with
  | Inside -> body
  | Outside -> "not(" ^ body ^ ")"

let equal a b =
  a.attr = b.attr && a.lo = b.lo && a.hi = b.hi && a.polarity = b.polarity
