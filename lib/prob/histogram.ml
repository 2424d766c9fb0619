type t = { prefix : int array; total : int }

let of_counts counts =
  let k = Array.length counts in
  let prefix = Array.make (k + 1) 0 in
  for v = 0 to k - 1 do
    prefix.(v + 1) <- prefix.(v) + counts.(v)
  done;
  { prefix; total = prefix.(k) }

let of_view view ~attr = of_counts (View.histogram view ~attr)

let total t = t.total

let count t v = t.prefix.(v + 1) - t.prefix.(v)

(* Ranges may reach past the domain ([Range.make] allows it); only the
   in-domain part holds samples. *)
let count_range t (r : Acq_plan.Range.t) =
  let lo = max 0 r.lo and hi = min (Array.length t.prefix - 2) r.hi in
  if lo > hi then 0 else t.prefix.(hi + 1) - t.prefix.(lo)

let ratio t c = if t.total = 0 then 0.0 else float_of_int c /. float_of_int t.total

let prob t v = ratio t (count t v)

let prob_below t x = ratio t t.prefix.(x)

let prob_range t r = ratio t (count_range t r)
