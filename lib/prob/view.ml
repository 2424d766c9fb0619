type t = { data : Acq_data.Dataset.t; rows : int array }

let of_dataset data =
  { data; rows = Array.init (Acq_data.Dataset.nrows data) (fun i -> i) }

let of_rows data rows = { data; rows }

let dataset t = t.data

let row_id t i = t.rows.(i)

let size t = Array.length t.rows

let is_empty t = Array.length t.rows = 0

(* The counting kernels loop over the dataset's row-major cell buffer
   directly: row [r]'s cell for attribute [a] is [cells.((r * w) + a)],
   [w] the arity. Reaching each cell through [Dataset.get] or a per-row
   closure costs out-of-line calls per row when modules are compiled
   separately. *)
let cells t = (Acq_data.Dataset.cells t.data, Acq_data.Dataset.ncols t.data)

let domain t attr =
  (Acq_data.Schema.attr (Acq_data.Dataset.schema t.data) attr).domain

(* The view's rows whose [attr] lies in [[lo, hi]] when [inside],
   outside it otherwise. *)
let select t ~attr ~lo ~hi ~inside =
  let cells, w = cells t in
  let rows = t.rows in
  let n = Array.length rows in
  let buf = Array.make n 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let r = rows.(i) in
    let v = cells.((r * w) + attr) in
    if (lo <= v && v <= hi) = inside then begin
      buf.(!k) <- r;
      incr k
    end
  done;
  { data = t.data; rows = Array.sub buf 0 !k }

let restrict_range t ~attr (range : Acq_plan.Range.t) =
  select t ~attr ~lo:range.lo ~hi:range.hi ~inside:true

(* An [Outside] predicate holds exactly off its band. *)
let restrict_pred t (p : Acq_plan.Predicate.t) truth =
  let inside =
    match p.polarity with Inside -> truth | Outside -> not truth
  in
  select t ~attr:p.attr ~lo:p.lo ~hi:p.hi ~inside

let histogram t ~attr =
  let cells, w = cells t in
  let rows = t.rows in
  let counts = Array.make (domain t attr) 0 in
  for i = 0 to Array.length rows - 1 do
    let v = cells.((rows.(i) * w) + attr) in
    counts.(v) <- counts.(v) + 1
  done;
  counts

(* Rows whose [attr] lies in [[lo, hi]]. *)
let band_count t ~attr ~lo ~hi =
  let cells, w = cells t in
  let rows = t.rows in
  let c = ref 0 in
  for i = 0 to Array.length rows - 1 do
    let v = cells.((rows.(i) * w) + attr) in
    if lo <= v && v <= hi then incr c
  done;
  !c

let range_count t ~attr (range : Acq_plan.Range.t) =
  band_count t ~attr ~lo:range.lo ~hi:range.hi

let range_prob t ~attr range =
  let n = size t in
  if n = 0 then 0.0
  else float_of_int (range_count t ~attr range) /. float_of_int n

let pred_prob t (p : Acq_plan.Predicate.t) =
  let n = size t in
  if n = 0 then 0.0
  else begin
    let c = band_count t ~attr:p.attr ~lo:p.lo ~hi:p.hi in
    let c = match p.polarity with Inside -> c | Outside -> n - c in
    float_of_int c /. float_of_int n
  end

(* The truth pattern of the row whose cells start at [base]: bit [j]
   set when [preds.(j)] holds. *)
let pattern cells base (preds : Acq_plan.Predicate.t array) =
  let mask = ref 0 in
  for j = 0 to Array.length preds - 1 do
    let p = preds.(j) in
    let v = cells.(base + p.attr) in
    let in_band = p.lo <= v && v <= p.hi in
    if in_band = (p.polarity = Inside) then mask := !mask lor (1 lsl j)
  done;
  !mask

let pattern_counts t preds =
  let m = Array.length preds in
  if m > 20 then invalid_arg "View.pattern_counts: too many predicates";
  let cells, w = cells t in
  let rows = t.rows in
  let counts = Array.make (1 lsl m) 0 in
  for i = 0 to Array.length rows - 1 do
    let mask = pattern cells (rows.(i) * w) preds in
    counts.(mask) <- counts.(mask) + 1
  done;
  counts

(* Per-row truth patterns, in view order: one byte per row while the
   patterns fit in 8 bits, an int per row beyond. *)
type codes = Packed of Bytes.t | Wide of int array
type patterns = { bits : int; codes : codes }

let patterns t (preds : Acq_plan.Predicate.t array) =
  let m = Array.length preds in
  if m > 20 then invalid_arg "View.patterns: too many predicates";
  let cells, w = cells t in
  let rows = t.rows in
  let n = Array.length rows in
  if m = 0 then { bits = 0; codes = Packed Bytes.empty }
  else if m <= 8 then begin
    (* Predicate-major: each pass reads one attribute's cells and sets
       one bit, with the predicate's band hoisted out of the loop. *)
    let codes = Bytes.make n '\000' in
    Array.iteri
      (fun j (p : Acq_plan.Predicate.t) ->
        let attr = p.attr and lo = p.lo and hi = p.hi in
        let inside = p.polarity = Inside and bit = 1 lsl j in
        for i = 0 to n - 1 do
          let v = cells.((rows.(i) * w) + attr) in
          if (lo <= v && v <= hi) = inside then
            Bytes.unsafe_set codes i
              (Char.unsafe_chr (Char.code (Bytes.unsafe_get codes i) lor bit))
        done)
      preds;
    { bits = m; codes = Packed codes }
  end
  else
    {
      bits = m;
      codes = Wide (Array.init n (fun i -> pattern cells (rows.(i) * w) preds));
    }

let pattern_histograms t ~attr { bits; codes } =
  (* No predicates, no codes: the one pattern's histogram. *)
  if bits = 0 then [| histogram t ~attr |]
  else begin
    let cells, w = cells t in
    let rows = t.rows in
    let counts =
      Array.init (1 lsl bits) (fun _ -> Array.make (domain t attr) 0)
    in
    let n_codes =
      match codes with Packed c -> Bytes.length c | Wide c -> Array.length c
    in
    if n_codes <> Array.length rows then
      invalid_arg "View.pattern_histograms: patterns of another view";
    (match codes with
    | Packed codes ->
        for i = 0 to Array.length rows - 1 do
          let row = counts.(Char.code (Bytes.unsafe_get codes i)) in
          let v = cells.((rows.(i) * w) + attr) in
          row.(v) <- row.(v) + 1
        done
    | Wide codes ->
        for i = 0 to Array.length rows - 1 do
          let row = counts.(codes.(i)) in
          let v = cells.((rows.(i) * w) + attr) in
          row.(v) <- row.(v) + 1
        done);
    counts
  end

let iter t f = Array.iter f t.rows
