type t = { schema : Schema.t; nrows : int; cells : int array }

let create schema rows =
  let ncols = Schema.arity schema in
  let nrows = Array.length rows in
  let domains = Schema.domains schema in
  let cells = Array.make (nrows * ncols) 0 in
  Array.iteri
    (fun r row ->
      if Array.length row <> ncols then
        invalid_arg "Dataset.create: ragged row";
      Array.iteri
        (fun c v ->
          if v < 0 || v >= domains.(c) then
            invalid_arg
              (Printf.sprintf "Dataset.create: cell (%d,%d)=%d out of domain %d"
                 r c v domains.(c));
          cells.((r * ncols) + c) <- v)
        row)
    rows;
  { schema; nrows; cells }

let schema t = t.schema

let nrows t = t.nrows

let ncols t = Schema.arity t.schema

let get t r c = t.cells.((r * Schema.arity t.schema) + c)

let cells t = t.cells

let row t r =
  let n = ncols t in
  Array.init n (fun c -> t.cells.((r * n) + c))

let column t c =
  let n = ncols t in
  Array.init t.nrows (fun r -> t.cells.((r * n) + c))

let columns t =
  let n = ncols t in
  let cols = Array.init n (fun _ -> Array.make t.nrows 0) in
  (* One pass over the row-major buffer, peeling cells into per-column
     arrays; the transpose is a fresh snapshot on every call because
     [of_raw] datasets may alias a producer's reusable buffer. *)
  let idx = ref 0 in
  for r = 0 to t.nrows - 1 do
    for c = 0 to n - 1 do
      cols.(c).(r) <- t.cells.(!idx);
      incr idx
    done
  done;
  cols

let of_raw schema nrows cells = { schema; nrows; cells }

let value_counts t =
  let n = ncols t in
  let counts = Array.map (fun k -> Array.make k 0) (Schema.domains t.schema) in
  (* One pass over the row-major buffer, column index cycling. *)
  let c = ref 0 in
  for i = 0 to (t.nrows * n) - 1 do
    let col = counts.(!c) in
    let v = t.cells.(i) in
    col.(v) <- col.(v) + 1;
    c := if !c + 1 = n then 0 else !c + 1
  done;
  counts

let split_by_time t ~train_fraction =
  if train_fraction <= 0.0 || train_fraction >= 1.0 then
    invalid_arg "Dataset.split_by_time: fraction must be in (0,1)";
  let n = ncols t in
  let ntrain = int_of_float (float_of_int t.nrows *. train_fraction) in
  let ntrain = max 1 (min (t.nrows - 1) ntrain) in
  let train = of_raw t.schema ntrain (Array.sub t.cells 0 (ntrain * n)) in
  let test =
    of_raw t.schema (t.nrows - ntrain)
      (Array.sub t.cells (ntrain * n) ((t.nrows - ntrain) * n))
  in
  (train, test)

let subsample t rng k =
  if k >= t.nrows then t
  else begin
    let ids = Acq_util.Rng.sample_without_replacement rng k t.nrows in
    Array.sort compare ids;
    let n = ncols t in
    let cells = Array.make (k * n) 0 in
    Array.iteri
      (fun i r -> Array.blit t.cells (r * n) cells (i * n) n)
      ids;
    of_raw t.schema k cells
  end

let append a b =
  if Schema.names a.schema <> Schema.names b.schema then
    invalid_arg "Dataset.append: schema mismatch";
  of_raw a.schema (a.nrows + b.nrows) (Array.append a.cells b.cells)

let coarsen t ~factors =
  let n = ncols t in
  if Array.length factors <> n then invalid_arg "Dataset.coarsen: arity mismatch";
  let old_schema = t.schema in
  let attrs =
    List.init n (fun i ->
        Attribute.coarsen (Schema.attr old_schema i) ~factor:factors.(i))
  in
  let schema = Schema.create attrs in
  let domains = Schema.domains schema in
  let old_domains = Schema.domains old_schema in
  (* Mirror Attribute.coarsen's clamping so cells match the new
     domains. *)
  let eff =
    Array.mapi (fun c f -> max 1 (min f (old_domains.(c) / 2))) factors
  in
  let cells =
    Array.mapi
      (fun idx v ->
        let c = idx mod n in
        min (domains.(c) - 1) (v / eff.(c)))
      t.cells
  in
  of_raw schema t.nrows cells

let iter_rows t f =
  for r = 0 to t.nrows - 1 do
    f r
  done
