type t = {
  schema : Acq_data.Schema.t;
  capacity : int;
  domains : int array;
  ring : int array;
      (* [capacity] rows of [arity] cells, row i at [i * arity]; a push
         writes into the evicted row's cells, so pushes never allocate *)
  mutable head : int;  (* next write position *)
  mutable size : int;
  counts : int array array;  (* per-attribute incremental histograms *)
  mutable cached : Acq_data.Dataset.t option;
  bufs : int array array;
      (* two flat cell buffers, rotated between materializations so a
         replan can reuse packed storage without invalidating the
         dataset the previous replan is still reading *)
  mutable turn : int;  (* which of [bufs] the next materialization fills *)
  mutable ids : int array;  (* cached identity row ids for window views *)
}

let create schema ~capacity =
  if capacity < 1 then invalid_arg "Sliding.create: capacity < 1";
  let domains = Acq_data.Schema.domains schema in
  {
    schema;
    capacity;
    domains;
    ring = Array.make (capacity * Array.length domains) 0;
    head = 0;
    size = 0;
    counts = Array.map (fun k -> Array.make k 0) domains;
    cached = None;
    bufs = [| [||]; [||] |];
    turn = 0;
    ids = [||];
  }

let capacity t = t.capacity

let size t = t.size

let is_full t = t.size = t.capacity

let push t row =
  let n = Array.length t.domains in
  if Array.length row <> n then invalid_arg "Sliding.push: arity mismatch";
  for a = 0 to n - 1 do
    let v = row.(a) in
    if v < 0 || v >= t.domains.(a) then
      invalid_arg "Sliding.push: value out of domain"
  done;
  let base = t.head * n in
  if t.size = t.capacity then
    (* Evict the oldest row (the one about to be overwritten). *)
    for a = 0 to n - 1 do
      let v = t.ring.(base + a) in
      t.counts.(a).(v) <- t.counts.(a).(v) - 1
    done
  else t.size <- t.size + 1;
  Array.blit row 0 t.ring base n;
  for a = 0 to n - 1 do
    t.counts.(a).(row.(a)) <- t.counts.(a).(row.(a)) + 1
  done;
  t.head <- (t.head + 1) mod t.capacity;
  t.cached <- None

let push_dataset t ds =
  Acq_data.Dataset.iter_rows ds (fun r -> push t (Acq_data.Dataset.row ds r))

let clear t =
  t.head <- 0;
  t.size <- 0;
  Array.iter (fun c -> Array.fill c 0 (Array.length c) 0) t.counts;
  t.cached <- None

let histogram t attr = Array.copy t.counts.(attr)

let marginals t = Array.map Array.copy t.counts

let to_dataset t =
  if t.size = 0 then invalid_arg "Sliding.to_dataset: empty window";
  match t.cached with
  | Some ds -> ds
  | None ->
      let n = Array.length t.domains in
      let need = t.size * n in
      let buf =
        (* Steady state (full window) keeps two capacity-sized buffers
           alive forever; only the filling phase reallocates. *)
        let b = t.bufs.(t.turn) in
        if Array.length b = need then b
        else begin
          let b = Array.make need 0 in
          t.bufs.(t.turn) <- b;
          b
        end
      in
      t.turn <- 1 - t.turn;
      (* Oldest first: the rows from [start] to the ring's end, then
         the wrapped prefix. *)
      let start = if t.size = t.capacity then t.head else 0 in
      let tail = min t.size (t.capacity - start) in
      Array.blit t.ring (start * n) buf 0 (tail * n);
      Array.blit t.ring 0 buf (tail * n) ((t.size - tail) * n);
      let ds = Acq_data.Dataset.of_raw t.schema t.size buf in
      t.cached <- Some ds;
      ds

let identity_ids t =
  if Array.length t.ids <> t.size then t.ids <- Array.init t.size (fun i -> i);
  t.ids

let backend ?telemetry ?(spec = Backend.default_spec) t =
  let ds = to_dataset t in
  match spec.Backend.kind with
  | Backend.Empirical ->
      (* Zero-copy fast path: the view aliases the window's packed cell
         buffer and the cached identity id array. *)
      let b = Backend.of_view (View.of_rows ds (identity_ids t)) in
      if spec.Backend.memoize then Backend.memo ?telemetry b else b
  | Backend.Sampled { n; delta } ->
      (* Zero-copy as well: the sampled backend draws from a view over
         the window's packed buffer and maps positions to row ids. *)
      let b =
        Backend.sampled_of_view ~n ~delta (View.of_rows ds (identity_ids t))
      in
      if spec.Backend.memoize then Backend.memo ?telemetry b else b
  | Backend.Chow_liu | Backend.Independence ->
      Backend.of_dataset ?telemetry ~spec ds

let drift_marginals t ~reference ~rows =
  let counts = t.counts in
  let n = Array.length counts in
  if Array.length reference <> n then
    invalid_arg "Sliding.drift_marginals: arity mismatch";
  let ref_rows = float_of_int rows in
  let win_rows = float_of_int t.size in
  if ref_rows = 0.0 || win_rows = 0.0 then 0.0
  else begin
    let total = ref 0.0 in
    for a = 0 to n - 1 do
      (* Total variation = half the L1 distance between marginals. *)
      let tv = ref 0.0 in
      for v = 0 to Array.length counts.(a) - 1 do
        tv :=
          !tv
          +. Float.abs
               ((float_of_int counts.(a).(v) /. win_rows)
               -. (float_of_int reference.(a).(v) /. ref_rows))
      done;
      total := !total +. (!tv /. 2.0)
    done;
    !total /. float_of_int n
  end

let marginals_of ds =
  let domains = Acq_data.Schema.domains (Acq_data.Dataset.schema ds) in
  let n = Array.length domains in
  let counts = Array.map (fun k -> Array.make k 0) domains in
  Acq_data.Dataset.iter_rows ds (fun r ->
      for a = 0 to n - 1 do
        let v = Acq_data.Dataset.get ds r a in
        counts.(a).(v) <- counts.(a).(v) + 1
      done);
  counts

let drift t ~reference =
  if Acq_data.Dataset.nrows reference = 0 || t.size = 0 then 0.0
  else
    drift_marginals t
      ~reference:(marginals_of reference)
      ~rows:(Acq_data.Dataset.nrows reference)
