(* A materialization slot: the last [len] rows at generation [gen],
   oldest first, packed into [buf]. *)
type slot = {
  mutable gen : int;  (* -1: empty *)
  mutable len : int;
  mutable buf : int array;
  mutable ds : Acq_data.Dataset.t option;
}

(* A memoized {!Window.drift_marginals}: the score of the last [size]
   rows against [reference] (by physical identity) counting [rows]. *)
type drift_memo = { reference : int array array; rows : int; size : int; value : float }

type t = {
  schema : Acq_data.Schema.t;
  domains : int array;
  stream : int;  (* process-unique: names the row sequence in cache keys *)
  mutable capacity : int;
  mutable ring : int array;
      (* [capacity] rows of [arity] cells, row i at [i * arity]; a push
         writes into the evicted row's cells, so pushes never allocate.
         Allocated at the first push. *)
  mutable head : int;  (* next write position *)
  mutable size : int;
  mutable generation : int;  (* rows pushed over the ring's life *)
  mutable base : int;  (* generation at the last [clear] *)
  counts : int array array;  (* per-attribute histograms of the [size] rows *)
  slots : slot array;
      (* two materializations, keyed by (generation, length), filled in
         turn so a replan can reuse packed storage without invalidating
         the dataset the previous replan is still reading *)
  mutable turn : int;  (* which of [slots] the next miss fills *)
  mutable ids : int array;  (* cached identity row ids for window views *)
  suffix : int array array;  (* histograms of a shorter suffix *)
  mutable suffix_gen : int;  (* the suffix [suffix] counts; -1: none *)
  mutable suffix_len : int;
  mutable refs : int array array list;
      (* the last few distinct references interned here, most recently
         used first *)
  mutable drift_gen : int;  (* the generation [drifts] belong to; -1: none *)
  mutable drifts : drift_memo list;
}

let next_stream = Atomic.make 0

let create schema ~capacity =
  if capacity < 1 then invalid_arg "Sliding.create: capacity < 1";
  let domains = Acq_data.Schema.domains schema in
  let empty () = { gen = -1; len = 0; buf = [||]; ds = None } in
  {
    schema;
    domains;
    stream = Atomic.fetch_and_add next_stream 1;
    capacity;
    ring = [||];
    head = 0;
    size = 0;
    generation = 0;
    base = 0;
    counts = Array.map (fun k -> Array.make k 0) domains;
    slots = [| empty (); empty () |];
    turn = 0;
    ids = [||];
    suffix = Array.map (fun k -> Array.make k 0) domains;
    suffix_gen = -1;
    suffix_len = 0;
    refs = [];
    drift_gen = -1;
    drifts = [];
  }

let schema t = t.schema
let capacity t = t.capacity
let size t = t.size
let is_full t = t.size = t.capacity

(* Ring index of the oldest of the last [len] rows. *)
let oldest t len = (t.head - len + t.capacity) mod t.capacity

(* Copy the last [len] rows, oldest first, into [dst] from cell 0. *)
let blit_last t len dst =
  let n = Array.length t.domains in
  let start = oldest t len in
  let tail = min len (t.capacity - start) in
  Array.blit t.ring (start * n) dst 0 (tail * n);
  Array.blit t.ring 0 dst (tail * n) ((len - tail) * n)

let reserve t capacity =
  if capacity > t.capacity then begin
    let n = Array.length t.domains in
    if Array.length t.ring > 0 then begin
      let ring = Array.make (capacity * n) 0 in
      blit_last t t.size ring;
      t.ring <- ring
    end;
    t.head <- t.size mod capacity;
    t.capacity <- capacity
  end

let push t row =
  let n = Array.length t.domains in
  if Array.length row <> n then invalid_arg "Sliding.push: arity mismatch";
  for a = 0 to n - 1 do
    let v = row.(a) in
    if v < 0 || v >= t.domains.(a) then
      invalid_arg "Sliding.push: value out of domain"
  done;
  if Array.length t.ring = 0 then t.ring <- Array.make (t.capacity * n) 0;
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
  t.generation <- t.generation + 1

let push_dataset t ds =
  Acq_data.Dataset.iter_rows ds (fun r -> push t (Acq_data.Dataset.row ds r))

let clear t =
  t.head <- 0;
  t.size <- 0;
  t.base <- t.generation;
  Array.iter (fun c -> Array.fill c 0 (Array.length c) 0) t.counts;
  Array.iter
    (fun s ->
      s.gen <- -1;
      s.ds <- None)
    t.slots;
  t.suffix_gen <- -1;
  t.drift_gen <- -1;
  t.drifts <- []

let histogram t attr = Array.copy t.counts.(attr)

let marginals t = Array.map Array.copy t.counts

(* Histograms of the last [len] rows: the ring's own when [len] is all
   of it, otherwise counted over the suffix once per (generation,
   length) and kept until the next suffix is asked for. *)
let counts_of t len =
  if len = t.size then t.counts
  else begin
    if t.suffix_gen <> t.generation || t.suffix_len <> len then begin
      let n = Array.length t.domains in
      Array.iter (fun c -> Array.fill c 0 (Array.length c) 0) t.suffix;
      let start = oldest t len in
      for k = 0 to len - 1 do
        let base = ((start + k) mod t.capacity) * n in
        for a = 0 to n - 1 do
          let v = t.ring.(base + a) in
          t.suffix.(a).(v) <- t.suffix.(a).(v) + 1
        done
      done;
      t.suffix_gen <- t.generation;
      t.suffix_len <- len
    end;
    t.suffix
  end

let materialize t len =
  if len = 0 then invalid_arg "Sliding.to_dataset: empty window";
  let hit i =
    let s = t.slots.(i) in
    s.gen = t.generation && s.len = len
  in
  let i = if hit 0 then 0 else if hit 1 then 1 else -1 in
  match if i >= 0 then t.slots.(i).ds else None with
  | Some ds ->
      (* The next miss fills the other slot, so a dataset stays valid
         through the next materialization, hit or miss. *)
      t.turn <- 1 - i;
      ds
  | None ->
      let s = t.slots.(t.turn) in
      t.turn <- 1 - t.turn;
      let need = len * Array.length t.domains in
      (* Steady state (a full window) keeps two capacity-sized buffers
         alive forever; only the filling phase reallocates. *)
      if Array.length s.buf <> need then s.buf <- Array.make need 0;
      blit_last t len s.buf;
      let ds = Acq_data.Dataset.of_raw t.schema len s.buf in
      s.gen <- t.generation;
      s.len <- len;
      s.ds <- Some ds;
      ds

let identity_ids t len =
  if Array.length t.ids <> len then t.ids <- Array.init len (fun i -> i);
  t.ids

let backend_of ?(spec = Backend.default_spec) t len =
  let ds = materialize t len in
  match spec.Backend.kind with
  | Backend.Empirical ->
      (* Zero-copy fast path: the view aliases the window's packed cell
         buffer and the cached identity id array. *)
      Backend.of_view (View.of_rows ds (identity_ids t len))
  | Backend.Sampled { n; delta } ->
      (* Zero-copy as well: the sampled backend draws from a view over
         the window's packed buffer and maps positions to row ids. *)
      Backend.sampled_of_view ~n ~delta (View.of_rows ds (identity_ids t len))
  | Backend.Chow_liu | Backend.Independence -> Backend.of_dataset ~spec ds

let drift_of counts ~size ~reference ~rows =
  let n = Array.length counts in
  if Array.length reference <> n then
    invalid_arg "Sliding.drift_marginals: arity mismatch";
  let ref_rows = float_of_int rows in
  let win_rows = float_of_int size in
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

let to_dataset t = materialize t t.size
let backend ?spec t = backend_of ?spec t t.size

let drift_marginals t ~reference ~rows =
  drift_of t.counts ~size:t.size ~reference ~rows

let marginals_of = Acq_data.Dataset.value_counts

(* Sessions built on one history, or rebased on one tick, hold equal
   snapshots; adopting the ring's copy makes them one physical array,
   which the drift memo keys on. *)
let intern_limit = 8

let intern t reference =
  match List.find_opt (fun r -> r == reference || r = reference) t.refs with
  | Some r ->
      t.refs <- r :: List.filter (( != ) r) t.refs;
      r
  | None ->
      t.refs <- reference :: List.filteri (fun i _ -> i < intern_limit - 1) t.refs;
      reference

let drift t ~reference =
  if Acq_data.Dataset.nrows reference = 0 || t.size = 0 then 0.0
  else
    drift_marginals t
      ~reference:(marginals_of reference)
      ~rows:(Acq_data.Dataset.nrows reference)

module Window = struct
  type ring = t
  type t = { ring : ring; capacity : int; start : int }

  let create ring ~capacity =
    if capacity < 1 then invalid_arg "Sliding.Window.create: capacity < 1";
    reserve ring capacity;
    { ring; capacity; start = ring.generation }

  let ring w = w.ring
  let capacity w = w.capacity

  let size w =
    min (w.ring.generation - max w.start w.ring.base) w.capacity

  let is_full w = size w = w.capacity
  let key w = (w.ring.stream, w.ring.generation, size w)
  let marginals w = Array.map Array.copy (counts_of w.ring (size w))

  let rec find_memo reference ~rows ~size = function
    | [] -> None
    | d :: rest ->
        if d.reference == reference && d.rows = rows && d.size = size then Some d
        else find_memo reference ~rows ~size rest

  (* The window's rows are the last [size] of the stream at the ring's
     generation, so within one generation the score is a function of
     (reference, rows, size): computed once however many windows ask. *)
  let drift_marginals w ~reference ~rows =
    let r = w.ring in
    let size = size w in
    if r.drift_gen <> r.generation then begin
      r.drift_gen <- r.generation;
      r.drifts <- []
    end;
    match find_memo reference ~rows ~size r.drifts with
    | Some d -> d.value
    | None ->
        let value = drift_of (counts_of r size) ~size ~reference ~rows in
        r.drifts <- { reference; rows; size; value } :: r.drifts;
        value

  let to_dataset w = materialize w.ring (size w)
  let backend ?spec w = backend_of ?spec w.ring (size w)
end
