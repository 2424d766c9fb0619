(* Sampling-based selectivity estimation (Trummer & Koch's PAC
   optimization setting): instead of a trained model, draw tuple
   samples from the live window and answer every probability query by
   counting over the sample, with a Hoeffding confidence interval
   alongside each point estimate.

   Determinism discipline: all randomness comes from one seed,
   expanded by [Rng.split_n] into one pre-split stream per refinement
   round *before* any draw happens. Round [k] always draws the same
   row set for a given (seed, window, n0), no matter which restricted
   descendant asked for the refinement or on which domain it ran — the
   same rule that makes the parallel portfolio bit-for-bit equal to
   the sequential sweep. *)

module Rng = Acq_util.Rng
module Stats = Acq_util.Stats

type op =
  | R of int * Acq_plan.Range.t
  | P of Acq_plan.Predicate.t * bool

type t = {
  source : View.t;  (* the full live window, never restricted *)
  sample : View.t;  (* the drawn rows, narrowed by the trail below *)
  trail : op list;  (* restrictions applied so far, newest first *)
  n0 : int;  (* round-0 sample budget *)
  delta : float;  (* per-estimate failure probability *)
  round : int;
  drawn : int;  (* root sample size of the current round *)
  streams : Rng.t array;  (* one pre-split stream per round *)
}

let default_seed = 0x5A3D
let max_rounds = 32

let round_size ~n0 ~total round =
  let rec double n k =
    if k <= 0 || n >= total then n else double (n * 2) (k - 1)
  in
  min total (double (max 1 n0) round)

(* Draw round [k]'s root sample from [source]. A budget covering the
   whole window degenerates to the source view itself, so the backend
   becomes exactly the empirical view counter — the agreement the
   differential tests pin to 1e-9. Streams are copied before use: the
   array is shared across the whole restriction tree, and a draw must
   not perturb a sibling's replay. Sampled positions are sorted, so
   ascending source ids stay ascending. *)
let draw_root source streams ~round ~m ~total =
  if m >= total then source
  else begin
    let pos =
      Rng.sample_without_replacement (Rng.copy streams.(round)) m total
    in
    Array.sort compare pos;
    View.of_rows (View.dataset source) (Array.map (View.row_id source) pos)
  end

let replay view trail =
  List.fold_left
    (fun v op ->
      match op with
      | R (attr, r) -> View.restrict_range v ~attr r
      | P (p, truth) -> View.restrict_pred v p truth)
    view (List.rev trail)

let of_view ?(seed = default_seed) ~n ~delta source =
  if n < 1 then invalid_arg "Sampled.of_view: sample budget must be positive";
  if delta <= 0.0 || delta >= 1.0 then
    invalid_arg "Sampled.of_view: delta must be in (0, 1)";
  let total = View.size source in
  let streams = Rng.split_n (Rng.create seed) max_rounds in
  let m = round_size ~n0:n ~total 0 in
  {
    source;
    sample = draw_root source streams ~round:0 ~m ~total;
    trail = [];
    n0 = n;
    delta;
    round = 0;
    drawn = m;
    streams;
  }

let create ?seed ~n ~delta ds = of_view ?seed ~n ~delta (View.of_dataset ds)

(* --- the Backend.S surface ---------------------------------------- *)

let name = "sampled"
let weight st = float_of_int (View.size st.sample)
let range_prob st attr r = View.range_prob st.sample ~attr r

let value_probs st attr =
  let counts = View.histogram st.sample ~attr in
  let total = float_of_int (View.size st.sample) in
  if total = 0.0 then Array.map (fun _ -> 0.0) counts
  else Array.map (fun c -> float_of_int c /. total) counts

let pred_prob st p = View.pred_prob st.sample p

let pattern_probs st preds =
  let counts = View.pattern_counts st.sample preds in
  let total = float_of_int (View.size st.sample) in
  if total = 0.0 then Array.map (fun _ -> 0.0) counts
  else Array.map (fun c -> float_of_int c /. total) counts

let restrict_range st attr r =
  {
    st with
    sample = View.restrict_range st.sample ~attr r;
    trail = R (attr, r) :: st.trail;
  }

let restrict_pred st p truth =
  {
    st with
    sample = View.restrict_pred st.sample p truth;
    trail = P (p, truth) :: st.trail;
  }

let max_pattern_preds _ = None

(* --- confidence intervals ----------------------------------------- *)

let exhaustive st = st.drawn >= View.size st.source

(* Interval around a point estimate computed over the *restricted*
   sample: the estimate is a mean of [size sample] Bernoulli draws, so
   the Hoeffding radius applies with that count. A sample that covers
   the whole window is exact; an empty one is vacuous. *)
let ci st p =
  if exhaustive st then (p, p)
  else
    let m = View.size st.sample in
    if m = 0 then (0.0, 1.0)
    else begin
      let eps = Stats.hoeffding_radius ~n:m ~delta:st.delta in
      (Float.max 0.0 (p -. eps), Float.min 1.0 (p +. eps))
    end

let pred_prob_ci st p = ci st (pred_prob st p)

(* Wilson view of the same estimate — tighter away from p = 1/2, used
   by diagnostics rather than by the certificate math (its coverage is
   asymptotic where Hoeffding's is guaranteed). *)
let pred_prob_wilson st p =
  let m = View.size st.sample in
  if exhaustive st then begin
    let x = pred_prob st p in
    (x, x)
  end
  else if m = 0 then (0.0, 1.0)
  else begin
    let pos =
      int_of_float
        (Float.round (pred_prob st p *. float_of_int m))
    in
    Stats.wilson_ci ~pos ~n:m ~delta:st.delta
  end

(* Once the sample covers the whole window every interval is
   degenerate, so the per-interval failure probability a consumer
   should union-bound with is 0, not the configured delta. *)
let info st = (st.drawn, if exhaustive st then 0.0 else st.delta)

(* --- refinement ---------------------------------------------------- *)

(* Double the root sample and replay this state's restriction trail
   over the fresh draw. Returns [None] once the window is exhausted
   (the estimates are already exact) or the round streams run out. *)
let refine st =
  let total = View.size st.source in
  if st.drawn >= total || st.round + 1 >= max_rounds then None
  else begin
    let round = st.round + 1 in
    let m = round_size ~n0:st.n0 ~total round in
    let root = draw_root st.source st.streams ~round ~m ~total in
    Some { st with sample = replay root st.trail; round; drawn = m }
  end
