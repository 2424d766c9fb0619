(* First-class probability backends: the estimator layer as packed,
   swappable selectivity kernels. Each backend is a module conforming
   to [S] packed with its state; planners talk to the packed [t]
   through the dispatch functions, so a backend change never touches
   planner code. *)

type sampling = { samples : int; delta : float }

module type S = sig
  type state

  val name : string
  val weight : state -> float
  val range_prob : state -> int -> Acq_plan.Range.t -> float
  val value_probs : state -> int -> float array
  val pred_prob : state -> Acq_plan.Predicate.t -> float
  val pattern_probs : state -> Acq_plan.Predicate.t array -> float array
  val pred_prob_ci : state -> Acq_plan.Predicate.t -> float * float
  val restrict_range : state -> int -> Acq_plan.Range.t -> state
  val restrict_pred : state -> Acq_plan.Predicate.t -> bool -> state
  val refine : state -> state option
  val sampling : state -> sampling option
  val max_pattern_preds : state -> int option
end

type t = B : (module S with type state = 's) * 's -> t

let name (B ((module M), _)) = M.name
let weight (B ((module M), s)) = M.weight s
let is_empty b = weight b <= 0.0
let range_prob (B ((module M), s)) attr r = M.range_prob s attr r
let value_probs (B ((module M), s)) attr = M.value_probs s attr
let pred_prob (B ((module M), s)) p = M.pred_prob s p
let pattern_probs (B ((module M), s)) preds = M.pattern_probs s preds
let pred_prob_ci (B ((module M), s)) p = M.pred_prob_ci s p

let restrict_range (B ((module M), s)) attr r =
  B ((module M), M.restrict_range s attr r)

let restrict_pred (B ((module M), s)) p truth =
  B ((module M), M.restrict_pred s p truth)

let refine (B ((module M), s)) =
  match M.refine s with None -> None | Some s' -> Some (B ((module M), s'))

let sampling (B ((module M), s)) = M.sampling s
let max_pattern_preds (B ((module M), s)) = M.max_pattern_preds s

(* Deterministic backends answer exactly: the interval collapses onto
   the point estimate, there is nothing to refine, and no sampling
   parameters to report. [Exact] provides that default surface. *)
module Exact (M : sig
  type state

  val pred_prob : state -> Acq_plan.Predicate.t -> float
end) =
struct
  let pred_prob_ci st p =
    let x = M.pred_prob st p in
    (x, x)

  let refine _ = None
  let sampling _ = None
end

(* ------------------------------------------------------------------ *)
(* Empirical: view counting. Every answer is an integer count over the
   rows consistent with the conditioning, divided exactly as
   {!View.range_prob} divides it, so how a count is obtained never
   changes a probability bit.

   Counts come from one pass per (state, attribute): a count table
   holds, for every truth pattern of the predicates the state's
   deferred children have been asked about, a prefix-summed histogram
   of the attribute's values (paper Section 5, Equation (7), extended
   to predicate patterns). [restrict_range] returns a deferred child
   that only names its parent, attribute and range; its weight, its
   [range_prob] and [value_probs] on that attribute and its
   [pattern_probs] are read off the parent's table for the attribute
   in O(2^k) per query. A child filters its rows only when something
   else needs them, so GreedySplit prices every candidate split of a
   node from one table per attribute instead of rescanning the node's
   rows per candidate.

   One backend may be read from several domains at once. Every cache is an [Atomic.t] slot that
   receives immutable values computed in full before they are
   published; domains racing on one slot may each compute a value, and
   whichever is kept answers every query identically. *)

type count_table = {
  attr : int;
  preds : Acq_plan.Predicate.t array;  (** the pattern bits, deduplicated *)
  by_pattern : Histogram.t array;  (** values of [attr], per pattern *)
  marginal : Histogram.t;
}

type empirical_state = {
  source : source;
  filtered : View.t option Atomic.t;  (** a [Narrowed] state's rows, once filtered *)
  tables : count_table list Atomic.t;  (** at most one per attribute *)
}

and source =
  | Rows of View.t  (** a fixed row set: the data, or a predicate restriction *)
  | Narrowed of {
      parent : empirical_state;
      attr : int;
      range : Acq_plan.Range.t;
    }  (** the parent's rows whose [attr] lies in [range] *)

let pattern_limit = 20

let ratio c n = if n = 0 then 0.0 else float_of_int c /. float_of_int n

(* [known] plus the predicates of [preds] it lacks; [known] itself
   (physically) when it lacks none. *)
let union known preds =
  Array.fold_left
    (fun acc p ->
      if Array.exists (Acq_plan.Predicate.equal p) acc then acc
      else Array.append acc [| p |])
    known preds

(* A table with [m] pattern bits costs [domain * 2^m] cells. It is
   worth building only while that stays within the rows it summarizes
   (beyond that, scanning the rows is cheaper). *)
let fits ~rows ~domain m = m <= pattern_limit && domain lsl m <= rows

let domain ds attr =
  (Acq_data.Schema.attr (Acq_data.Dataset.schema ds) attr).domain

let build_table view attr preds =
  let k = domain (View.dataset view) attr in
  let m = Array.length preds in
  let counts = View.pattern_histograms view ~attr preds in
  let by_pattern = Array.map Histogram.of_counts counts in
  let marginal =
    if m = 0 then by_pattern.(0)
    else
      Histogram.of_counts
        (Array.init k (fun v ->
             Array.fold_left (fun acc row -> acc + row.(v)) 0 counts))
  in
  { attr; preds; by_pattern; marginal }

let fresh_state source =
  { source; filtered = Atomic.make None; tables = Atomic.make [] }

let rec dataset st =
  match st.source with
  | Rows v -> View.dataset v
  | Narrowed { parent; _ } -> dataset parent

let rec view st =
  match st.source with
  | Rows v -> v
  | Narrowed { parent; attr; range } -> (
      match Atomic.get st.filtered with
      | Some v -> v
      | None ->
          let v = View.restrict_range (view parent) ~attr range in
          Atomic.set st.filtered (Some v);
          v)

let rec publish st t =
  let cur = Atomic.get st.tables in
  let next = t :: List.filter (fun u -> u.attr <> t.attr) cur in
  if Atomic.compare_and_set st.tables cur next then t else publish st t

(* The state's table for [attr]; pattern-free when first built. *)
let table st attr =
  match List.find_opt (fun t -> t.attr = attr) (Atomic.get st.tables) with
  | Some t -> t
  | None -> publish st (build_table (view st) attr [||])

(* A table for [attr] whose patterns cover [preds]: the current one,
   or a rebuild grown by [preds]. [None] when the grown table is too
   wide. *)
let covering st attr preds =
  let t = table st attr in
  let grown = union t.preds preds in
  if grown == t.preds then Some t
  else
    let v = view st in
    if
      fits ~rows:(View.size v) ~domain:(domain (View.dataset v) attr)
        (Array.length grown)
    then Some (publish st (build_table v attr grown))
    else None

(* Pattern probabilities of the rows of [t] whose attribute lies in
   [range]: each table pattern's count, folded onto the bits of
   [preds]. *)
let pattern_probs_of t range preds =
  let m = Array.length preds in
  let pos =
    Array.map
      (fun p ->
        let rec find j =
          if Acq_plan.Predicate.equal t.preds.(j) p then j else find (j + 1)
        in
        find 0)
      preds
  in
  let counts = Array.make (1 lsl m) 0 in
  Array.iteri
    (fun tmask h ->
      let c = Histogram.count_range h range in
      if c > 0 then begin
        let mask = ref 0 in
        for j = 0 to m - 1 do
          if tmask land (1 lsl pos.(j)) <> 0 then mask := !mask lor (1 lsl j)
        done;
        counts.(!mask) <- counts.(!mask) + c
      end)
    t.by_pattern;
  let n = Histogram.count_range t.marginal range in
  Array.map (fun c -> ratio c n) counts

let intersect (a : Acq_plan.Range.t) (b : Acq_plan.Range.t) =
  if Acq_plan.Range.intersects a b then
    Some (Acq_plan.Range.make (max a.lo b.lo) (min a.hi b.hi))
  else None

module Empirical_impl = struct
  type state = empirical_state

  let name = "empirical"

  let weight st =
    match (st.source, Atomic.get st.filtered) with
    | Narrowed { parent; attr; range }, None ->
        float_of_int (Histogram.count_range (table parent attr).marginal range)
    | (Rows _ | Narrowed _), _ -> float_of_int (View.size (view st))

  let range_prob st attr r =
    match st.source with
    | Narrowed { parent; attr = a; range } when a = attr ->
        let m = (table parent attr).marginal in
        let c =
          match intersect range r with
          | Some both -> Histogram.count_range m both
          | None -> 0
        in
        ratio c (Histogram.count_range m range)
    | Rows _ | Narrowed _ ->
        let n = View.size (view st) in
        ratio (Histogram.count_range (table st attr).marginal r) n

  let value_probs st attr =
    let count, n =
      match st.source with
      | Narrowed { parent; attr = a; range } when a = attr ->
          let m = (table parent attr).marginal in
          ( (fun v ->
              if Acq_plan.Range.contains range v then Histogram.count m v else 0),
            Histogram.count_range m range )
      | Rows _ | Narrowed _ ->
          let m = (table st attr).marginal in
          (Histogram.count m, Histogram.total m)
    in
    Array.init (domain (dataset st) attr) (fun v -> ratio (count v) n)

  let pred_prob st p = View.pred_prob (view st) p

  let pattern_probs st preds =
    if Array.length preds > pattern_limit then
      invalid_arg "Backend.empirical: too many predicates";
    let from_table =
      match st.source with
      | Narrowed { parent; attr; range } ->
          Option.map
            (fun t -> pattern_probs_of t range preds)
            (covering parent attr preds)
      | Rows _ -> None
    in
    match from_table with
    | Some probs -> probs
    | None ->
        let v = view st in
        let n = View.size v in
        Array.map (fun c -> ratio c n) (View.pattern_counts v preds)

  let restrict_range st attr r =
    fresh_state (Narrowed { parent = st; attr; range = r })

  let restrict_pred st p truth =
    fresh_state (Rows (View.restrict_pred (view st) p truth))

  include Exact (struct
    type nonrec state = state

    let pred_prob = pred_prob
  end)

  let max_pattern_preds _ = None
end

let of_view view = B ((module Empirical_impl), fresh_state (Rows view))

let empirical ds = of_view (View.of_dataset ds)

(* ------------------------------------------------------------------ *)
(* Independence: product of per-attribute histograms — the
   correlation-blind model a traditional optimizer assumes.
   Restriction narrows only the restricted attribute's mask; the
   histograms are shared across the restriction tree. *)

type indep_state = {
  i_domains : int array;
  hists : float array array;  (* base per-attribute counts, immutable *)
  masks : bool array array;  (* allowed values per attribute *)
  cweight : float;  (* total scaled by the conditioning probability *)
}

module Indep_impl = struct
  type state = indep_state

  let name = "independence"
  let weight st = st.cweight

  let mask_sum st a =
    let s = ref 0.0 in
    Array.iteri (fun v b -> if b then s := !s +. st.hists.(a).(v)) st.masks.(a);
    !s

  let cond_sum st a keep =
    let s = ref 0.0 in
    Array.iteri
      (fun v b -> if b && keep v then s := !s +. st.hists.(a).(v))
      st.masks.(a);
    !s

  let range_prob st attr r =
    let denom = mask_sum st attr in
    if denom <= 0.0 || st.cweight <= 0.0 then 0.0
    else cond_sum st attr (Acq_plan.Range.contains r) /. denom

  let value_probs st attr =
    let denom = mask_sum st attr in
    Array.mapi
      (fun v b ->
        if b && denom > 0.0 && st.cweight > 0.0 then st.hists.(attr).(v) /. denom
        else 0.0)
      st.masks.(attr)

  let pred_prob st (p : Acq_plan.Predicate.t) =
    let denom = mask_sum st p.attr in
    if denom <= 0.0 || st.cweight <= 0.0 then 0.0
    else cond_sum st p.attr (Acq_plan.Predicate.eval p) /. denom

  let pattern_probs st preds =
    let m = Array.length preds in
    if m > 20 then invalid_arg "Backend.independence: too many predicates";
    let out = Array.make (1 lsl m) 0.0 in
    if st.cweight <= 0.0 then out
    else begin
      (* Group predicate bits by attribute: across attributes the
         model factorizes, within one attribute the bits are jointly
         determined by that attribute's masked histogram. *)
      let n = Array.length st.i_domains in
      let groups = Array.make n [] in
      Array.iteri
        (fun j (p : Acq_plan.Predicate.t) -> groups.(p.attr) <- j :: groups.(p.attr))
        preds;
      Array.fill out 0 (Array.length out) 1.0;
      let dead = ref false in
      Array.iteri
        (fun a js ->
          if js <> [] then begin
            let denom = mask_sum st a in
            if denom <= 0.0 then dead := true
            else begin
              (* Joint distribution of this attribute's bits. *)
              let local = Hashtbl.create 8 in
              Array.iteri
                (fun v b ->
                  if b && st.hists.(a).(v) > 0.0 then begin
                    let key =
                      List.fold_left
                        (fun k j ->
                          if Acq_plan.Predicate.eval preds.(j) v then
                            k lor (1 lsl j)
                          else k)
                        0 js
                    in
                    let prev =
                      match Hashtbl.find_opt local key with
                      | Some x -> x
                      | None -> 0.0
                    in
                    Hashtbl.replace local key (prev +. st.hists.(a).(v))
                  end)
                st.masks.(a);
              let bits =
                List.fold_left (fun k j -> k lor (1 lsl j)) 0 js
              in
              Array.iteri
                (fun g _ ->
                  let key = g land bits in
                  let p =
                    match Hashtbl.find_opt local key with
                    | Some c -> c /. denom
                    | None -> 0.0
                  in
                  out.(g) <- out.(g) *. p)
                out
            end
          end)
        groups;
      if !dead then Array.fill out 0 (Array.length out) 0.0;
      out
    end

  let narrowed st masks =
    (* Scale the weight by the probability of the newly excluded
       values, mirroring how view counting shrinks the support. *)
    let factor = ref 1.0 in
    Array.iteri
      (fun a old_mask ->
        if old_mask <> masks.(a) then begin
          let olds = ref 0.0 and news = ref 0.0 in
          Array.iteri
            (fun v b -> if b then olds := !olds +. st.hists.(a).(v))
            old_mask;
          Array.iteri
            (fun v b -> if b then news := !news +. st.hists.(a).(v))
            masks.(a);
          factor := !factor *. (if !olds <= 0.0 then 0.0 else !news /. !olds)
        end)
      st.masks;
    { st with masks; cweight = st.cweight *. !factor }

  (* Intersect [attr]'s mask with [keep]; the other masks are shared. *)
  let narrow st attr keep =
    let masks = Array.copy st.masks in
    masks.(attr) <- Array.mapi (fun v b -> b && keep v) masks.(attr);
    narrowed st masks

  let restrict_range st attr r = narrow st attr (Acq_plan.Range.contains r)

  let restrict_pred st (p : Acq_plan.Predicate.t) truth =
    narrow st p.attr (fun v -> Acq_plan.Predicate.eval p v = truth)

  include Exact (struct
    type nonrec state = state

    let pred_prob = pred_prob
  end)

  let max_pattern_preds _ = None
end

let independence ds =
  let schema = Acq_data.Dataset.schema ds in
  let domains = Acq_data.Schema.domains schema in
  let hists = Array.map (fun k -> Array.make k 0.0) domains in
  Acq_data.Dataset.iter_rows ds (fun r ->
      Array.iteri
        (fun a h ->
          let v = Acq_data.Dataset.get ds r a in
          h.(v) <- h.(v) +. 1.0)
        hists);
  B
    ( (module Indep_impl),
      {
        i_domains = domains;
        hists;
        masks = Array.map (fun k -> Array.make k true) domains;
        cweight = float_of_int (Acq_data.Dataset.nrows ds);
      } )

(* ------------------------------------------------------------------ *)
(* Chow-Liu: tree Bayesian network. Conditioning is the evidence mask
   itself; [pattern_probs] uses the incremental Gray-code inference,
   and its 12-predicate limit is advertised as a capability instead
   of only discovered by a raise mid-plan. *)

type chow_liu_state = {
  model : Chow_liu.t;
  evidence : Chow_liu.evidence;
  cl_weight : float;
}

let chow_liu_max_pattern_preds = 12

module Chow_liu_impl = struct
  type state = chow_liu_state

  let name = "chow-liu"
  let weight st = st.cl_weight

  let range_prob st attr r =
    let e' = Chow_liu.and_range st.model st.evidence attr r in
    Chow_liu.cond_prob st.model ~given:st.evidence e'

  let value_probs st attr = Chow_liu.marginal st.model st.evidence attr

  let pred_prob st p =
    let e' = Chow_liu.and_pred st.model st.evidence p true in
    Chow_liu.cond_prob st.model ~given:st.evidence e'

  let pattern_probs st preds =
    if Array.length preds > chow_liu_max_pattern_preds then
      invalid_arg "Backend.chow_liu: pattern_probs limited to 12";
    Chow_liu.pattern_probs st.model st.evidence preds

  let with_evidence st e' =
    let p = Chow_liu.cond_prob st.model ~given:st.evidence e' in
    let w = st.cl_weight *. p in
    let w = if Chow_liu.evidence_prob st.model e' <= 0.0 then 0.0 else w in
    { st with evidence = e'; cl_weight = w }

  let restrict_range st attr r =
    with_evidence st (Chow_liu.and_range st.model st.evidence attr r)

  let restrict_pred st p truth =
    with_evidence st (Chow_liu.and_pred st.model st.evidence p truth)

  include Exact (struct
    type nonrec state = state

    let pred_prob = pred_prob
  end)

  let max_pattern_preds _ = Some chow_liu_max_pattern_preds
end

let chow_liu model ~weight =
  let e = Chow_liu.no_evidence model in
  let w = if Chow_liu.evidence_prob model e <= 0.0 then 0.0 else weight in
  B ((module Chow_liu_impl), { model; evidence = e; cl_weight = w })

(* ------------------------------------------------------------------ *)
(* Sampled: tuple-sample counting with Hoeffding confidence intervals
   ({!Sampled} holds the implementation; this wrapper packs it). The
   only backend whose [refine] and [sampling] are live — the PAC
   planner's certificate math keys off them. *)

module Sampled_impl = struct
  type state = Sampled.t

  let name = Sampled.name
  let weight = Sampled.weight
  let range_prob = Sampled.range_prob
  let value_probs = Sampled.value_probs
  let pred_prob = Sampled.pred_prob
  let pattern_probs = Sampled.pattern_probs
  let pred_prob_ci = Sampled.pred_prob_ci
  let restrict_range = Sampled.restrict_range
  let restrict_pred = Sampled.restrict_pred
  let refine = Sampled.refine

  let sampling st =
    let samples, delta = Sampled.info st in
    Some { samples; delta }

  let max_pattern_preds = Sampled.max_pattern_preds
end

let sampled ?seed ~n ~delta ds =
  B ((module Sampled_impl), Sampled.create ?seed ~n ~delta ds)

let sampled_of_view ?seed ~n ~delta view =
  B ((module Sampled_impl), Sampled.of_view ?seed ~n ~delta view)

(* ------------------------------------------------------------------ *)
(* Counting combinator: tick once per query and per restriction,
   recursively — the estimator-call accounting the search context
   applies around whatever backend the planner was handed. *)

type counting_state = { inner : t; tick : unit -> unit }

module Counting_impl = struct
  type state = counting_state

  let name = "counting"

  let weight st = weight st.inner

  let range_prob st attr r =
    st.tick ();
    range_prob st.inner attr r

  let value_probs st attr =
    st.tick ();
    value_probs st.inner attr

  let pred_prob st p =
    st.tick ();
    pred_prob st.inner p

  let pattern_probs st preds =
    st.tick ();
    pattern_probs st.inner preds

  let pred_prob_ci st p =
    st.tick ();
    pred_prob_ci st.inner p

  let restrict_range st attr r =
    st.tick ();
    { st with inner = restrict_range st.inner attr r }

  let restrict_pred st p truth =
    st.tick ();
    { st with inner = restrict_pred st.inner p truth }

  let refine st =
    match refine st.inner with
    | None -> None
    | Some inner ->
        st.tick ();
        Some { st with inner }

  let sampling st = sampling st.inner
  let max_pattern_preds st = max_pattern_preds st.inner
end

let counting ~tick b = B ((module Counting_impl), { inner = b; tick })

(* ------------------------------------------------------------------ *)
(* Backend selection: the [--model] surface threaded through planner
   options, adaptive sessions, experiments, and the CLI. *)

type kind =
  | Empirical
  | Chow_liu
  | Independence
  | Sampled of { n : int; delta : float }

type spec = { kind : kind; memoize : bool }

let default_spec = { kind = Empirical; memoize = false }

let default_sample_size = 256
let default_sample_delta = 0.05
let default_sampled_kind = Sampled { n = default_sample_size; delta = default_sample_delta }

(* Shortest decimal rendering that parses back to the same float, so
   [spec_of_string (spec_to_string s) = Ok s] holds for every delta. *)
let float_to_string f =
  let s = Printf.sprintf "%.12g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let kind_to_string = function
  | Empirical -> "empirical"
  | Chow_liu -> "chow-liu"
  | Independence -> "independence"
  | Sampled { n; delta } ->
      Printf.sprintf "sampled(%d,%s)" n (float_to_string delta)

let spec_to_string s = kind_to_string s.kind

type spec_error = { input : string; reason : string }

let spec_error_to_string e =
  Printf.sprintf "unknown model %S: %s" e.input e.reason

let spec_grammar =
  "expected empirical|chow-liu|independence|sampled[(n,delta)]"

let parse_sampled_args body =
  (* [body] is the text between the parentheses of [sampled(...)]. *)
  match String.split_on_char ',' body with
  | [ ns; ds ] -> (
      match int_of_string_opt (String.trim ns) with
      | Some n when n >= 1 -> (
          match float_of_string_opt (String.trim ds) with
          | Some d when d > 0.0 && d < 1.0 -> Ok (Sampled { n; delta = d })
          | Some _ | None -> Error "delta must be a float in (0, 1)")
      | Some _ | None -> Error "sample count must be a positive integer")
  | _ -> Error "expected sampled(n,delta)"

let spec_of_string str =
  let err reason = Error { input = str; reason } in
  let kind_of = function
    | "empirical" -> Some Empirical
    | "chow-liu" | "chow_liu" | "chowliu" -> Some Chow_liu
    | "independence" | "indep" -> Some Independence
    | "sampled" -> Some default_sampled_kind
    | _ -> None
  in
  let s = String.trim (String.lowercase_ascii str) in
  let parenthesized =
    String.length s > 8
    && String.sub s 0 8 = "sampled("
    && s.[String.length s - 1] = ')'
  in
  if parenthesized then
    match parse_sampled_args (String.sub s 8 (String.length s - 9)) with
    | Ok kind -> Ok { default_spec with kind }
    | Error reason -> err reason
  else
    match kind_of s with
    | Some kind -> Ok { default_spec with kind }
    | None -> err spec_grammar

let of_dataset ?(spec = default_spec) ds =
  match spec.kind with
  | Empirical -> empirical ds
  | Chow_liu ->
      chow_liu (Chow_liu.learn ds)
        ~weight:(float_of_int (Acq_data.Dataset.nrows ds))
  | Independence -> independence ds
  | Sampled { n; delta } -> sampled ~n ~delta ds
