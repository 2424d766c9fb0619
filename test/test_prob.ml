(* Unit tests for Acq_prob: indexes, views, histograms, mutual
   information, the Chow-Liu model, and the probability backends. *)

module Rng = Acq_util.Rng
module DS = Acq_data.Dataset
module S = Acq_data.Schema
module A = Acq_data.Attribute
module R = Acq_plan.Range
module Pred = Acq_plan.Predicate
module V = Acq_prob.View
module H = Acq_prob.Histogram
module B = Acq_prob.Backend

let check_float = Alcotest.(check (float 1e-9))
let check_floatish = Alcotest.(check (float 0.02))

let mk_schema () =
  S.create
    [
      A.discrete ~name:"a" ~cost:1.0 ~domain:4;
      A.discrete ~name:"b" ~cost:10.0 ~domain:3;
      A.discrete ~name:"c" ~cost:100.0 ~domain:2;
    ]

let mk_dataset () =
  (* 8 rows, chosen so marginals are easy to verify by hand. *)
  DS.create (mk_schema ())
    [|
      [| 0; 0; 0 |];
      [| 1; 0; 1 |];
      [| 2; 1; 0 |];
      [| 3; 1; 1 |];
      [| 0; 2; 0 |];
      [| 1; 2; 1 |];
      [| 2; 0; 0 |];
      [| 3; 1; 1 |];
    |]

(* ------------------------------------------------------------------ *)
(* View *)

let test_view_full () =
  let ds = mk_dataset () in
  let v = V.of_dataset ds in
  Alcotest.(check int) "size" 8 (V.size v);
  Alcotest.(check bool) "not empty" false (V.is_empty v)

let test_view_restrict_range () =
  let ds = mk_dataset () in
  let v = V.restrict_range (V.of_dataset ds) ~attr:0 (R.make 0 1) in
  Alcotest.(check int) "4 rows with a<=1" 4 (V.size v);
  let v2 = V.restrict_range v ~attr:2 (R.make 1 1) in
  Alcotest.(check int) "then c=1" 2 (V.size v2)

let test_view_restrict_pred () =
  let ds = mk_dataset () in
  let p = Pred.inside ~attr:1 ~lo:0 ~hi:0 in
  let sat = V.restrict_pred (V.of_dataset ds) p true in
  let unsat = V.restrict_pred (V.of_dataset ds) p false in
  Alcotest.(check int) "b=0 rows" 3 (V.size sat);
  Alcotest.(check int) "complement" 5 (V.size unsat)

let test_view_histogram () =
  let ds = mk_dataset () in
  Alcotest.(check (array int)) "histogram of a" [| 2; 2; 2; 2 |]
    (V.histogram (V.of_dataset ds) ~attr:0);
  Alcotest.(check (array int)) "histogram of b" [| 3; 3; 2 |]
    (V.histogram (V.of_dataset ds) ~attr:1)

let test_view_probs () =
  let ds = mk_dataset () in
  let v = V.of_dataset ds in
  check_float "range prob" 0.5 (V.range_prob v ~attr:0 (R.make 0 1));
  check_float "pred prob" 0.5
    (V.pred_prob v (Pred.inside ~attr:2 ~lo:1 ~hi:1));
  let empty =
    V.restrict_range
      (V.restrict_range v ~attr:1 (R.make 2 2))
      ~attr:0 (R.make 2 2)
  in
  check_float "empty view prob" 0.0 (V.range_prob empty ~attr:0 (R.make 0 3))

let test_view_pattern_counts () =
  let ds = mk_dataset () in
  let v = V.of_dataset ds in
  let preds =
    [| Pred.inside ~attr:2 ~lo:1 ~hi:1; Pred.inside ~attr:1 ~lo:0 ~hi:1 |]
  in
  let counts = V.pattern_counts v preds in
  Alcotest.(check int) "4 patterns" 4 (Array.length counts);
  Alcotest.(check int) "total is view size" 8 (Acq_util.Array_util.sum_int counts);
  (* Pattern 3 = c=1 and b in {0,1}: rows 1,3,7. *)
  Alcotest.(check int) "pattern 11" 3 counts.(3);
  (* Codes are per view: another view's are refused, not misread. *)
  let codes = V.patterns v preds in
  Alcotest.(check (array int)) "histograms sum to the pattern counts" counts
    (Array.map Acq_util.Array_util.sum_int (V.pattern_histograms v ~attr:0 codes));
  let half = V.restrict_range v ~attr:2 (R.make 1 1) in
  Alcotest.check_raises "codes of another view"
    (Invalid_argument "View.pattern_histograms: patterns of another view")
    (fun () -> ignore (V.pattern_histograms half ~attr:0 codes : int array array))

(* Every counting kernel of View, and the empirical backend's count
   tables built on them, against references written here with
   [Dataset.get] -- an oracle independent of View, which test_backend's
   differential uses as its own oracle. Random datasets of arity 1-4
   over domains of 2-6 values with 0-40 rows; views are a random row
   subset (often empty); ranges and predicate bands may reach past the
   domain on either side; predicates are [Inside] or [Outside]. *)

type kernel_instance = {
  k_domains : int array;
  k_cells : int array array;  (** rows *)
  k_keep : bool array;  (** which rows the view holds *)
  k_ranges : (int * int * int) array;  (** attr, lo, hi *)
  k_preds : (int * int * int * bool) array;  (** attr, lo, hi, inside *)
}

let kernel_gen =
  QCheck2.Gen.(
    let* n = int_range 1 4 in
    let* k_domains = array_repeat n (int_range 2 6) in
    let* rows = int_range 0 40 in
    let* k_cells =
      array_repeat rows (flatten_a (Array.map (fun d -> int_range 0 (d - 1)) k_domains))
    in
    let* density = int_range 0 4 in
    let* k_keep = array_repeat rows (map (fun x -> x < density) (int_range 0 3)) in
    let band =
      let* attr = int_range 0 (n - 1) in
      let d = k_domains.(attr) in
      let* lo = int_range (-2) (d + 1) in
      let* hi = int_range lo (d + 2) in
      return (attr, lo, hi)
    in
    let* k_ranges = array_repeat 3 band in
    let* k_preds =
      array_repeat 4
        (map2 (fun (attr, lo, hi) inside -> (attr, lo, hi, inside)) band bool)
    in
    return { k_domains; k_cells; k_keep; k_ranges; k_preds })

let kernel_print i =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf "{domains=[%s]; rows=[%s]; keep=[%s]; ranges=[%s]; preds=[%s]}"
    (ints i.k_domains)
    (String.concat ";" (Array.to_list (Array.map ints i.k_cells)))
    (String.concat ""
       (Array.to_list (Array.map (fun b -> if b then "1" else "0") i.k_keep)))
    (String.concat ";"
       (Array.to_list
          (Array.map (fun (a, l, h) -> Printf.sprintf "%d:%d..%d" a l h) i.k_ranges)))
    (String.concat ";"
       (Array.to_list
          (Array.map
             (fun (a, l, h, ins) ->
               Printf.sprintf "%s%d:%d..%d" (if ins then "" else "!") a l h)
             i.k_preds)))

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let ratio c n = if n = 0 then 0.0 else float_of_int c /. float_of_int n

let prop_kernels_match_reference =
  QCheck2.Test.make ~count:500 ~name:"view kernels and tables match Dataset.get"
    ~print:kernel_print kernel_gen (fun i ->
      let n = Array.length i.k_domains in
      let schema =
        S.create
          (List.init n (fun a ->
               A.discrete ~name:(Printf.sprintf "a%d" a) ~cost:1.0
                 ~domain:i.k_domains.(a)))
      in
      let ds = DS.create schema i.k_cells in
      let ids =
        List.filter (fun r -> i.k_keep.(r)) (List.init (DS.nrows ds) Fun.id)
      in
      let v = V.of_rows ds (Array.of_list ids) in
      let size = List.length ids in
      let rows_of v = Array.to_list (Array.init (V.size v) (V.row_id v)) in
      let holds (p : Pred.t) r = Pred.eval p (DS.get ds r p.attr) in
      let count f = List.length (List.filter f ids) in
      let fail what = QCheck2.Test.fail_reportf "%s differs from the reference" what in
      let check what ok = if not ok then fail what in
      let same_floats what a b =
        check what (Array.length a = Array.length b && Array.for_all2 bits_equal a b)
      in
      let preds =
        Array.map (fun (attr, lo, hi, inside) ->
            if inside then Pred.inside ~attr ~lo ~hi else Pred.outside ~attr ~lo ~hi)
          i.k_preds
      in
      let pattern r =
        Acq_util.Array_util.fold_lefti
          (fun acc j p -> if holds p r then acc lor (1 lsl j) else acc)
          0 preds
      in
      let histogram ids attr =
        let h = Array.make i.k_domains.(attr) 0 in
        List.iter (fun r -> let x = DS.get ds r attr in h.(x) <- h.(x) + 1) ids;
        h
      in
      for attr = 0 to n - 1 do
        check "histogram" (V.histogram v ~attr = histogram ids attr)
      done;
      Array.iter
        (fun (attr, lo, hi) ->
          let r = R.make lo hi in
          let inside row = R.contains r (DS.get ds row attr) in
          check "restrict_range"
            (rows_of (V.restrict_range v ~attr r) = List.filter inside ids);
          check "range_count" (V.range_count v ~attr r = count inside);
          check "range_prob"
            (bits_equal (V.range_prob v ~attr r) (ratio (count inside) size)))
        i.k_ranges;
      Array.iter
        (fun p ->
          List.iter
            (fun truth ->
              check "restrict_pred"
                (rows_of (V.restrict_pred v p truth)
                = List.filter (fun r -> holds p r = truth) ids))
            [ true; false ];
          check "pred_prob" (bits_equal (V.pred_prob v p) (ratio (count (holds p)) size)))
        preds;
      let patterns ids =
        let counts = Array.make 16 0 in
        List.iter (fun r -> let m = pattern r in counts.(m) <- counts.(m) + 1) ids;
        counts
      in
      check "pattern_counts" (V.pattern_counts v preds = patterns ids);
      for attr = 0 to n - 1 do
        let want =
          Array.init 16 (fun m ->
              histogram (List.filter (fun r -> pattern r = m) ids) attr)
        in
        check "pattern_histograms"
          (V.pattern_histograms v ~attr (V.patterns v preds) = want)
      done;
      (* The empirical backend: the view's own tables, then a deferred
         child per range, whose answers come from its parent's tables. *)
      let b = B.of_view v in
      let ratios counts k = Array.map (fun x -> ratio x k) counts in
      for a = 0 to n - 1 do
        same_floats "value_probs" (B.value_probs b a) (ratios (histogram ids a) size)
      done;
      same_floats "pattern_probs" (B.pattern_probs b preds) (ratios (patterns ids) size);
      Array.iter
        (fun (attr, lo, hi) ->
          let r = R.make lo hi in
          let child_ids =
            List.filter (fun row -> R.contains r (DS.get ds row attr)) ids
          in
          let c = B.restrict_range b attr r in
          let m = List.length child_ids in
          check "child weight" (bits_equal (B.weight c) (float_of_int m));
          for a = 0 to n - 1 do
            same_floats "child value_probs" (B.value_probs c a)
              (ratios (histogram child_ids a) m)
          done;
          same_floats "child pattern_probs" (B.pattern_probs c preds)
            (ratios (patterns child_ids) m))
        i.k_ranges;
      true)

(* ------------------------------------------------------------------ *)
(* Histogram *)

let test_histogram_eq7 () =
  let h = H.of_counts [| 2; 3; 0; 5 |] in
  Alcotest.(check int) "total" 10 (H.total h);
  check_float "prob of 1" 0.3 (H.prob h 1);
  check_float "P(<2)" 0.5 (H.prob_below h 2);
  (* Equation (7): P(< x+1) = P(< x) + P(x). *)
  for x = 0 to 3 do
    check_float "incremental rule"
      (H.prob_below h x +. H.prob h x)
      (H.prob_below h (x + 1))
  done;
  check_float "range" 0.8 (H.prob_range h (R.make 1 3));
  Alcotest.(check int) "count range" 8 (H.count_range h (R.make 1 3))

let test_histogram_of_view () =
  let ds = mk_dataset () in
  let h = H.of_view (V.of_dataset ds) ~attr:1 in
  check_float "matches view histogram" (3.0 /. 8.0) (H.prob h 0)

let test_histogram_empty () =
  let h = H.of_counts [| 0; 0 |] in
  check_float "prob on empty" 0.0 (H.prob h 0);
  check_float "range on empty" 0.0 (H.prob_range h (R.make 0 1))

(* ------------------------------------------------------------------ *)
(* Mutual information *)

let test_mi_independent_near_zero () =
  let rng = Rng.create 2 in
  let schema =
    S.create
      [
        A.discrete ~name:"x" ~cost:1.0 ~domain:4;
        A.discrete ~name:"y" ~cost:1.0 ~domain:4;
      ]
  in
  let rows =
    Array.init 20_000 (fun _ -> [| Rng.int rng 4; Rng.int rng 4 |])
  in
  let ds = DS.create schema rows in
  Alcotest.(check bool) "MI ~ 0" true (Acq_prob.Mutual_info.mi ds 0 1 < 0.01)

let test_mi_identical_high () =
  let rng = Rng.create 3 in
  let schema =
    S.create
      [
        A.discrete ~name:"x" ~cost:1.0 ~domain:4;
        A.discrete ~name:"y" ~cost:1.0 ~domain:4;
      ]
  in
  let rows =
    Array.init 5_000 (fun _ ->
        let v = Rng.int rng 4 in
        [| v; v |])
  in
  let ds = DS.create schema rows in
  Alcotest.(check bool) "MI(X,X) near log 4" true
    (Acq_prob.Mutual_info.mi ds 0 1 > 1.2)

let test_mi_symmetry () =
  let ds = mk_dataset () in
  check_float "symmetric"
    (Acq_prob.Mutual_info.mi ds 0 1)
    (Acq_prob.Mutual_info.mi ds 1 0)

let test_mi_matrix () =
  let ds = mk_dataset () in
  let m = Acq_prob.Mutual_info.matrix ds in
  check_float "diagonal zero" 0.0 m.(1).(1);
  check_float "matrix symmetric" m.(0).(2) m.(2).(0)

(* ------------------------------------------------------------------ *)
(* Chow-Liu *)

(* Chain-structured data: x0 -> x1 -> x2, each copying its parent with
   probability 0.9. The learned tree must connect adjacent variables
   (0-1, 1-2), never the weaker 0-2 link. *)
let chain_dataset ?(rows = 20_000) () =
  let rng = Rng.create 4 in
  let schema =
    S.create
      [
        A.discrete ~name:"x0" ~cost:1.0 ~domain:2;
        A.discrete ~name:"x1" ~cost:1.0 ~domain:2;
        A.discrete ~name:"x2" ~cost:1.0 ~domain:2;
      ]
  in
  let rows =
    Array.init rows (fun _ ->
        let x0 = Rng.int rng 2 in
        let x1 = if Rng.bernoulli rng 0.9 then x0 else 1 - x0 in
        let x2 = if Rng.bernoulli rng 0.9 then x1 else 1 - x1 in
        [| x0; x1; x2 |])
  in
  DS.create schema rows

let test_chow_liu_structure () =
  let ds = chain_dataset () in
  let m = Acq_prob.Chow_liu.learn ds in
  (* Rooted at 0: expect parent(1) = 0 and parent(2) = 1. *)
  Alcotest.(check (option int)) "root has no parent" None
    (Acq_prob.Chow_liu.parent m 0);
  Alcotest.(check (option int)) "x1 -> x0" (Some 0)
    (Acq_prob.Chow_liu.parent m 1);
  Alcotest.(check (option int)) "x2 -> x1" (Some 1)
    (Acq_prob.Chow_liu.parent m 2)

let test_chow_liu_no_evidence_prob_one () =
  let ds = chain_dataset ~rows:2_000 () in
  let m = Acq_prob.Chow_liu.learn ds in
  check_float "P(no evidence) = 1" 1.0
    (Acq_prob.Chow_liu.evidence_prob m (Acq_prob.Chow_liu.no_evidence m))

let test_chow_liu_matches_empirical () =
  let ds = chain_dataset () in
  let m = Acq_prob.Chow_liu.learn ds in
  let v = V.of_dataset ds in
  (* P(x2 = 1) *)
  let e1 =
    Acq_prob.Chow_liu.and_range m (Acq_prob.Chow_liu.no_evidence m) 2 (R.make 1 1)
  in
  check_floatish "marginal x2" (V.range_prob v ~attr:2 (R.make 1 1))
    (Acq_prob.Chow_liu.evidence_prob m e1);
  (* P(x2 = 1 | x0 = 1) — a query that spans the whole chain. *)
  let given =
    Acq_prob.Chow_liu.and_range m (Acq_prob.Chow_liu.no_evidence m) 0 (R.make 1 1)
  in
  let joint = Acq_prob.Chow_liu.and_range m given 2 (R.make 1 1) in
  let emp =
    V.range_prob (V.restrict_range v ~attr:0 (R.make 1 1)) ~attr:2 (R.make 1 1)
  in
  check_floatish "P(x2|x0) via message passing" emp
    (Acq_prob.Chow_liu.cond_prob m ~given joint)

let test_chow_liu_marginal_normalized () =
  let ds = chain_dataset ~rows:5_000 () in
  let m = Acq_prob.Chow_liu.learn ds in
  let e =
    Acq_prob.Chow_liu.and_range m (Acq_prob.Chow_liu.no_evidence m) 0 (R.make 0 0)
  in
  let marg = Acq_prob.Chow_liu.marginal m e 2 in
  check_float "sums to 1" 1.0 (Acq_util.Array_util.sum_float marg)

let test_chow_liu_impossible_evidence () =
  let ds = chain_dataset ~rows:2_000 () in
  let m = Acq_prob.Chow_liu.learn ds in
  let e = Acq_prob.Chow_liu.no_evidence m in
  e.(0).(0) <- false;
  e.(0).(1) <- false;
  check_float "P(impossible) = 0" 0.0 (Acq_prob.Chow_liu.evidence_prob m e)

(* ------------------------------------------------------------------ *)
(* Estimator: the empirical and Chow-Liu backends *)

let test_estimator_empirical_basics () =
  let ds = mk_dataset () in
  let est = B.empirical ds in
  check_float "weight" 8.0 (B.weight est);
  check_float "range prob" 0.5 (B.range_prob est 0 (R.make 0 1));
  check_float "pred prob" 0.5 (B.pred_prob est (Pred.inside ~attr:2 ~lo:1 ~hi:1));
  let vp = B.value_probs est 1 in
  check_float "value probs" (3.0 /. 8.0) vp.(0);
  check_float "value probs sum" 1.0 (Acq_util.Array_util.sum_float vp)

let test_estimator_restrict_chain () =
  let ds = mk_dataset () in
  let est = B.empirical ds in
  let est' = B.restrict_range est 0 (R.make 0 1) in
  check_float "restricted weight" 4.0 (B.weight est');
  let est'' = B.restrict_pred est' (Pred.inside ~attr:2 ~lo:1 ~hi:1) true in
  check_float "chained weight" 2.0 (B.weight est'');
  Alcotest.(check bool) "not empty" false (B.is_empty est'');
  let empty = B.restrict_range est'' 1 (R.make 1 1) in
  Alcotest.(check bool) "b=1 never with a<=1,c=1" true (B.is_empty empty)

let test_estimator_pattern_probs_sum () =
  let ds = mk_dataset () in
  let probs =
    B.pattern_probs (B.empirical ds)
      [| Pred.inside ~attr:0 ~lo:0 ~hi:1; Pred.inside ~attr:1 ~lo:1 ~hi:2 |]
  in
  check_float "sum to 1" 1.0 (Acq_util.Array_util.sum_float probs)

let test_estimator_chow_liu_coherent () =
  let ds = chain_dataset () in
  let m = Acq_prob.Chow_liu.learn ds in
  let est = B.chow_liu m ~weight:1000.0 in
  let emp = B.empirical ds in
  check_floatish "marginal agreement"
    (B.pred_prob emp (Pred.inside ~attr:1 ~lo:1 ~hi:1))
    (B.pred_prob est (Pred.inside ~attr:1 ~lo:1 ~hi:1));
  let est' = B.restrict_range est 0 (R.make 1 1) in
  let emp' = B.restrict_range emp 0 (R.make 1 1) in
  check_floatish "conditional agreement"
    (B.pred_prob emp' (Pred.inside ~attr:2 ~lo:1 ~hi:1))
    (B.pred_prob est' (Pred.inside ~attr:2 ~lo:1 ~hi:1));
  let probs =
    B.pattern_probs est
      [| Pred.inside ~attr:0 ~lo:1 ~hi:1; Pred.inside ~attr:2 ~lo:1 ~hi:1 |]
  in
  check_floatish "pattern probs sum" 1.0 (Acq_util.Array_util.sum_float probs)

(* The documented 12-predicate ceiling of the Chow-Liu backend's
   pattern_probs: exactly 12 works (4096 inferences, a proper
   distribution), 13 raises Invalid_argument rather than silently
   enumerating 2^13 evidence combinations. *)
let test_estimator_chow_liu_pattern_limit () =
  let ds = chain_dataset () in
  let m = Acq_prob.Chow_liu.learn ds in
  let est = B.chow_liu m ~weight:1000.0 in
  (* Predicates may repeat attributes, so width 12 is reachable even
     on a 3-attribute schema. *)
  let preds n = Array.init n (fun j -> Pred.inside ~attr:(j mod 3) ~lo:1 ~hi:1) in
  let at_limit = B.pattern_probs est (preds 12) in
  Alcotest.(check int) "2^12 patterns" 4096 (Array.length at_limit);
  check_floatish "boundary distribution sums to 1" 1.0
    (Acq_util.Array_util.sum_float at_limit);
  (try
     ignore (B.pattern_probs est (preds 13));
     Alcotest.fail "expected 13-predicate rejection"
   with Invalid_argument _ -> ());
  (* The empirical backend has no such ceiling. *)
  Alcotest.(check int) "empirical handles 13" 8192
    (Array.length (B.pattern_probs (B.empirical ds) (preds 13)))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "prob"
    [
      ( "view",
        [
          Alcotest.test_case "full" `Quick test_view_full;
          Alcotest.test_case "restrict range" `Quick test_view_restrict_range;
          Alcotest.test_case "restrict pred" `Quick test_view_restrict_pred;
          Alcotest.test_case "histogram" `Quick test_view_histogram;
          Alcotest.test_case "probabilities" `Quick test_view_probs;
          Alcotest.test_case "pattern counts" `Quick test_view_pattern_counts;
          QCheck_alcotest.to_alcotest prop_kernels_match_reference;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "equation 7" `Quick test_histogram_eq7;
          Alcotest.test_case "of view" `Quick test_histogram_of_view;
          Alcotest.test_case "empty" `Quick test_histogram_empty;
        ] );
      ( "mutual_info",
        [
          Alcotest.test_case "independent" `Quick test_mi_independent_near_zero;
          Alcotest.test_case "identical" `Quick test_mi_identical_high;
          Alcotest.test_case "symmetry" `Quick test_mi_symmetry;
          Alcotest.test_case "matrix" `Quick test_mi_matrix;
        ] );
      ( "chow_liu",
        [
          Alcotest.test_case "structure" `Quick test_chow_liu_structure;
          Alcotest.test_case "no evidence" `Quick test_chow_liu_no_evidence_prob_one;
          Alcotest.test_case "matches empirical" `Quick
            test_chow_liu_matches_empirical;
          Alcotest.test_case "marginal normalized" `Quick
            test_chow_liu_marginal_normalized;
          Alcotest.test_case "impossible evidence" `Quick
            test_chow_liu_impossible_evidence;
        ] );
      ( "estimator",
        [
          Alcotest.test_case "empirical basics" `Quick
            test_estimator_empirical_basics;
          Alcotest.test_case "restrict chain" `Quick test_estimator_restrict_chain;
          Alcotest.test_case "pattern probs sum" `Quick
            test_estimator_pattern_probs_sum;
          Alcotest.test_case "chow-liu coherent" `Quick
            test_estimator_chow_liu_coherent;
          Alcotest.test_case "chow-liu pattern limit" `Quick
            test_estimator_chow_liu_pattern_limit;
        ] );
    ]
