(* Tests for the pluggable probability backends (Acq_prob.Backend):
   cross-backend agreement on exhaustively enumerable domains, deferred
   empirical children against view scans, full-window samples planning
   like the empirical backend, the Chow-Liu incremental
   pattern inference, capability routing in the sequential planner,
   and the --model spec syntax. *)

module Rng = Acq_util.Rng
module DS = Acq_data.Dataset
module S = Acq_data.Schema
module A = Acq_data.Attribute
module R = Acq_plan.Range
module Pred = Acq_plan.Predicate
module Q = Acq_plan.Query
module B = Acq_prob.Backend
module CL = Acq_prob.Chow_liu
module P = Acq_core.Planner

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Fixtures *)

let named_schema domains =
  S.create
    (List.init (Array.length domains) (fun k ->
         A.discrete
           ~name:(Printf.sprintf "a%d" k)
           ~cost:(float_of_int (k + 1))
           ~domain:domains.(k)))

(* One row per point of the product domain: the uniform full-factorial
   dataset. Attributes are exactly independent and every marginal is
   exactly uniform, so all four backends — including Chow-Liu, whose
   Laplace smoothing preserves uniformity — represent the distribution
   without error and must agree to machine precision. *)
let factorial_dataset domains =
  let n = Array.length domains in
  let total = Array.fold_left ( * ) 1 domains in
  let rows =
    Array.init total (fun idx ->
        let r = Array.make n 0 in
        let rem = ref idx in
        for k = n - 1 downto 0 do
          r.(k) <- !rem mod domains.(k);
          rem := !rem / domains.(k)
        done;
        r)
  in
  DS.create (named_schema domains) rows

let contenders ds =
  [
    ("empirical", B.empirical ds);
    ("independence", B.independence ds);
    ("chow-liu", B.chow_liu (CL.learn ds) ~weight:(float_of_int (DS.nrows ds)));
    (* Budget >= window: the sample is the window itself, so the
       sampling backend must agree with empirical to the bit. *)
    ("sampled", B.sampled ~n:(DS.nrows ds) ~delta:0.05 ds);
  ]

(* Correlated dataset for the Chow-Liu tests. *)
let correlated_dataset seed domains rows =
  let n = Array.length domains in
  let rng = Rng.create seed in
  let data =
    Array.init rows (fun _ ->
        let regime = Rng.float rng 1.0 in
        Array.init n (fun k ->
            if Rng.bernoulli rng 0.75 then
              min
                (domains.(k) - 1)
                (int_of_float (regime *. float_of_int domains.(k)))
            else Rng.int rng domains.(k)))
  in
  DS.create (named_schema domains) data

(* ------------------------------------------------------------------ *)
(* Agreement property: every backend matches
   Empirical on range_prob / value_probs / pred_prob / pattern_probs,
   to 1e-9, before and after an arbitrary restriction chain. *)

type agree_instance = {
  domains : int array;
  raw_ops : (int * int * int) array;  (** one optional op per attribute *)
}

let agree_gen =
  QCheck2.Gen.(
    let* n = int_range 2 3 in
    let* domains = array_repeat n (int_range 2 4) in
    let* n_ops = int_range 0 n in
    let* raw_ops =
      array_repeat n_ops
        (triple (int_range 0 1000) (int_range 0 1000) (int_range 0 2))
    in
    return { domains; raw_ops })

let agree_print i =
  Printf.sprintf "{domains=[%s]; ops=[%s]}"
    (String.concat ";" (Array.to_list (Array.map string_of_int i.domains)))
    (String.concat ";"
       (Array.to_list
          (Array.map
             (fun (a, b, m) -> Printf.sprintf "(%d,%d,%d)" a b m)
             i.raw_ops)))

(* Op [i] restricts attribute [i] (distinct attributes keep every
   per-attribute allowed set non-empty). Mode 0 = observe a range,
   1 = condition on a predicate holding, 2 = on it failing — the
   latter clamped so the complement value set is never empty. *)
let normalize_ops domains raw_ops =
  Array.mapi
    (fun i (a, b, m) ->
      let d = domains.(i) in
      let lo = a mod d in
      let hi = lo + (b mod (d - lo)) in
      let mode = m mod 3 in
      let hi = if mode = 2 && lo = 0 && hi = d - 1 then d - 2 else hi in
      (i, lo, hi, mode))
    raw_ops

let apply_ops b ops =
  Array.fold_left
    (fun b (attr, lo, hi, mode) ->
      match mode with
      | 0 -> B.restrict_range b attr (R.make lo hi)
      | 1 -> B.restrict_pred b (Pred.inside ~attr ~lo ~hi) true
      | _ -> B.restrict_pred b (Pred.inside ~attr ~lo ~hi) false)
    b ops

let agree what expect got =
  if Float.abs (expect -. got) > 1e-9 then
    QCheck2.Test.fail_reportf "%s: empirical=%.12g got=%.12g" what expect got

let prop_backends_agree =
  QCheck2.Test.make ~count:60 ~print:agree_print
    ~name:"all backends agree with empirical on factorial domains"
    agree_gen
    (fun inst ->
      let domains = inst.domains in
      let n = Array.length domains in
      let ds = factorial_dataset domains in
      let ops = normalize_ops domains inst.raw_ops in
      let reference = apply_ops (B.empirical ds) ops in
      let preds =
        Array.init (min n 3) (fun k ->
            Pred.inside ~attr:k ~lo:0 ~hi:(domains.(k) / 2))
      in
      List.iter
        (fun (name, b0) ->
          let b = apply_ops b0 ops in
          for attr = 0 to n - 1 do
            let d = domains.(attr) in
            for lo = 0 to d - 1 do
              for hi = lo to d - 1 do
                agree
                  (Printf.sprintf "%s range_prob a%d [%d,%d]" name attr lo hi)
                  (B.range_prob reference attr (R.make lo hi))
                  (B.range_prob b attr (R.make lo hi));
                agree
                  (Printf.sprintf "%s pred_prob a%d [%d,%d]" name attr lo hi)
                  (B.pred_prob reference (Pred.inside ~attr ~lo ~hi))
                  (B.pred_prob b (Pred.inside ~attr ~lo ~hi))
              done
            done;
            let vr = B.value_probs reference attr in
            let vb = B.value_probs b attr in
            Array.iteri
              (fun v x ->
                agree
                  (Printf.sprintf "%s value_probs a%d v%d" name attr v)
                  x vb.(v))
              vr
          done;
          let pr = B.pattern_probs reference preds in
          let pb = B.pattern_probs b preds in
          Array.iteri
            (fun mask x ->
              agree (Printf.sprintf "%s pattern %d" name mask) x pb.(mask))
            pr)
        (contenders ds);
      true)

(* ------------------------------------------------------------------ *)
(* Differential: a sample whose budget covers the whole dataset is the
   dataset, so every planner must pick the byte-identical plan, cost
   and size from it as from the empirical backend. *)

let build_diff_instance seed =
  let rng = Rng.create seed in
  let n = 3 in
  let domains = Array.init n (fun _ -> 2 + Rng.int rng 3) in
  let ds = correlated_dataset (seed + 7) domains 240 in
  let schema = DS.schema ds in
  let n_preds = 1 + Rng.int rng 2 in
  let attrs = Rng.sample_without_replacement rng n_preds n in
  let preds =
    Array.to_list
      (Array.map
         (fun attr ->
           let d = domains.(attr) in
           let lo = Rng.int rng d in
           let hi = lo + Rng.int rng (d - lo) in
           Pred.inside ~attr ~lo ~hi)
         attrs)
  in
  (ds, Q.create schema preds)

let diff_options = { P.default_options with P.split_points_per_attr = 2 }

let test_differential () =
  let algs = [ P.Naive; P.Corr_seq; P.Heuristic; P.Exhaustive ] in
  for seed = 0 to 49 do
    let ds, q = build_diff_instance (1000 + seed) in
    let costs = S.costs (DS.schema ds) in
    List.iter
      (fun alg ->
        let ctx = Printf.sprintf "seed %d %s" seed (P.algorithm_name alg) in
        let plan b = P.plan_with_backend ~options:diff_options alg q ~costs b in
        let r_emp = plan (B.empirical ds) in
        let r_smp = plan (B.sampled ~n:(DS.nrows ds) ~delta:0.05 ds) in
        Alcotest.(check bool)
          (ctx ^ ": full-sample plan byte-identical")
          true
          (Bytes.equal
             (Acq_plan.Serialize.encode r_emp.P.plan)
             (Acq_plan.Serialize.encode r_smp.P.plan));
        Alcotest.(check bool)
          (ctx ^ ": est_cost identical")
          true
          (Float.equal r_emp.P.est_cost r_smp.P.est_cost);
        Alcotest.(check int)
          (ctx ^ ": plan size identical")
          r_emp.P.stats.Acq_core.Search.plan_size
          r_smp.P.stats.Acq_core.Search.plan_size)
      algs
  done

(* ------------------------------------------------------------------ *)
(* Chow-Liu: the Gray-code incremental pattern_probs must equal the
   direct per-pattern inference, unconditioned and under evidence. *)

let test_chow_liu_incremental () =
  let ds = correlated_dataset 31 [| 3; 4; 2; 3 |] 800 in
  let m = CL.learn ds in
  let preds =
    [|
      Pred.inside ~attr:0 ~lo:1 ~hi:2;
      Pred.inside ~attr:1 ~lo:0 ~hi:1;
      Pred.inside ~attr:2 ~lo:1 ~hi:1;
      Pred.inside ~attr:3 ~lo:0 ~hi:0;
    |]
  in
  let check_against given label got =
    Array.iteri
      (fun mask got_p ->
        let ev = ref given in
        Array.iteri
          (fun j p -> ev := CL.and_pred m !ev p (mask land (1 lsl j) <> 0))
          preds;
        check_float
          (Printf.sprintf "%s pattern %d" label mask)
          (CL.cond_prob m ~given !ev)
          got_p)
      got
  in
  let b = B.chow_liu m ~weight:(float_of_int (DS.nrows ds)) in
  check_against (CL.no_evidence m) "root" (B.pattern_probs b preds);
  (* Same check in a conditioned scope: restrict the backend and build
     the matching evidence for the reference. *)
  let r = R.make 0 1 in
  let given = CL.and_range m (CL.no_evidence m) 1 r in
  check_against given "restricted" (B.pattern_probs (B.restrict_range b 1 r) preds)

(* ------------------------------------------------------------------ *)
(* Capability routing: a 13-predicate query exceeds Chow-Liu's
   pattern width (12), so the sequential planner must fall back to
   GreedySeq instead of raising — even when optseq_threshold alone
   would have chosen OptSeq. *)

let test_capability_routing () =
  let n = 13 in
  let domains = Array.make n 2 in
  let schema = named_schema domains in
  let rng = Rng.create 99 in
  let rows =
    Array.init 400 (fun _ -> Array.init n (fun _ -> Rng.int rng 2))
  in
  let ds = DS.create schema rows in
  let q =
    Q.create schema (List.init n (fun k -> Pred.inside ~attr:k ~lo:1 ~hi:1))
  in
  let b = B.chow_liu (CL.learn ds) ~weight:(float_of_int (DS.nrows ds)) in
  Alcotest.(check (option int))
    "chow-liu advertises its pattern bound" (Some 12) (B.max_pattern_preds b);
  Alcotest.(check (option int))
    "empirical is unbounded" None (B.max_pattern_preds (B.empirical ds));
  let options = { P.default_options with P.optseq_threshold = 20 } in
  let r = P.plan_with_backend ~options P.Corr_seq q ~costs:(S.costs schema) b in
  Alcotest.(check bool) "plans without raising" true (r.P.est_cost >= 0.0);
  (* The unbounded empirical backend under the same options does go
     through OptSeq; both paths must still cost out finitely. *)
  let r' =
    P.plan_with_backend ~options P.Corr_seq q ~costs:(S.costs schema)
      (B.empirical ds)
  in
  Alcotest.(check bool) "optseq path also plans" true (r'.P.est_cost >= 0.0)

(* ------------------------------------------------------------------ *)
(* Selection syntax and guards *)

(* Property: printing any well-formed spec and parsing it back yields
   the same spec — including sampled(n,delta), whose delta must
   round-trip exactly through the shortest-faithful float printer. *)
let spec_gen =
  QCheck2.Gen.(
    let* kind =
      oneof
        [
          oneofl [ B.Empirical; B.Chow_liu; B.Independence ];
          (let* n = int_range 1 100_000 in
           let* delta = float_range 1e-9 0.999 in
           return (B.Sampled { n; delta }));
        ]
    in
    return { B.default_spec with kind })

let spec_print sp = Printf.sprintf "%S" (B.spec_to_string sp)

let prop_spec_round_trip =
  QCheck2.Test.make ~count:200 ~print:spec_print
    ~name:"spec_to_string / spec_of_string round-trip" spec_gen (fun sp ->
      match B.spec_of_string (B.spec_to_string sp) with
      | Ok sp' ->
          if sp' <> sp then
            QCheck2.Test.fail_reportf "parsed %S as %S"
              (B.spec_to_string sp) (B.spec_to_string sp');
          true
      | Error e ->
          QCheck2.Test.fail_reportf "rejected own rendering %S: %s"
            (B.spec_to_string sp)
            (B.spec_error_to_string e))

let test_spec_errors () =
  List.iter
    (fun input ->
      match B.spec_of_string input with
      | Ok sp ->
          Alcotest.failf "accepted %S as %s" input (B.spec_to_string sp)
      | Error e ->
          (* Structured errors carry the offending input verbatim and a
             human reason; the rendering embeds both. *)
          Alcotest.(check string)
            (Printf.sprintf "error echoes input %S" input)
            input e.B.input;
          Alcotest.(check bool)
            (Printf.sprintf "reason non-empty for %S" input)
            true
            (String.length e.B.reason > 0);
          let rendered = B.spec_error_to_string e in
          Alcotest.(check bool)
            (Printf.sprintf "rendering mentions reason for %S" input)
            true
            (String.length rendered >= String.length e.B.reason))
    [
      "";
      "bogus";
      "empirical,turbo";
      "sampled(";
      "sampled()";
      "sampled(10)";
      "sampled(0,0.5)";
      "sampled(-3,0.5)";
      "sampled(10,0)";
      "sampled(10,1.0)";
      "sampled(10,1.5)";
      "sampled(10,nope)";
      "sampled(10,0.5,extra)";
      "sampled(10,0.5)x";
    ]

let test_spec_parsing () =
  let ok s =
    match B.spec_of_string s with
    | Ok sp -> sp
    | Error e -> Alcotest.failf "%s rejected: %s" s (B.spec_error_to_string e)
  in
  List.iter
    (fun s ->
      Alcotest.(check string) ("round-trip " ^ s) s (B.spec_to_string (ok s)))
    [
      "empirical";
      "chow-liu";
      "independence";
      "sampled(4,0.1)";
      "sampled(256,0.05)";
    ];
  Alcotest.(check bool) "kind parsed" true ((ok "chow-liu").B.kind = B.Chow_liu);
  Alcotest.(check string) "default spec is the seed behavior" "empirical"
    (B.spec_to_string B.default_spec);
  Alcotest.(check bool) "bare sampled takes the defaults" true
    ((ok "sampled").B.kind
    = B.Sampled { n = B.default_sample_size; delta = B.default_sample_delta });
  Alcotest.(check bool) "sampled args parsed" true
    ((ok "sampled(4,0.1)").B.kind = B.Sampled { n = 4; delta = 0.1 });
  (match B.spec_of_string "bogus" with
  | Ok _ -> Alcotest.fail "accepted bogus model"
  | Error _ -> ());
  (match B.spec_of_string "empirical,turbo" with
  | Ok _ -> Alcotest.fail "accepted bogus suffix"
  | Error _ -> ());
  (* The memo suffix (a cache in front of the backend) is gone: a
     model followed by it is unknown now, rejected with the grammar. *)
  List.iter
    (fun s ->
      match B.spec_of_string s with
      | Ok sp -> Alcotest.failf "accepted %S as %s" s (B.spec_to_string sp)
      | Error e ->
          Alcotest.(check string)
            (s ^ " names the grammar")
            (Printf.sprintf
               "unknown model %S: expected \
                empirical|chow-liu|independence|sampled[(n,delta)]"
               s)
            (B.spec_error_to_string e))
    (List.map
       (fun m -> String.concat "," [ m; "memo" ])
       [ "empirical"; "sampled(4,0.1)" ])

let test_of_dataset_spec () =
  let ds = factorial_dataset [| 3; 3 |] in
  List.iter
    (fun (s, expected_name) ->
      let spec =
        match B.spec_of_string s with
        | Ok sp -> sp
        | Error e -> Alcotest.fail (B.spec_error_to_string e)
      in
      Alcotest.(check string)
        (s ^ " builds the right backend")
        expected_name
        (B.name (B.of_dataset ~spec ds)))
    [
      ("empirical", "empirical");
      ("chow-liu", "chow-liu");
      ("independence", "independence");
      ("sampled(8,0.2)", "sampled");
    ]

(* ------------------------------------------------------------------ *)
(* Deferred empirical children: every answer equals the count ratio a
   direct View scan of the materialized rows gives, bit for bit, over
   random trees of range and predicate restrictions queried in random
   order (so parents' count tables grow by new predicates or, past
   their size bound, fall back to scanning). *)

type deferred_instance = {
  d_domains : int array;
  d_rows : int;
  d_seed : int;
  d_ops : (int * int array) list;  (** (op kind, raw operands) *)
}

let deferred_gen =
  QCheck2.Gen.(
    let* n = int_range 2 4 in
    let* d_domains = array_repeat n (int_range 2 8) in
    let* d_rows = int_range 0 300 in
    let* d_seed = int_range 0 1_000_000 in
    let* d_ops =
      list_size (int_range 1 40)
        (pair (int_range 0 6) (array_repeat 6 (int_range 0 1000)))
    in
    return { d_domains; d_rows; d_seed; d_ops })

let deferred_print i =
  Printf.sprintf "{domains=[%s]; rows=%d; seed=%d; ops=[%s]}"
    (String.concat ";" (Array.to_list (Array.map string_of_int i.d_domains)))
    i.d_rows i.d_seed
    (String.concat ";"
       (List.map
          (fun (k, raw) ->
            Printf.sprintf "%d:%s" k
              (String.concat ","
                 (Array.to_list (Array.map string_of_int raw))))
          i.d_ops))

(* Correlated random rows: each attribute copies attribute 0's value
   (folded into its own domain) half the time. *)
let deferred_dataset domains rows seed =
  let rng = Rng.create seed in
  let data =
    Array.init rows (fun _ ->
        let v0 = Rng.int rng domains.(0) in
        Array.mapi
          (fun k d ->
            if k = 0 then v0
            else if Rng.bernoulli rng 0.5 then v0 mod d
            else Rng.int rng d)
          domains)
  in
  DS.create (named_schema domains) data

(* A range that may reach one value past either end of a domain. *)
let raw_range k a b =
  let lo = (a mod (k + 2)) - 1 in
  R.make lo (lo + (b mod (k + 2 - lo)))

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let ratio_of_counts counts n =
  Array.map
    (fun c -> if n = 0 then 0.0 else float_of_int c /. float_of_int n)
    counts

let prop_deferred_children =
  QCheck2.Test.make ~count:500 ~print:deferred_print
    ~name:"deferred empirical children answer like a scan of their rows"
    deferred_gen
    (fun inst ->
      let domains = inst.d_domains in
      let n = Array.length domains in
      let ds = deferred_dataset domains inst.d_rows inst.d_seed in
      let rng = Rng.create (inst.d_seed + 1) in
      let pool =
        Array.init 6 (fun _ ->
            let attr = Rng.int rng n in
            let k = domains.(attr) in
            let lo = Rng.int rng k in
            let hi = lo + Rng.int rng (k - lo) in
            if Rng.bernoulli rng 0.5 then Pred.inside ~attr ~lo ~hi
            else Pred.outside ~attr ~lo ~hi)
      in
      (* Every state the script has built, with its oracle view. *)
      let states = ref [| (B.empirical ds, Acq_prob.View.of_dataset ds) |] in
      let pick raw = !states.(raw mod Array.length !states) in
      let add st = states := Array.append !states [| st |] in
      let fail what =
        QCheck2.Test.fail_reportf "%s differs from the scan" what
      in
      let same_floats what a b =
        if
          Array.length a <> Array.length b
          || not (Array.for_all2 bits_equal a b)
        then fail what
      in
      List.iter
        (fun (kind, raw) ->
          let b, v = pick raw.(0) in
          let size = Acq_prob.View.size v in
          match kind with
          | 0 ->
              let attr = raw.(1) mod n in
              let r = raw_range domains.(attr) raw.(2) raw.(3) in
              add
                ( B.restrict_range b attr r,
                  Acq_prob.View.restrict_range v ~attr r )
          | 1 ->
              let p = pool.(raw.(1) mod 6) and truth = raw.(2) mod 2 = 0 in
              add (B.restrict_pred b p truth, Acq_prob.View.restrict_pred v p truth)
          | 2 ->
              if not (bits_equal (B.weight b) (float_of_int size)) then
                fail "weight"
          | 3 ->
              let attr = raw.(1) mod n in
              let r = raw_range domains.(attr) raw.(2) raw.(3) in
              if
                not
                  (bits_equal (B.range_prob b attr r)
                     (Acq_prob.View.range_prob v ~attr r))
              then fail "range_prob"
          | 4 ->
              let attr = raw.(1) mod n in
              same_floats "value_probs" (B.value_probs b attr)
                (ratio_of_counts (Acq_prob.View.histogram v ~attr) size)
          | 5 ->
              let p = pool.(raw.(1) mod 6) in
              if not (bits_equal (B.pred_prob b p) (Acq_prob.View.pred_prob v p))
              then fail "pred_prob"
          | _ ->
              (* Up to four pool predicates (duplicates allowed); now
                 and then 21, which both sides must refuse. *)
              let m = if raw.(1) mod 23 = 0 then 21 else raw.(1) mod 5 in
              let preds =
                Array.init m (fun j -> pool.((raw.(2 + (j mod 4)) + j) mod 6))
              in
              let got =
                match B.pattern_probs b preds with
                | probs -> Some probs
                | exception Invalid_argument _ -> None
              in
              let want =
                match Acq_prob.View.pattern_counts v preds with
                | counts -> Some (ratio_of_counts counts size)
                | exception Invalid_argument _ -> None
              in
              match (got, want) with
              | Some g, Some w -> same_floats "pattern_probs" g w
              | None, None -> ()
              | Some _, None | None, Some _ -> fail "pattern_probs refusal")
        inst.d_ops;
      true)

(* Call order across attributes: a state computes its rows' truth
   patterns once, under every predicate its deferred children have
   asked about, and builds each attribute's table from them — so the
   first table of an attribute is built with predicates that other
   attributes' children asked about. Whatever those were, and however
   wide (more than 8 distinct predicates switches the pattern store
   from bytes to ints; past the table-size bound the backend scans),
   every answer must equal the scan of the child's filtered rows. *)
type order_instance = {
  o_domains : int array;
  o_rows : int;
  o_seed : int;
  o_ops : (int * int array) list;  (** (op kind, raw operands) *)
}

let order_gen =
  QCheck2.Gen.(
    let* n = int_range 2 4 in
    let* o_domains = array_repeat n (int_range 2 5) in
    let* o_rows = oneof [ int_range 0 200; int_range 1_000 3_000 ] in
    let* o_seed = int_range 0 1_000_000 in
    let* o_ops =
      list_size (int_range 1 30)
        (pair (int_range 0 5) (array_repeat 14 (int_range 0 1000)))
    in
    return { o_domains; o_rows; o_seed; o_ops })

let order_print i =
  deferred_print
    { d_domains = i.o_domains; d_rows = i.o_rows; d_seed = i.o_seed; d_ops = i.o_ops }

let prop_call_order =
  QCheck2.Test.make ~count:300 ~print:order_print
    ~name:"tables built with asked predicates answer like scans, in any call order"
    order_gen
    (fun inst ->
      let domains = inst.o_domains in
      let n = Array.length domains in
      let ds = deferred_dataset domains inst.o_rows inst.o_seed in
      let rng = Rng.create (inst.o_seed + 7) in
      (* Twelve predicates, half of them Outside; picks by index repeat
         some, so predicate arrays carry duplicates. *)
      let pool =
        Array.init 12 (fun _ ->
            let attr = Rng.int rng n in
            let k = domains.(attr) in
            let lo = Rng.int rng k in
            let hi = lo + Rng.int rng (k - lo) in
            if Rng.bernoulli rng 0.5 then Pred.inside ~attr ~lo ~hi
            else Pred.outside ~attr ~lo ~hi)
      in
      let root = (B.empirical ds, Acq_prob.View.of_dataset ds) in
      (* Parents, and the narrowed children built under them. *)
      let parents = ref [| root |] and children = ref [||] in
      let fail what =
        QCheck2.Test.fail_reportf "%s differs from the scan" what
      in
      let same_floats what a b =
        if
          Array.length a <> Array.length b
          || not (Array.for_all2 bits_equal a b)
        then fail what
      in
      List.iter
        (fun (kind, raw) ->
          match kind with
          | 0 ->
              (* A child on any attribute of any parent; children of
                 one parent on several attributes share its patterns. *)
              let b, v = !parents.(raw.(0) mod Array.length !parents) in
              let attr = raw.(1) mod n in
              let r = raw_range domains.(attr) raw.(2) raw.(3) in
              let child =
                (B.restrict_range b attr r, Acq_prob.View.restrict_range v ~attr r)
              in
              children := Array.append !children [| child |];
              if raw.(4) mod 4 = 0 then
                parents := Array.append !parents [| child |]
          | _ when Array.length !children = 0 -> ()
          | _ -> (
              let b, v = !children.(raw.(0) mod Array.length !children) in
              let size = Acq_prob.View.size v in
              match kind with
              | 1 ->
                  if not (bits_equal (B.weight b) (float_of_int size)) then
                    fail "weight"
              | 2 ->
                  let attr = raw.(1) mod n in
                  let r = raw_range domains.(attr) raw.(2) raw.(3) in
                  let want =
                    ratio_of_counts [| Acq_prob.View.range_count v ~attr r |] size
                  in
                  same_floats "range_prob" [| B.range_prob b attr r |] want
              | 3 ->
                  let attr = raw.(1) mod n in
                  same_floats "value_probs" (B.value_probs b attr)
                    (ratio_of_counts (Acq_prob.View.histogram v ~attr) size)
              | _ ->
                  let m = raw.(1) mod 13 in
                  let preds = Array.init m (fun j -> pool.(raw.(2 + j) mod 12)) in
                  same_floats "pattern_probs" (B.pattern_probs b preds)
                    (ratio_of_counts (Acq_prob.View.pattern_counts v preds) size)))
        inst.o_ops;
      true)

let () =
  Alcotest.run "backend"
    [
      ( "agreement",
        [ QCheck_alcotest.to_alcotest prop_backends_agree ] );
      ( "deferred",
        [
          QCheck_alcotest.to_alcotest prop_deferred_children;
          QCheck_alcotest.to_alcotest prop_call_order;
        ] );
      ( "differential",
        [
          Alcotest.test_case "empirical vs full-window sample, 50 seeds"
            `Quick test_differential;
        ] );
      ( "chow-liu",
        [
          Alcotest.test_case "incremental pattern_probs" `Quick
            test_chow_liu_incremental;
        ] );
      ( "routing",
        [ Alcotest.test_case "capability fallback" `Quick test_capability_routing ] );
      ( "selection",
        [
          Alcotest.test_case "spec parsing" `Quick test_spec_parsing;
          QCheck_alcotest.to_alcotest prop_spec_round_trip;
          Alcotest.test_case "spec structured errors" `Quick test_spec_errors;
          Alcotest.test_case "of_dataset honors spec" `Quick test_of_dataset_spec;
        ] );
    ]
