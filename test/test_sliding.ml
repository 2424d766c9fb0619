(* Unit tests for Acq_prob.Sliding: incremental window statistics and
   drift detection for the streams extension. *)

module Rng = Acq_util.Rng
module DS = Acq_data.Dataset
module S = Acq_data.Schema
module A = Acq_data.Attribute
module Sl = Acq_prob.Sliding

let check_float = Alcotest.(check (float 1e-9))

let schema () =
  S.create
    [
      A.discrete ~name:"x" ~cost:1.0 ~domain:4;
      A.discrete ~name:"y" ~cost:10.0 ~domain:3;
    ]

let test_fill_and_size () =
  let w = Sl.create (schema ()) ~capacity:3 in
  Alcotest.(check int) "empty" 0 (Sl.size w);
  Sl.push w [| 0; 0 |];
  Sl.push w [| 1; 1 |];
  Alcotest.(check int) "partial" 2 (Sl.size w);
  Alcotest.(check bool) "not full" false (Sl.is_full w);
  Sl.push w [| 2; 2 |];
  Alcotest.(check bool) "full" true (Sl.is_full w);
  Sl.push w [| 3; 0 |];
  Alcotest.(check int) "stays at capacity" 3 (Sl.size w)

let test_eviction_order () =
  let w = Sl.create (schema ()) ~capacity:3 in
  List.iter (Sl.push w) [ [| 0; 0 |]; [| 1; 1 |]; [| 2; 2 |]; [| 3; 0 |] ];
  let ds = Sl.to_dataset w in
  (* Oldest row [0;0] evicted; remaining in arrival order. *)
  Alcotest.(check (array int)) "oldest" [| 1; 1 |] (DS.row ds 0);
  Alcotest.(check (array int)) "newest" [| 3; 0 |] (DS.row ds 2)

let test_incremental_histogram () =
  let w = Sl.create (schema ()) ~capacity:3 in
  List.iter (Sl.push w) [ [| 0; 0 |]; [| 0; 1 |]; [| 1; 2 |]; [| 2; 0 |] ];
  (* Window now holds [0;1], [1;2], [2;0]. *)
  Alcotest.(check (array int)) "x histogram" [| 1; 1; 1; 0 |] (Sl.histogram w 0);
  Alcotest.(check (array int)) "y histogram" [| 1; 1; 1 |] (Sl.histogram w 1)

let test_histogram_matches_dataset () =
  let rng = Rng.create 1 in
  let w = Sl.create (schema ()) ~capacity:50 in
  for _ = 1 to 200 do
    Sl.push w [| Rng.int rng 4; Rng.int rng 3 |]
  done;
  let ds = Sl.to_dataset w in
  let direct = Acq_prob.View.histogram (Acq_prob.View.of_dataset ds) ~attr:0 in
  Alcotest.(check (array int)) "incremental = recomputed" direct
    (Sl.histogram w 0)

let test_push_validation () =
  let w = Sl.create (schema ()) ~capacity:2 in
  (try
     Sl.push w [| 0 |];
     Alcotest.fail "expected arity failure"
   with Invalid_argument _ -> ());
  (try
     Sl.push w [| 9; 0 |];
     Alcotest.fail "expected domain failure"
   with Invalid_argument _ -> ())

let test_estimator_over_window () =
  let w = Sl.create (schema ()) ~capacity:4 in
  List.iter (Sl.push w) [ [| 0; 0 |]; [| 0; 0 |]; [| 1; 2 |]; [| 1; 2 |] ];
  let b = Sl.backend w in
  check_float "P(x=0) over window" 0.5
    (Acq_prob.Backend.range_prob b 0 (Acq_plan.Range.make 0 0));
  (* Conditioning narrows to the window rows with x = 1. *)
  let b' = Acq_prob.Backend.restrict_range b 0 (Acq_plan.Range.make 1 1) in
  check_float "weight given x=1" 2.0 (Acq_prob.Backend.weight b');
  check_float "P(y=2 | x=1)" 1.0
    (Acq_prob.Backend.range_prob b' 1 (Acq_plan.Range.make 2 2))

let test_backend_over_window () =
  (* Sl.backend honors the spec and every model agrees with the
     window's empirical frequency on an unconditioned range. *)
  let w = Sl.create (schema ()) ~capacity:4 in
  List.iter (Sl.push w) [ [| 0; 0 |]; [| 0; 0 |]; [| 1; 2 |]; [| 1; 2 |] ];
  let r = Acq_plan.Range.make 0 0 in
  List.iter
    (fun spec_s ->
      let spec =
        match Acq_prob.Backend.spec_of_string spec_s with
        | Ok sp -> sp
        | Error e -> Alcotest.fail (Acq_prob.Backend.spec_error_to_string e)
      in
      let b = Sl.backend ~spec w in
      check_float
        (Printf.sprintf "P(x=0) under %s" spec_s)
        0.5
        (Acq_prob.Backend.range_prob b 0 r))
    (* sampled(4,·) over a 4-row window covers it entirely, so the
       estimate is exactly the empirical one. *)
    [ "empirical"; "independence"; "sampled(4,0.1)" ]

let test_marginals_match_histograms () =
  let rng = Rng.create 6 in
  let w = Sl.create (schema ()) ~capacity:32 in
  for _ = 1 to 100 do
    Sl.push w [| Rng.int rng 4; Rng.int rng 3 |]
  done;
  let m = Sl.marginals w in
  Alcotest.(check (array int)) "x marginal" (Sl.histogram w 0) m.(0);
  Alcotest.(check (array int)) "y marginal" (Sl.histogram w 1) m.(1);
  let m' = Sl.marginals_of (Sl.to_dataset w) in
  Alcotest.(check (array int)) "dataset pass agrees, x" m.(0) m'.(0);
  Alcotest.(check (array int)) "dataset pass agrees, y" m.(1) m'.(1)

let test_drift_detects_change () =
  let s = schema () in
  let mk v rows = DS.create s (Array.make rows [| v; v mod 3 |]) in
  let reference = mk 0 100 in
  let w = Sl.create s ~capacity:50 in
  Sl.push_dataset w (mk 0 50);
  check_float "no drift on same distribution" 0.0 (Sl.drift w ~reference);
  let w2 = Sl.create s ~capacity:50 in
  Sl.push_dataset w2 (mk 3 50);
  (* x fully shifted (TV = 1), y unchanged (TV = 0): mean 0.5. *)
  check_float "drift is mean TV over attributes" 0.5 (Sl.drift w2 ~reference)

let test_drift_partial () =
  let s = schema () in
  let rng = Rng.create 2 in
  let reference =
    DS.create s (Array.init 1000 (fun _ -> [| Rng.int rng 4; Rng.int rng 3 |]))
  in
  let w = Sl.create s ~capacity:500 in
  for _ = 1 to 500 do
    Sl.push w [| Rng.int rng 4; Rng.int rng 3 |]
  done;
  let d = Sl.drift w ~reference in
  Alcotest.(check bool) "same-distribution drift small" true (d < 0.1)

let test_clear () =
  let w = Sl.create (schema ()) ~capacity:3 in
  List.iter (Sl.push w) [ [| 0; 0 |]; [| 1; 1 |]; [| 2; 2 |] ];
  Alcotest.(check bool) "full before clear" true (Sl.is_full w);
  Sl.clear w;
  Alcotest.(check int) "empty after clear" 0 (Sl.size w);
  Alcotest.(check (array int)) "histogram zeroed" [| 0; 0; 0; 0 |]
    (Sl.histogram w 0);
  (* The window is usable again after clear. *)
  Sl.push w [| 3; 0 |];
  Alcotest.(check int) "refills" 1 (Sl.size w);
  Alcotest.(check (array int)) "histogram restarts" [| 0; 0; 0; 1 |]
    (Sl.histogram w 0)

(* The window copies each pushed row into storage it owns (once full,
   the evicted row's): a caller that reuses one array for every push
   must not reach the window's contents. After wrapping a full window
   several times — and again after a clear and a partial refill — the
   window equals a fresh one built from the same last rows. *)
let test_push_reuses_rows () =
  let rng = Rng.create 9 in
  let capacity = 5 in
  let w = Sl.create (schema ()) ~capacity in
  let row = [| 0; 0 |] in
  let pushed = ref [] in
  let push_n k =
    for _ = 1 to k do
      row.(0) <- Rng.int rng 4;
      row.(1) <- Rng.int rng 3;
      Sl.push w row;
      pushed := Array.copy row :: !pushed;
      (* Scribble over the caller's array after the push. *)
      row.(0) <- 3;
      row.(1) <- 2
    done
  in
  let check_against_fresh label =
    let last = List.rev (List.filteri (fun i _ -> i < Sl.size w) !pushed) in
    let fresh = Sl.create (schema ()) ~capacity in
    List.iter (Sl.push fresh) last;
    let rows ds = List.init (DS.nrows ds) (DS.row ds) in
    Alcotest.(check (list (array int)))
      (label ^ ": to_dataset")
      (rows (Sl.to_dataset fresh))
      (rows (Sl.to_dataset w));
    Alcotest.(check (array (array int)))
      (label ^ ": marginals") (Sl.marginals fresh) (Sl.marginals w)
  in
  push_n ((4 * capacity) + 2);
  check_against_fresh "wrapped";
  Sl.clear w;
  pushed := [];
  push_n (capacity - 2);
  check_against_fresh "refilled after clear";
  push_n (capacity + 1);
  check_against_fresh "wrapped after clear"

(* Windows over one ring: each equals a private ring fed the rows pushed
   since the window was created, whatever its width or age — also after
   a wider window grew the ring, and across a clear. Windows with one
   key share one materialization, which stays valid through the next
   materialization of the ring. *)
let test_windows_over_shared_ring () =
  let rng = Rng.create 11 in
  let ring = Sl.create (schema ()) ~capacity:4 in
  let windows = ref [] in
  let open_window capacity =
    windows :=
      (Sl.Window.create ring ~capacity, Sl.create (schema ()) ~capacity)
      :: !windows
  in
  let agree label =
    List.iter
      (fun (w, alone) ->
        let label = Printf.sprintf "%s, width %d" label (Sl.Window.capacity w) in
        Alcotest.(check int) (label ^ ": size") (Sl.size alone) (Sl.Window.size w);
        Alcotest.(check bool) (label ^ ": full") (Sl.is_full alone)
          (Sl.Window.is_full w);
        Alcotest.(check (array (array int)))
          (label ^ ": marginals") (Sl.marginals alone) (Sl.Window.marginals w);
        let reference = [| [| 1; 2; 3; 4 |]; [| 5; 0; 1 |] |] in
        check_float (label ^ ": drift")
          (Sl.drift_marginals alone ~reference ~rows:10)
          (Sl.Window.drift_marginals w ~reference ~rows:10);
        if Sl.size alone > 0 then begin
          let rows ds = List.init (DS.nrows ds) (DS.row ds) in
          Alcotest.(check (list (array int)))
            (label ^ ": rows")
            (rows (Sl.to_dataset alone))
            (rows (Sl.Window.to_dataset w))
        end)
      !windows
  in
  let push k =
    for _ = 1 to k do
      let row = [| Rng.int rng 4; Rng.int rng 3 |] in
      Sl.push ring row;
      List.iter (fun (_, alone) -> Sl.push alone row) !windows
    done
  in
  open_window 4;
  push 6;
  open_window 2;
  push 1;
  agree "young narrow window";
  open_window 7;
  agree "just grown";
  push 3;
  agree "grown ring";
  push 9;
  agree "all wrapped";
  let a = Sl.Window.create ring ~capacity:3
  and b = Sl.Window.create ring ~capacity:3 in
  push 2;
  Alcotest.(check bool) "same rows, same key" true
    (Sl.Window.key a = Sl.Window.key b);
  let ds = Sl.Window.to_dataset a in
  Alcotest.(check bool) "one materialization" true
    (ds == Sl.Window.to_dataset b);
  let copy = List.init (DS.nrows ds) (DS.row ds) in
  ignore (Sl.to_dataset ring : DS.t);
  Alcotest.(check (list (array int))) "valid through the next materialization"
    copy (List.init (DS.nrows ds) (DS.row ds));
  Sl.clear ring;
  List.iter (fun (_, alone) -> Sl.clear alone) !windows;
  agree "cleared";
  push 5;
  agree "refilled"

let test_drift_empty_window () =
  let s = schema () in
  let reference = DS.create s (Array.make 50 [| 0; 0 |]) in
  let w = Sl.create s ~capacity:10 in
  (* No evidence yet: drift is defined as 0, never an exception. *)
  check_float "empty window" 0.0 (Sl.drift w ~reference);
  Sl.push w [| 3; 2 |];
  Alcotest.(check bool) "one row is evidence" true
    (Sl.drift w ~reference > 0.0);
  Sl.clear w;
  check_float "cleared window" 0.0 (Sl.drift w ~reference)

let test_drift_marginals_equivalence () =
  (* drift and drift_marginals compute the same score; the latter
     against a precomputed snapshot instead of a dataset scan. *)
  let s = schema () in
  let rng = Rng.create 7 in
  let reference =
    DS.create s (Array.init 300 (fun _ -> [| Rng.int rng 4; Rng.int rng 3 |]))
  in
  let w = Sl.create s ~capacity:100 in
  for _ = 1 to 150 do
    Sl.push w [| Rng.int rng 4; Rng.int rng 3 |]
  done;
  check_float "same score"
    (Sl.drift w ~reference)
    (Sl.drift_marginals w
       ~reference:(Sl.marginals_of reference)
       ~rows:(DS.nrows reference));
  (try
     ignore
       (Sl.drift_marginals w ~reference:[| Array.make 4 1 |] ~rows:4);
     Alcotest.fail "expected arity failure"
   with Invalid_argument _ -> ())

(* Window.drift_marginals is memoized per ring generation, keyed by the
   reference's identity, its row count and the window's size. Against
   the uncached ring-level score on a private ring holding the same
   rows it must agree bit for bit, whatever the pushes, clears, window
   widths and references (shared, interned, equal but distinct, or one
   array under two row counts). *)
type drift_op = Push of int * int | Clear | Open of int | Check of int * int

let drift_ops_gen =
  QCheck2.Gen.(
    pair
      (list_size (int_range 2 3) (int_range 1 6))
      (list_size (int_range 1 80)
         (frequency
            [
              (5, map2 (fun x y -> Push (x, y)) (int_bound 3) (int_bound 2));
              (1, return Clear);
              (1, map (fun c -> Open c) (int_range 1 6));
              (6, map2 (fun w r -> Check (w, r)) (int_bound 5) (int_bound 4));
            ])))

let drift_ops_print (caps, ops) =
  Printf.sprintf "caps=[%s] %s"
    (String.concat ";" (List.map string_of_int caps))
    (String.concat " "
       (List.map
          (function
            | Push (x, y) -> Printf.sprintf "push(%d,%d)" x y
            | Clear -> "clear"
            | Open c -> Printf.sprintf "open(%d)" c
            | Check (w, r) -> Printf.sprintf "check(w%d,r%d)" w r)
          ops))

let prop_drift_memo =
  QCheck2.Test.make ~count:300 ~name:"memoized drift = private ring's"
    ~print:drift_ops_print drift_ops_gen (fun (caps, ops) ->
      let s = schema () in
      let ring = Sl.create s ~capacity:1 in
      let r0 = [| [| 1; 2; 3; 4 |]; [| 5; 4; 1 |] |]
      and r1 = [| [| 0; 0; 7; 0 |]; [| 0; 7; 0 |] |] in
      ignore (Sl.intern ring r1 : int array array);
      let refs =
        [|
          (r0, 10);
          (r1, 7);
          (Array.map Array.copy r0, 10);
          (Sl.intern ring (Array.map Array.copy r1), 7);
          (r0, 12);
        |]
      in
      (* The model: every row pushed (newest first), the generation of
         the last clear, and each window's opening generation. *)
      let stream = ref [] and gen = ref 0 and cleared = ref 0 in
      let windows = ref [] in
      let open_window c =
        windows := !windows @ [ (Sl.Window.create ring ~capacity:c, c, !gen) ]
      in
      List.iter open_window caps;
      List.iter
        (function
          | Push (x, y) ->
              Sl.push ring [| x; y |];
              stream := [| x; y |] :: !stream;
              incr gen
          | Clear ->
              Sl.clear ring;
              cleared := !gen
          | Open c -> open_window c
          | Check (wi, ri) ->
              let w, c, opened = List.nth !windows (wi mod List.length !windows) in
              let reference, rows = refs.(ri) in
              let size = min c (!gen - max opened !cleared) in
              let alone = Sl.create s ~capacity:(max 1 size) in
              List.iter (Sl.push alone)
                (List.rev (List.filteri (fun i _ -> i < size) !stream));
              let want = Sl.drift_marginals alone ~reference ~rows in
              let got = Sl.Window.drift_marginals w ~reference ~rows in
              if Int64.bits_of_float got <> Int64.bits_of_float want then
                QCheck2.Test.fail_reportf "window %d ref %d: %h, want %h" wi ri got
                  want)
        ops;
      true)

let test_drift_memo_follows_pushes () =
  let s = schema () in
  let ring = Sl.create s ~capacity:3 in
  let w = Sl.Window.create ring ~capacity:3 in
  let reference = Sl.intern ring [| [| 3; 0; 0; 0 |]; [| 3; 0; 0 |] |] in
  List.iter (Sl.push ring) [ [| 0; 0 |]; [| 0; 0 |]; [| 1; 1 |] ];
  let drift () = Sl.Window.drift_marginals w ~reference ~rows:3 in
  let first = drift () in
  Alcotest.(check bool) "memo hit is the same score" true
    (Int64.bits_of_float first = Int64.bits_of_float (drift ()));
  (* Same window size and reference after the push: only the
     generation tells the memo the rows moved. *)
  Sl.push ring [| 2; 2 |];
  check_float "recomputed after a push"
    (Sl.drift_marginals ring ~reference ~rows:3)
    (drift ());
  Alcotest.(check bool) "the push moved the score" true (drift () <> first);
  Sl.clear ring;
  check_float "empty after a clear" 0.0 (drift ());
  List.iter (Sl.push ring) [ [| 0; 0 |]; [| 0; 0 |]; [| 1; 1 |]; [| 0; 0 |] ];
  check_float "refilled" (Sl.drift_marginals ring ~reference ~rows:3) (drift ());
  Alcotest.(check bool) "interning adopts the equal snapshot" true
    (Sl.intern ring [| [| 3; 0; 0; 0 |]; [| 3; 0; 0 |] |] == reference)

let test_drift_across_change_point () =
  (* Stream a drifting synthetic trace through a window and track the
     score against the pre-change reference: it must rise as the
     post-change rows displace the old ones, and fall back once the
     window is re-based on a post-change reference. *)
  let params = { Acq_data.Synthetic_gen.n = 8; gamma = 1; sel = 0.25 } in
  let rows = 2_000 and cp = 1_000 in
  let ds =
    Acq_data.Synthetic_gen.generate_drifting (Rng.create 5) params ~rows
      ~change_points:[ cp ]
  in
  let s = DS.schema ds in
  let reference =
    DS.create s (Array.init cp (fun i -> DS.row ds i))
  in
  let w = Sl.create s ~capacity:200 in
  let drift_at upto =
    Sl.clear w;
    for i = upto - 200 to upto - 1 do
      Sl.push w (DS.row ds i)
    done;
    Sl.drift w ~reference
  in
  let before = drift_at cp in
  let straddling = drift_at (cp + 100) in
  let after = drift_at (cp + 400) in
  Alcotest.(check bool) "quiet before the change" true (before < 0.05);
  Alcotest.(check bool) "rising mid-transition" true (straddling > before);
  Alcotest.(check bool) "high once the window turned over" true (after > 0.1);
  (* Re-basing the reference on post-change data clears the alarm. *)
  let reference' =
    DS.create s (Array.init 400 (fun i -> DS.row ds (cp + i)))
  in
  let settled = Sl.drift w ~reference:reference' in
  Alcotest.(check bool) "falls after re-basing" true (settled < 0.05)

let test_replan_pipeline () =
  (* A window over drifted lab data triggers drift and yields a
     working backend for replanning. *)
  let ds = Acq_data.Lab_gen.generate (Rng.create 3) ~rows:6_000 in
  let history, live = DS.split_by_time ds ~train_fraction:0.5 in
  let w = Sl.create (DS.schema ds) ~capacity:1_000 in
  Sl.push_dataset w live;
  Alcotest.(check bool) "window full" true (Sl.is_full w);
  let q = Acq_workload.Query_gen.lab_query (Rng.create 4) ~train:history in
  let costs = Acq_data.Schema.costs (DS.schema ds) in
  let plan =
    (Acq_core.Planner.plan_with_backend Acq_core.Planner.Heuristic q ~costs
       (Sl.backend w))
      .Acq_core.Planner.plan
  in
  Alcotest.(check bool) "window-planned plan consistent" true
    (Acq_plan.Executor.consistent q ~costs plan live)

let () =
  Alcotest.run "sliding"
    [
      ( "window",
        [
          Alcotest.test_case "fill and size" `Quick test_fill_and_size;
          Alcotest.test_case "eviction order" `Quick test_eviction_order;
          Alcotest.test_case "incremental histogram" `Quick
            test_incremental_histogram;
          Alcotest.test_case "matches dataset" `Quick
            test_histogram_matches_dataset;
          Alcotest.test_case "push validation" `Quick test_push_validation;
          Alcotest.test_case "estimator" `Quick test_estimator_over_window;
          Alcotest.test_case "backend specs" `Quick test_backend_over_window;
          Alcotest.test_case "marginals" `Quick test_marginals_match_histograms;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "push reuses row storage" `Quick
            test_push_reuses_rows;
          Alcotest.test_case "windows over a shared ring" `Quick
            test_windows_over_shared_ring;
        ] );
      ( "drift",
        [
          Alcotest.test_case "detects change" `Quick test_drift_detects_change;
          Alcotest.test_case "partial" `Quick test_drift_partial;
          Alcotest.test_case "empty window" `Quick test_drift_empty_window;
          Alcotest.test_case "marginal snapshot equivalence" `Quick
            test_drift_marginals_equivalence;
          Alcotest.test_case "across change point" `Quick
            test_drift_across_change_point;
          Alcotest.test_case "replan pipeline" `Quick test_replan_pipeline;
          Alcotest.test_case "memo follows pushes and clears" `Quick
            test_drift_memo_follows_pushes;
          QCheck_alcotest.to_alcotest prop_drift_memo;
        ] );
    ]
