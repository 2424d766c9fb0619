(* The request streams the end-to-end benchmark sends: deterministic,
   valid SQL, and shaped as the README says. *)

module G = E2e.Gen
module Pr = Acq_serve.Protocol

let seed = 7
let streams = lazy (List.map (fun w -> (w, G.make w ~seed)) G.workloads)
let stream w = List.assoc w (Lazy.force streams)

let datasets = Hashtbl.create 2

let history_live w =
  let spec = G.spec w in
  match Hashtbl.find_opt datasets spec with
  | Some d -> d
  | None ->
      let d = Acq_serve.Source.history_live spec in
      Hashtbl.replace datasets spec d;
      d

let sql_of_line line =
  match Pr.parse_request line with
  | Ok (Pr.Run (_, s) | Pr.Plan (_, s) | Pr.Subscribe (_, s)) -> s
  | _ -> Alcotest.failf "not a query request: %s" line

let compile w line =
  let history, _ = history_live w in
  match Acq_sql.Catalog.compile_result (Acq_data.Dataset.schema history) (sql_of_line line) with
  | Ok c -> c.Acq_sql.Catalog.query
  | Error e -> Alcotest.failf "%s: %s does not compile: %s" (G.name w) line e

let lines (t : G.t) = Array.to_list t.G.requests @ List.concat_map Array.to_list (Array.to_list t.G.subscribe)

let test_deterministic () =
  List.iter
    (fun w ->
      let again = G.make w ~seed in
      Alcotest.(check string) (G.name w ^ " same seed") (G.render (stream w)) (G.render again);
      Alcotest.(check bool)
        (G.name w ^ " another seed differs")
        true
        (G.render (G.make w ~seed:(seed + 1)) <> G.render again))
    G.workloads

let test_compiles () =
  List.iter (fun w -> List.iter (fun l -> ignore (compile w l)) (lines (stream w))) G.workloads

(* Raw-unit rendering snaps back to exactly the generated bins. *)
let test_round_trip () =
  let history, _ = history_live G.Run_lab in
  let rng = Acq_util.Rng.create seed in
  for _ = 1 to 200 do
    let q = Acq_workload.Query_gen.lab_query rng ~train:history in
    let back = compile G.Run_lab ("RUN " ^ G.sql_of_query q) in
    Alcotest.(check string) "signature" (G.signature q) (G.signature back)
  done

let distinct_signatures w ls =
  List.length (List.sort_uniq compare (List.map (fun l -> G.signature (compile w l)) ls))

let test_repeats () =
  let run_lab = Array.to_list (stream G.Run_lab).G.requests in
  Alcotest.(check int) "run-lab repeats no query" (List.length run_lab)
    (distinct_signatures G.Run_lab run_lab);
  (* mixed-chatty cycles 8 RUN shapes: of its first 60 RUNs, 52 repeat *)
  let first60 = List.init 60 (G.request (stream G.Mixed_chatty)) in
  Alcotest.(check int) "mixed-chatty distinct RUN shapes" 8
    (distinct_signatures G.Mixed_chatty first60)

let test_selectivity () =
  let check w ok what =
    let _, live = history_live w in
    Array.iter
      (Array.iter (fun l ->
           let f = G.match_fraction (compile w l) live in
           if not (ok f) then Alcotest.failf "%s: %s matches %.3f of live tuples, want %s" (G.name w) l f what))
      (stream w).G.subscribe
  in
  check G.Tick_selective (fun f -> f > 0.0 && f <= 0.05) "<= 5%";
  check G.Mixed_chatty (fun f -> f >= 0.90) ">= 90%";
  Alcotest.(check int) "tick-selective shapes" 25
    (distinct_signatures G.Tick_selective (lines (stream G.Tick_selective)))

(* The lab queries are not degenerate: most heuristic plans branch. *)
let test_plans_branch () =
  let history, _ = history_live G.Run_lab in
  let sample = List.init 20 (G.request (stream G.Run_lab)) in
  let branching =
    List.length
      (List.filter
         (fun l ->
           let r =
             Acq_core.Planner.plan Acq_core.Planner.Heuristic (compile G.Run_lab l) ~train:history
           in
           Acq_plan.Plan.n_tests r.Acq_core.Planner.plan > 0)
         sample)
  in
  if branching * 5 < List.length sample * 4 then
    Alcotest.failf "only %d of %d run-lab plans contain a test" branching (List.length sample)

let () =
  Alcotest.run "e2e-gen"
    [
      ( "streams",
        [
          Alcotest.test_case "same seed, same bytes" `Quick test_deterministic;
          Alcotest.test_case "every SQL line compiles" `Quick test_compiles;
          Alcotest.test_case "raw-unit SQL round-trips" `Quick test_round_trip;
          Alcotest.test_case "repeat shares" `Quick test_repeats;
          Alcotest.test_case "selective and chatty shapes" `Quick test_selectivity;
          Alcotest.test_case "run-lab plans branch" `Quick test_plans_branch;
        ] );
    ]
