module E = Acq_plan.Executor
module T = Acq_obs.Telemetry

type prepared = {
  query : Acq_plan.Query.t;
  plan : Acq_plan.Plan.t;
  batch : Batch.t;
  mutable registry : Acq_obs.Metrics.t option;
  mutable instr : E.Instr.t option;
      (* instruments resolved under [registry], the last registry this
         plan ran under; resolving is n_attrs + 3 by-name lookups, so
         it happens on the first run under a registry, not per tuple *)
}

let prepare ?model q ~costs plan =
  {
    query = q;
    plan;
    batch = Batch.create ?model ~costs (Compile.compile q plan);
    registry = None;
    instr = None;
  }

let plan p = p.plan

(* Keyed by the registry's physical identity, not by the first one
   seen: one plan may run under several registries (a session under
   its supervisor's telemetry, a caller under its own), and each run's
   counters must land in the registry that run carries. *)
let instr p obs =
  match T.metrics obs with
  | None -> None
  | Some m as registry ->
      (match p.registry with
      | Some m' when m' == m -> ()
      | _ ->
          p.instr <- E.Instr.of_obs obs p.query;
          p.registry <- registry);
      p.instr

let run ?(obs = T.noop) ?probe ?times p ~lookup =
  Batch.run ?instr:(instr p obs) ?probe ?times p.batch ~lookup

let run_tuple ?obs ?probe p tuple =
  run ?obs ?probe p ~lookup:(fun at -> tuple.(at))

let average_cost_prepared ?(obs = T.noop) ?probe p data =
  let n = Acq_data.Dataset.nrows data in
  if n = 0 then 0.0
  else
    T.span obs ~cat:"executor"
      ~attrs:[ ("rows", string_of_int n) ]
      "executor.average_cost"
    @@ fun () -> Batch.average_cost ?instr:(instr p obs) ?probe p.batch data

let average_cost ?model ?obs ?probe q ~costs plan data =
  average_cost_prepared ?obs ?probe (prepare ?model q ~costs plan) data
