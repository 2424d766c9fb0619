module E = Acq_plan.Executor
module T = Acq_obs.Telemetry

type prepared = {
  query : Acq_plan.Query.t;
  plan : Acq_plan.Plan.t;
  batch : Batch.t;
}

let prepare ?model q ~costs plan =
  { query = q; plan; batch = Batch.create ?model ~costs (Compile.compile q plan) }

let plan p = p.plan

let run ?(obs = T.noop) ?probe p ~lookup =
  Batch.run ?instr:(E.Instr.of_obs obs p.query) ?probe p.batch ~lookup

let run_tuple ?obs ?probe p tuple =
  run ?obs ?probe p ~lookup:(fun at -> tuple.(at))

let average_cost_prepared ?(obs = T.noop) ?probe p data =
  let n = Acq_data.Dataset.nrows data in
  if n = 0 then 0.0
  else
    T.span obs ~cat:"executor"
      ~attrs:[ ("rows", string_of_int n) ]
      "executor.average_cost"
    @@ fun () ->
    Batch.average_cost ?instr:(E.Instr.of_obs obs p.query) ?probe p.batch data

let average_cost ?model ?obs ?probe q ~costs plan data =
  average_cost_prepared ?obs ?probe (prepare ?model q ~costs plan) data
