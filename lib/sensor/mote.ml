type t = {
  id : int;
  hops : int;
  radio : Radio.t;
  energy : Energy.t;
  mutable plan : Acq_plan.Plan.t option;
  (* Compiled form of [plan], built lazily on the first epoch after an
     install (that is when the query and costs arrive) and reused until
     the next install invalidates it — recompiling on plan switch,
     never per epoch. *)
  mutable prepared : Acq_exec.Runner.prepared option;
}

let create ~id ~hops ~radio () =
  { id; hops; radio; energy = Energy.create (); plan = None; prepared = None }

let id t = t.id

let hops t = t.hops

let energy t = t.energy

let install_plan t plan ~bytes =
  Energy.charge_rx t.energy ~bytes:(bytes + t.radio.Radio.header_bytes)
    ~per_byte:t.radio.Radio.per_byte;
  t.plan <- Some plan;
  t.prepared <- None

let plan t = t.plan

type epoch_result = {
  verdict : bool;
  acquisition_cost : float;
  acquired : int list;
}

let prepared t q ~costs plan =
  match t.prepared with
  | Some p -> p
  | None ->
      let p = Acq_exec.Runner.prepare q ~costs plan in
      t.prepared <- Some p;
      p

let run_epoch ?obs ?probe t q ~costs ~lookup =
  match t.plan with
  | None -> failwith "Mote.run_epoch: no plan installed"
  | Some plan ->
      let p = prepared t q ~costs plan in
      let o = Acq_exec.Runner.run ?obs ?probe p ~lookup in
      Energy.add_acquisition t.energy o.Acq_plan.Executor.cost;
      if o.Acq_plan.Executor.verdict then begin
        let payload =
          Radio.result_bytes t.radio
            ~n_attrs:(List.length o.Acq_plan.Executor.acquired)
        in
        let cost =
          Radio.message_cost t.radio ~payload_bytes:payload ~hops:t.hops
        in
        t.energy.Energy.radio_tx <- t.energy.Energy.radio_tx +. cost
      end;
      {
        verdict = o.Acq_plan.Executor.verdict;
        acquisition_cost = o.Acq_plan.Executor.cost;
        acquired = o.Acq_plan.Executor.acquired;
      }
