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
  (* Radio cost of a result message carrying [n] attributes, indexed
     by [n]; built with [prepared], since the arity comes with the
     costs. *)
  mutable result_cost : float array;
}

let create ~id ~hops ~radio () =
  {
    id;
    hops;
    radio;
    energy = Energy.create ();
    plan = None;
    prepared = None;
    result_cost = [||];
  }

let id t = t.id

let hops t = t.hops

let energy t = t.energy

let install_plan t plan ~bytes =
  Energy.charge_rx t.energy ~bytes:(bytes + t.radio.Radio.header_bytes)
    ~per_byte:t.radio.Radio.per_byte;
  t.plan <- Some plan;
  t.prepared <- None

let plan t = t.plan

let prepared t q ~costs plan =
  match t.prepared with
  | Some p -> p
  | None ->
      let p = Acq_exec.Runner.prepare q ~costs plan in
      t.prepared <- Some p;
      if Array.length t.result_cost <> Array.length costs + 1 then
        t.result_cost <-
          Array.init (Array.length costs + 1) (fun n ->
              Radio.message_cost t.radio
                ~payload_bytes:(Radio.result_bytes t.radio ~n_attrs:n)
                ~hops:t.hops);
      p

let run_epoch ?obs ?probe t q ~costs ~lookup =
  match t.plan with
  | None -> failwith "Mote.run_epoch: no plan installed"
  | Some plan ->
      let p = prepared t q ~costs plan in
      let verdict = Acq_exec.Runner.step ?obs ?probe p ~lookup in
      Energy.add_acquisition t.energy (Acq_exec.Runner.cost p);
      if verdict then
        t.energy.Energy.radio_tx <-
          t.energy.Energy.radio_tx
          +. t.result_cost.(Acq_exec.Runner.n_acquired p);
      verdict

let last_cost t =
  match t.prepared with Some p -> Acq_exec.Runner.cost p | None -> 0.0

let last_acquired t =
  match t.prepared with Some p -> Acq_exec.Runner.n_acquired p | None -> 0
