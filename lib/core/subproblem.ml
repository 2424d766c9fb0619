type t = Acq_plan.Range.t array

let initial schema =
  Array.map Acq_plan.Range.full (Acq_data.Schema.domains schema)

let acquired t ~domains i = not (Acq_plan.Range.is_full t.(i) domains.(i))

let acquisition_cost t ~domains ~costs i =
  if acquired t ~domains i then 0.0 else costs.(i)

let acquisition_cost_model t ~domains ~model i =
  Acq_plan.Cost_model.atomic model i ~acquired:(fun j -> acquired t ~domains j)

let with_range t i r =
  let t' = Array.copy t in
  t'.(i) <- r;
  t'

let all_acquired t ~domains attrs =
  Array.for_all (fun i -> acquired t ~domains i) attrs

let key t =
  let b = Bytes.create (8 * Array.length t) in
  for i = 0 to Array.length t - 1 do
    let r : Acq_plan.Range.t = t.(i) in
    Bytes.set_int32_le b (8 * i) (Int32.of_int r.lo);
    Bytes.set_int32_le b ((8 * i) + 4) (Int32.of_int r.hi)
  done;
  Bytes.unsafe_to_string b
