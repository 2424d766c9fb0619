type t = { motes : Mote.t array; radio : Radio.t }

let hops_of_index i =
  (* Balanced binary collection tree: depth grows logarithmically. *)
  let rec depth n acc = if n <= 0 then acc else depth ((n - 1) / 2) (acc + 1) in
  depth i 1

let create ?(radio = Radio.default) ~n_motes () =
  if n_motes < 1 then invalid_arg "Network.create: need at least one mote";
  {
    motes =
      Array.init n_motes (fun i ->
          Mote.create ~id:i ~hops:(hops_of_index i) ~radio ());
    radio;
  }

let n_motes t = Array.length t.motes

let mote t i = t.motes.(i)

let radio t = t.radio

let disseminate t plan =
  let bytes = Acq_plan.Serialize.size plan in
  Array.iter (fun m -> Mote.install_plan m plan ~bytes) t.motes;
  bytes

let total_energy t =
  Array.fold_left
    (fun acc m -> Energy.merge acc (Mote.energy m))
    (Energy.create ()) t.motes

let reset_energy t = Array.iter (fun m -> Energy.reset (Mote.energy m)) t.motes
