type t = { data : Acq_data.Dataset.t; nodeid_attr : int option }

let replay data =
  let schema = Acq_data.Dataset.schema data in
  let nodeid_attr =
    if Acq_data.Schema.mem schema "nodeid" then
      Some (Acq_data.Schema.index_of schema "nodeid")
    else None
  in
  { data; nodeid_attr }

let schema t = Acq_data.Dataset.schema t.data

let n_epochs t = Acq_data.Dataset.nrows t.data

let mote_of_epoch t e =
  match t.nodeid_attr with
  | Some a -> Acq_data.Dataset.get t.data e a
  | None -> 0

type cursor = { cells : int array; width : int; mutable base : int }

let cursor t =
  {
    cells = Acq_data.Dataset.cells t.data;
    width = Acq_data.Dataset.ncols t.data;
    base = 0;
  }

let seek c epoch = c.base <- epoch * c.width
let read c attr = c.cells.(c.base + attr)
let satisfies c q = Acq_plan.Query.eval_at q c.cells ~base:c.base
let blit_row c row = Array.blit c.cells c.base row 0 c.width
