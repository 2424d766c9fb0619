module E = Acq_plan.Executor
module CM = Acq_plan.Cost_model

type t = {
  auto : Compile.t;
  (* Pricing, specialized at create time from Cost_model.pricing:
     [board] is empty for the uniform model, so the hot loop's pricing
     branch is a single length test on a loop-invariant array. *)
  uniform : float array;
  board : int array;
  wakeup : float array;
  read : float array;
  (* Per-tuple state, allocated once and reused: stamps carry the
     current tuple id, so "reset between tuples" is [tid + 1], not a
     fill. *)
  stamp : int array;  (* per attribute: tuple id of its acquisition *)
  bstamp : int array;  (* per board: tuple id when first powered *)
  order : int array;  (* acquisition order of the current tuple *)
  acq_counts : int array;  (* per-attribute counts, flushed per sweep *)
  acc : float array;  (* unboxed: 0 = tuple cost, 1 = sweep total *)
  mutable n_acq : int;
  mutable tests : int;
  mutable tid : int;
}

let create ?model ~costs auto =
  let n = Array.length costs in
  if Compile.n_attrs auto <> n then
    invalid_arg "Batch.create: automaton arity does not match costs";
  let uniform, board, wakeup, read =
    match model with
    | None -> (Array.copy costs, [||], [||], [||])
    | Some m -> (
        if CM.n_attrs m <> n then
          invalid_arg "Batch.create: cost model arity does not match costs";
        match CM.pricing m with
        | CM.Uniform_costs u -> (u, [||], [||], [||])
        | CM.Board_costs { board; wakeup; read } -> ([||], board, wakeup, read))
  in
  let n_boards = Array.length wakeup in
  {
    auto;
    uniform;
    board;
    wakeup;
    read;
    stamp = Array.make n 0;
    bstamp = Array.make n_boards 0;
    order = Array.make n 0;
    acq_counts = Array.make n 0;
    acc = Array.make 2 0.0;
    n_acq = 0;
    tests = 0;
    tid = 0;
  }

let automaton t = t.auto

(* Stand-in probe counts for an unprobed traversal: never written. *)
let no_counts = [||]

(* The traversal core: one tuple through the automaton, returning its
   verdict and leaving its cost ([acc.(0)]), acquisition order and
   count, and test count in [t]. A loop over node indices, not a
   closure, so an unprobed call allocates nothing. *)
let traverse t ~lookup probe =
  let a = t.auto in
  let probed = probe <> None in
  (match probe with Some p -> Probe.check p a | None -> ());
  let phits = match probe with Some p -> Probe.hits p | None -> no_counts in
  let pmisses = match probe with Some p -> Probe.misses p | None -> no_counts in
  t.tid <- t.tid + 1;
  let tid = t.tid in
  t.acc.(0) <- 0.0;
  t.n_acq <- 0;
  t.tests <- 0;
  let node = ref a.Compile.entry in
  while !node >= 0 do
    let n = !node in
    let at = a.Compile.attr.(n) in
    t.tests <- t.tests + a.Compile.kind.(n);
    if t.stamp.(at) <> tid then begin
      t.stamp.(at) <- tid;
      t.order.(t.n_acq) <- at;
      t.n_acq <- t.n_acq + 1;
      let c =
        if Array.length t.board = 0 then t.uniform.(at)
        else begin
          let b = t.board.(at) in
          if t.bstamp.(b) = tid then t.read.(at)
          else begin
            t.bstamp.(b) <- tid;
            t.wakeup.(b) +. t.read.(at)
          end
        end
      in
      t.acc.(0) <- t.acc.(0) +. c
    end;
    let v = lookup at in
    let hit = a.Compile.lo.(n) <= v && v <= a.Compile.hi.(n) in
    if probed then begin
      if hit then phits.(n) <- phits.(n) + 1
      else pmisses.(n) <- pmisses.(n) + 1
    end;
    node := if hit then a.Compile.on_hit.(n) else a.Compile.on_miss.(n)
  done;
  (match probe with Some p -> Probe.observe_cost p t.acc.(0) | None -> ());
  !node = Compile.accept

(* The executor series of one traversal, [times] over: [run] and
   [step] record the same writes. *)
let record instr ~times t verdict =
  match instr with
  | Some i ->
      E.Instr.acquired i ~times t.order t.n_acq;
      E.Instr.tuple i ~times ~verdict ~tests:t.tests
  | None -> ()

let step ?instr ?probe t ~lookup =
  let verdict = traverse t ~lookup probe in
  record instr ~times:1 t verdict;
  verdict

let cost t = t.acc.(0)
let n_acquired t = t.n_acq

let run ?instr ?probe ?(times = 1) t ~lookup =
  let verdict = traverse t ~lookup probe in
  record instr ~times t verdict;
  {
    E.verdict;
    cost = t.acc.(0);
    acquired = List.init t.n_acq (fun k -> t.order.(k));
  }

let run_tuple ?instr ?probe t tuple =
  run ?instr ?probe t ~lookup:(fun at -> tuple.(at))

(* Stand-in cost cells for an unprobed sweep: read once, never written. *)
let no_cells = Array.make 6 0.0

let sweep_columns ?instr ?probe t cols ~nrows =
  if nrows = 0 then 0.0
  else begin
    let a = t.auto in
    let n_attrs = Array.length t.stamp in
    if Array.length cols <> n_attrs then
      invalid_arg "Batch.sweep_columns: column count does not match schema";
    Array.iter
      (fun c ->
        if Array.length c < nrows then
          invalid_arg "Batch.sweep_columns: column shorter than nrows")
      cols;
    (* Probe arrays are hoisted like the automaton's: the audited
       sweep adds one int increment per node visit, to its hit or its
       miss count on the branch the walk takes anyway (a separate
       branch costs ~3% more), and the cost cells are folded in
       registers and written back once per sweep — no per-tuple
       allocation or call. *)
    let probed, phits, pmisses, cells, pred =
      match probe with
      | None -> (false, [||], [||], no_cells, 0.0)
      | Some p ->
          Probe.check p a;
          (true, Probe.hits p, Probe.misses p, Probe.cost_cells p,
           Probe.predicted_cost p)
    in
    let s_err = ref cells.(0) and s_sq = ref cells.(1) in
    let s_max = ref cells.(2) and s_n = ref cells.(3) in
    let s_abs = ref cells.(4) and s_obs = ref cells.(5) in
    let kind = a.Compile.kind in
    let attr = a.Compile.attr in
    let lo = a.Compile.lo in
    let hi = a.Compile.hi in
    let on_hit = a.Compile.on_hit in
    let on_miss = a.Compile.on_miss in
    let entry = a.Compile.entry in
    let is_uniform = Array.length t.board = 0 in
    let instrumented = instr <> None in
    t.acc.(1) <- 0.0;
    let matches = ref 0 in
    (* The closure is built once per sweep and threads the row index
       as an argument, so the per-tuple loop below allocates nothing:
       stamps replace clearing, the accumulators are unboxed float
       array cells, and acquisition counters are plain ints flushed in
       one batch after the loop. *)
    let rec go r node =
      if node >= 0 then begin
        let at = attr.(node) in
        t.tests <- t.tests + kind.(node);
        if t.stamp.(at) <> t.tid then begin
          t.stamp.(at) <- t.tid;
          t.order.(t.n_acq) <- at;
          t.n_acq <- t.n_acq + 1;
          t.acq_counts.(at) <- t.acq_counts.(at) + 1;
          let c =
            if is_uniform then t.uniform.(at)
            else begin
              let b = t.board.(at) in
              if t.bstamp.(b) = t.tid then t.read.(at)
              else begin
                t.bstamp.(b) <- t.tid;
                t.wakeup.(b) +. t.read.(at)
              end
            end
          in
          t.acc.(0) <- t.acc.(0) +. c
        end;
        let v = cols.(at).(r) in
        let hit = lo.(node) <= v && v <= hi.(node) in
        if hit then begin
          if probed then phits.(node) <- phits.(node) + 1;
          go r on_hit.(node)
        end
        else begin
          if probed then pmisses.(node) <- pmisses.(node) + 1;
          go r on_miss.(node)
        end
      end
      else node
    in
    for r = 0 to nrows - 1 do
      t.tid <- t.tid + 1;
      t.acc.(0) <- 0.0;
      t.n_acq <- 0;
      t.tests <- 0;
      let exit = go r entry in
      if exit = Compile.accept then incr matches;
      t.acc.(1) <- t.acc.(1) +. t.acc.(0);
      if probed then begin
        (* Probe.observe_cost, op for op, so the cells end bit-identical
           to folding tuple by tuple. *)
        let cost = t.acc.(0) in
        let err = cost -. pred in
        s_err := !s_err +. err;
        s_sq := !s_sq +. (err *. err);
        let a = Float.abs err in
        if a > !s_max then s_max := a;
        s_n := !s_n +. 1.0;
        s_abs := !s_abs +. a;
        s_obs := !s_obs +. cost
      end;
      if instrumented then
        match instr with Some i -> E.Instr.depth i t.tests | None -> ()
    done;
    (match instr with
    | Some i ->
        for at = 0 to n_attrs - 1 do
          E.Instr.acquisitions i at t.acq_counts.(at)
        done;
        E.Instr.tuples i ~n:nrows ~matches:!matches
    | None -> ());
    if probed then begin
      cells.(0) <- !s_err;
      cells.(1) <- !s_sq;
      cells.(2) <- !s_max;
      cells.(3) <- !s_n;
      cells.(4) <- !s_abs;
      cells.(5) <- !s_obs
    end;
    Array.fill t.acq_counts 0 n_attrs 0;
    t.acc.(1) /. float_of_int nrows
  end

let average_cost ?instr ?probe t data =
  let nrows = Acq_data.Dataset.nrows data in
  if nrows = 0 then 0.0
  else sweep_columns ?instr ?probe t (Acq_data.Dataset.columns data) ~nrows
