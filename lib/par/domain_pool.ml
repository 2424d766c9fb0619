type 'a state = Pending | Done of 'a | Raised of exn

type 'a future = { mutable state : 'a state; mutable ran_on : int }

(* A task is pre-wrapped so the deques are monomorphic: it receives
   the executing worker's index and shard telemetry, runs the user
   thunk, and stores the outcome in the future. Never raises. *)
type task = int -> Acq_obs.Telemetry.t -> unit

(* Per-worker deque. [items]'s head is the owner's (hot, LIFO) end;
   submissions and steals use the tail (cold, FIFO) end. Lists are
   fine: tasks are coarse and queues short, so the O(n) tail access is
   noise. All deque access happens under the pool mutex. *)
type deque = { mutable items : task list }

type t = {
  mutex : Mutex.t;
  work : Condition.t;  (* signalled on submit and shutdown *)
  done_ : Condition.t;  (* signalled on every task completion *)
  deques : deque array;
  shards : Acq_obs.Metrics.t array;
  busy_ms : float array;  (* written only by the owning worker *)
  telemetry : Acq_obs.Telemetry.t;
  mutable stopping : bool;
  mutable joined : bool;
  mutable submitted : int;
  mutable completed : int;
  mutable steals : int;
  mutable rr : int;  (* round-robin submission cursor *)
  mutable workers : unit Domain.t array;
}

let size t = Array.length t.deques

(* Called with the mutex held: the worker's own deque head first, then
   a FIFO steal scanning siblings from the left neighbour onwards. *)
let next_task t wid =
  let own = t.deques.(wid) in
  match own.items with
  | task :: rest ->
      own.items <- rest;
      Some task
  | [] ->
      let n = Array.length t.deques in
      let rec scan k =
        if k >= n then None
        else
          let d = t.deques.((wid + k) mod n) in
          match d.items with
          | [] -> scan (k + 1)
          | items ->
              let rec take_last acc = function
                | [ last ] -> (List.rev acc, last)
                | x :: rest -> take_last (x :: acc) rest
                | [] -> assert false
              in
              let rest, last = take_last [] items in
              d.items <- rest;
              t.steals <- t.steals + 1;
              Some last
      in
      scan 1

let worker t wid () =
  let tele = Acq_obs.Telemetry.create ~metrics:t.shards.(wid) () in
  let labels = [ ("domain", string_of_int wid) ] in
  Mutex.lock t.mutex;
  let rec loop () =
    match next_task t wid with
    | Some task ->
        Mutex.unlock t.mutex;
        let t0 = Unix.gettimeofday () in
        task wid tele;
        let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
        t.busy_ms.(wid) <- t.busy_ms.(wid) +. ms;
        Acq_obs.Telemetry.observe tele ~labels "acqp_par_task_ms" ms;
        Mutex.lock t.mutex;
        t.completed <- t.completed + 1;
        Condition.broadcast t.done_;
        loop ()
    | None ->
        if t.stopping then Mutex.unlock t.mutex
        else begin
          Condition.wait t.work t.mutex;
          loop ()
        end
  in
  loop ()

let create ?(telemetry = Acq_obs.Telemetry.noop) ~domains () =
  if domains < 1 then invalid_arg "Domain_pool.create: domains must be >= 1";
  let t =
    {
      mutex = Mutex.create ();
      work = Condition.create ();
      done_ = Condition.create ();
      deques = Array.init domains (fun _ -> { items = [] });
      shards = Array.init domains (fun _ -> Acq_obs.Metrics.create ());
      busy_ms = Array.make domains 0.0;
      telemetry;
      stopping = false;
      joined = false;
      submitted = 0;
      completed = 0;
      steals = 0;
      rr = 0;
      workers = [||];
    }
  in
  t.workers <- Array.init domains (fun wid -> Domain.spawn (worker t wid));
  t

let submit t f =
  let fut = { state = Pending; ran_on = -1 } in
  let task wid tele =
    let outcome = match f tele with v -> Done v | exception e -> Raised e in
    fut.ran_on <- wid;
    fut.state <- outcome
  in
  Mutex.lock t.mutex;
  if t.stopping then begin
    Mutex.unlock t.mutex;
    invalid_arg "Domain_pool.submit: pool is shut down"
  end;
  let d = t.deques.(t.rr mod Array.length t.deques) in
  t.rr <- t.rr + 1;
  d.items <- d.items @ [ task ];
  t.submitted <- t.submitted + 1;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  fut

let await t fut =
  Mutex.lock t.mutex;
  while match fut.state with Pending -> true | Done _ | Raised _ -> false do
    Condition.wait t.done_ t.mutex
  done;
  Mutex.unlock t.mutex;
  match fut.state with
  | Done v -> Ok v
  | Raised e -> Error e
  | Pending -> assert false

let await_exn t fut =
  match await t fut with Ok v -> v | Error e -> raise e

let ran_on fut = fut.ran_on

let run t f = await_exn t (submit t f)

type stats = {
  domains : int;
  submitted : int;
  completed : int;
  steals : int;
  busy_ms : float array;
}

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      domains = Array.length t.deques;
      submitted = t.submitted;
      completed = t.completed;
      steals = t.steals;
      busy_ms = Array.copy t.busy_ms;
    }
  in
  Mutex.unlock t.mutex;
  s

let shutdown t =
  Mutex.lock t.mutex;
  let first = not t.stopping in
  t.stopping <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  if first && not t.joined then begin
    Array.iter Domain.join t.workers;
    t.joined <- true;
    let module T = Acq_obs.Telemetry in
    match T.metrics t.telemetry with
    | None -> ()
    | Some dst ->
        T.add t.telemetry "acqp_par_tasks_total" (float_of_int t.completed);
        T.add t.telemetry "acqp_par_steals_total" (float_of_int t.steals);
        Array.iteri
          (fun wid ms ->
            T.add t.telemetry
              ~labels:[ ("domain", string_of_int wid) ]
              "acqp_par_domain_busy_ms_total" ms)
          t.busy_ms;
        Array.iter
          (fun shard -> Acq_obs.Metrics.merge_into ~src:shard ~dst)
          t.shards
  end

let with_pool ?telemetry ~domains f =
  let t = create ?telemetry ~domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
