type active = {
  metrics : Metrics.t option;
  tracer : Tracer.t option;
}

type t = Noop | Active of active

let noop = Noop

let create ?metrics ?tracer () =
  match (metrics, tracer) with
  | None, None -> Noop
  | _ -> Active { metrics; tracer }

let enabled = function Noop -> false | Active _ -> true
let metrics = function Noop -> None | Active a -> a.metrics
let tracer = function Noop -> None | Active a -> a.tracer

let span t ?cat ?attrs name f =
  match t with
  | Noop -> f ()
  | Active { tracer = Some tr; _ } -> Tracer.span tr ?cat ?attrs name f
  | Active _ -> f ()

let event t ?cat ?attrs name =
  match t with
  | Active { tracer = Some tr; _ } -> Tracer.event tr ?cat ?attrs name
  | Noop | Active _ -> ()

let sample t name series =
  match t with
  | Noop -> ()
  | Active { tracer = Some tr; _ } -> Tracer.sample tr name series
  | Active _ -> ()

let incr t ?labels name =
  match t with
  | Noop -> ()
  | Active { metrics = Some m; _ } -> Metrics.incr (Metrics.counter m ?labels name)
  | Active _ -> ()

let add t ?labels name v =
  match t with
  | Noop -> ()
  | Active { metrics = Some m; _ } -> Metrics.add (Metrics.counter m ?labels name) v
  | Active _ -> ()

let set t ?labels name v =
  match t with
  | Noop -> ()
  | Active { metrics = Some m; _ } -> Metrics.set (Metrics.gauge m ?labels name) v
  | Active _ -> ()

let observe t ?labels ?lowest ?growth ?buckets name v =
  match t with
  | Noop -> ()
  | Active { metrics = Some m; _ } ->
      Metrics.observe (Metrics.histogram m ?labels ?lowest ?growth ?buckets name) v
  | Active _ -> ()
