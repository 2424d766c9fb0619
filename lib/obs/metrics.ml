type counter = { mutable c_value : float }
type gauge = { mutable g_value : float }

type histogram = {
  bounds : float array;  (* upper bounds of the finite buckets *)
  counts : int array;  (* length = Array.length bounds + 1; last = overflow *)
  mutable h_count : int;
  h_sum : float array;
      (* one cell: a mutable float field of this mixed record would
         box a fresh float on every observation *)
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type family = {
  name : string;
  help : string;
  kind : string;  (* "counter" | "gauge" | "histogram" *)
  mutable series : ((string * string) list * instrument) list;
      (* label set -> instrument, newest first; dumps reverse it *)
}

type t = {
  families : (string, family) Hashtbl.t;
  mutable order : string list;  (* family names, newest first: dump order *)
}

let create () = { families = Hashtbl.create 32; order = [] }

let family t ~name ~help ~kind =
  match Hashtbl.find_opt t.families name with
  | Some f ->
      if f.kind <> kind then
        invalid_arg
          (Printf.sprintf "Metrics: %s already registered as a %s" name f.kind);
      f
  | None ->
      let f = { name; help; kind; series = [] } in
      Hashtbl.add t.families name f;
      t.order <- name :: t.order;
      f

let normalize_labels labels =
  List.sort (fun (a, _) (b, _) -> compare a b) labels

let series f labels make =
  let labels = normalize_labels labels in
  match List.assoc_opt labels f.series with
  | Some i -> i
  | None ->
      let i = make () in
      f.series <- (labels, i) :: f.series;
      i

let counter t ?(help = "") ?(labels = []) name =
  let f = family t ~name ~help ~kind:"counter" in
  match series f labels (fun () -> Counter { c_value = 0.0 }) with
  | Counter c -> c
  | Gauge _ | Histogram _ -> assert false

let gauge t ?(help = "") ?(labels = []) name =
  let f = family t ~name ~help ~kind:"gauge" in
  match series f labels (fun () -> Gauge { g_value = 0.0 }) with
  | Gauge g -> g
  | Counter _ | Histogram _ -> assert false

let default_lowest = 0.001
let default_growth = 4.0
let default_buckets = 20

let histogram t ?(help = "") ?(labels = []) ?(lowest = default_lowest)
    ?(growth = default_growth) ?(buckets = default_buckets) name =
  if buckets < 1 then invalid_arg "Metrics.histogram: buckets must be >= 1";
  if not (lowest > 0.0) then
    invalid_arg "Metrics.histogram: lowest must be positive";
  if not (growth > 1.0) then
    invalid_arg "Metrics.histogram: growth must be > 1";
  let f = family t ~name ~help ~kind:"histogram" in
  let make () =
    let bounds = Array.make buckets lowest in
    for i = 1 to buckets - 1 do
      bounds.(i) <- bounds.(i - 1) *. growth
    done;
    Histogram
      {
        bounds;
        counts = Array.make (buckets + 1) 0;
        h_count = 0;
        h_sum = [| 0.0 |];
      }
  in
  match series f labels make with
  | Histogram h -> h
  | Counter _ | Gauge _ -> assert false

let incr c = c.c_value <- c.c_value +. 1.0

let add c v =
  if v < 0.0 then invalid_arg "Metrics.add: counters are monotone";
  c.c_value <- c.c_value +. v

let add_int c n =
  if n < 0 then invalid_arg "Metrics.add_int: counters are monotone";
  c.c_value <- c.c_value +. float_of_int n

let counter_value c = c.c_value
let set g v = g.g_value <- v
let add_gauge g v = g.g_value <- g.g_value +. v
let gauge_value g = g.g_value

(* Index of the bucket [v] falls in; the last is the overflow. *)
let[@inline] bucket h v =
  let n = Array.length h.bounds in
  let i = ref 0 in
  while !i < n && v > h.bounds.(!i) do
    i := !i + 1
  done;
  !i

let[@inline] observe h v =
  let i = bucket h v in
  h.counts.(i) <- h.counts.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum.(0) <- h.h_sum.(0) +. v

let observe_int h k = observe h (float_of_int k)

let observe_int_times h k times =
  let v = float_of_int k in
  let i = bucket h v in
  h.counts.(i) <- h.counts.(i) + times;
  h.h_count <- h.h_count + times;
  h.h_sum.(0) <- h.h_sum.(0) +. (v *. float_of_int times)

let hist_count h = h.h_count
let hist_sum h = h.h_sum.(0)
let bucket_counts h = Array.copy h.counts

(* ------------------------------------------------------------------ *)
(* Rendering *)

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (Json.escape v))
             labels)
      ^ "}"

let sample_name name labels = name ^ render_labels labels

let in_order t =
  List.rev_map
    (fun name ->
      let f = Hashtbl.find t.families name in
      (f, List.rev f.series))
    t.order
  |> List.rev

type snapshot = (string * float) list

let snapshot t =
  List.concat_map
    (fun (f, series) ->
      List.concat_map
        (fun (labels, inst) ->
          match inst with
          | Counter c -> [ (sample_name f.name labels, c.c_value) ]
          | Gauge g -> [ (sample_name f.name labels, g.g_value) ]
          | Histogram h ->
              [
                (sample_name (f.name ^ "_count") labels, float_of_int h.h_count);
                (sample_name (f.name ^ "_sum") labels, h.h_sum.(0));
              ])
        series)
    (in_order t)

let diff later earlier =
  List.map
    (fun (k, v) ->
      match List.assoc_opt k earlier with
      | Some v0 -> (k, v -. v0)
      | None -> (k, v))
    later

let find snap key = List.assoc_opt key snap

let merge_into ~src ~dst =
  if src == dst then invalid_arg "Metrics.merge_into: src and dst are the same";
  List.iter
    (fun (f, series_list) ->
      let df = family dst ~name:f.name ~help:f.help ~kind:f.kind in
      List.iter
        (fun (labels, inst) ->
          match inst with
          | Counter c -> (
              match series df labels (fun () -> Counter { c_value = 0.0 }) with
              | Counter d -> d.c_value <- d.c_value +. c.c_value
              | Gauge _ | Histogram _ -> assert false)
          | Gauge g -> (
              match series df labels (fun () -> Gauge { g_value = 0.0 }) with
              | Gauge d -> d.g_value <- d.g_value +. g.g_value
              | Counter _ | Histogram _ -> assert false)
          | Histogram h -> (
              let make () =
                Histogram
                  {
                    bounds = Array.copy h.bounds;
                    counts = Array.make (Array.length h.counts) 0;
                    h_count = 0;
                    h_sum = [| 0.0 |];
                  }
              in
              match series df labels make with
              | Histogram d ->
                  if d.bounds <> h.bounds then
                    invalid_arg
                      (Printf.sprintf
                         "Metrics.merge_into: %s has different bucket bounds"
                         f.name);
                  Array.iteri
                    (fun i c -> d.counts.(i) <- d.counts.(i) + c)
                    h.counts;
                  d.h_count <- d.h_count + h.h_count;
                  d.h_sum.(0) <- d.h_sum.(0) +. h.h_sum.(0)
              | Counter _ | Gauge _ -> assert false))
        series_list)
    (in_order src)

let bound_str b =
  if Float.is_integer b && Float.abs b < 1e15 then Printf.sprintf "%.0f" b
  else Printf.sprintf "%g" b

let to_prometheus t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (f, series) ->
      if f.help <> "" then
        Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" f.name f.help);
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" f.name f.kind);
      List.iter
        (fun (labels, inst) ->
          match inst with
          | Counter c ->
              Buffer.add_string buf
                (Printf.sprintf "%s %s\n"
                   (sample_name f.name labels)
                   (Json.number c.c_value))
          | Gauge g ->
              Buffer.add_string buf
                (Printf.sprintf "%s %s\n"
                   (sample_name f.name labels)
                   (Json.number g.g_value))
          | Histogram h ->
              let cumulative = ref 0 in
              Array.iteri
                (fun i count ->
                  cumulative := !cumulative + count;
                  let le =
                    if i < Array.length h.bounds then bound_str h.bounds.(i)
                    else "+Inf"
                  in
                  Buffer.add_string buf
                    (Printf.sprintf "%s %d\n"
                       (sample_name (f.name ^ "_bucket")
                          (normalize_labels (("le", le) :: labels)))
                       !cumulative))
                h.counts;
              Buffer.add_string buf
                (Printf.sprintf "%s %s\n"
                   (sample_name (f.name ^ "_sum") labels)
                   (Json.number h.h_sum.(0)));
              Buffer.add_string buf
                (Printf.sprintf "%s %d\n"
                   (sample_name (f.name ^ "_count") labels)
                   h.h_count))
        series)
    (in_order t);
  Buffer.contents buf

let labels_json labels =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)

let to_json t =
  Json.Arr
    (List.map
       (fun (f, series) ->
         let samples =
           List.map
             (fun (labels, inst) ->
               let common = [ ("labels", labels_json labels) ] in
               match inst with
               | Counter c -> Json.Obj (common @ [ ("value", Json.Num c.c_value) ])
               | Gauge g -> Json.Obj (common @ [ ("value", Json.Num g.g_value) ])
               | Histogram h ->
                   Json.Obj
                     (common
                     @ [
                         ("count", Json.Num (float_of_int h.h_count));
                         ("sum", Json.Num h.h_sum.(0));
                         ( "bounds",
                           Json.Arr
                             (Array.to_list
                                (Array.map (fun b -> Json.Num b) h.bounds)) );
                         ( "counts",
                           Json.Arr
                             (Array.to_list
                                (Array.map
                                   (fun c -> Json.Num (float_of_int c))
                                   h.counts)) );
                       ]))
             series
         in
         Json.Obj
           [
             ("name", Json.Str f.name);
             ("kind", Json.Str f.kind);
             ("help", Json.Str f.help);
             ("samples", Json.Arr samples);
           ])
       (in_order t))
