(* A single-threaded acqpd client: spawns the daemon, keeps up to two
   Unix-socket connections, and decodes frames with the daemon's own
   Protocol.Reader. Replies match requests in FIFO order per
   connection; EVENT frames go to a handler. OVERLOAD frames are
   dropped here: shed events are read from METRICS instead. *)

module Pr = Acq_serve.Protocol

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* The daemon process *)

type daemon = { pid : int; socket : string; spawned : float }

let live_daemons : int list ref = ref []

let rec waitpid_noeintr flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr flags pid

let stop d =
  if List.mem d.pid !live_daemons then begin
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = now () +. 10.0 in
    let rec wait () =
      match waitpid_noeintr [ Unix.WNOHANG ] d.pid with
      | 0, _ when now () < deadline ->
          Unix.sleepf 0.01;
          wait ()
      | 0, _ ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (waitpid_noeintr [] d.pid)
      | _ -> ()
    in
    wait ();
    live_daemons := List.filter (( <> ) d.pid) !live_daemons;
    try Unix.unlink d.socket with Unix.Unix_error _ -> ()
  end

let () =
  at_exit (fun () ->
      List.iter
        (fun pid -> stop { pid; socket = ""; spawned = 0.0 })
        !live_daemons)

let spawn ~exe (spec : Acq_serve.Source.spec) ~socket =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let args =
    [|
      exe; "serve"; "--dataset"; Acq_serve.Source.kind_to_string spec.kind;
      "--rows"; string_of_int spec.rows; "--seed"; string_of_int spec.seed;
      "--socket"; socket; "--tick-domains"; "1";
    |]
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let spawned = now () in
  let pid = Unix.create_process exe args null null Unix.stderr in
  Unix.close null;
  live_daemons := pid :: !live_daemons;
  { pid; socket; spawned }

(* Peak resident set of the daemon, in MiB. *)
let peak_rss_mb d =
  let ic = open_in (Printf.sprintf "/proc/%d/status" d.pid) in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> failwith "no VmHWM line"
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* ------------------------------------------------------------------ *)
(* Connections *)

type pending = {
  due : float;  (** when the request was due; open-loop latency base *)
  sent : float;
  k : Pr.frame -> sent:float -> due:float -> at:float -> unit;
      (** called with the reply frame and its arrival time *)
}

type conn = {
  fd : Unix.file_descr;
  reader : Pr.Reader.t;
  pending : pending Queue.t;
}

type t = {
  conns : conn array;
  mutable on_event : int -> string -> unit;  (** subscription id, payload *)
  buf : Bytes.t;
}

let connect d ~conns ~timeout =
  let deadline = now () +. timeout in
  let rec one () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.socket) with
    | () -> { fd; reader = Pr.Reader.create (); pending = Queue.create () }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        (match waitpid_noeintr [ Unix.WNOHANG ] d.pid with
        | 0, _ -> ()
        | _ ->
            live_daemons := List.filter (( <> ) d.pid) !live_daemons;
            failwith "acqpd exited during start-up");
        if now () > deadline then failwith "acqpd did not start listening";
        Unix.sleepf 0.0002;
        one ()
  in
  {
    conns = Array.init conns (fun _ -> one ());
    on_event = (fun _ _ -> ());
    buf = Bytes.create 65536;
  }

let close t = Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns

let rec write_all fd s off =
  if off < String.length s then
    let n = Unix.write_substring fd s off (String.length s - off) in
    write_all fd s (off + n)

let send ?due c line k =
  let sent = now () in
  let due = Option.value due ~default:sent in
  Queue.push { due; sent; k } c.pending;
  write_all c.fd (line ^ "\n") 0

let outstanding t = Array.fold_left (fun n c -> n + Queue.length c.pending) 0 t.conns

let dispatch t c frame at =
  match frame with
  | Pr.Event (sub, payload) -> t.on_event sub payload
  | Pr.Overload _ -> ()
  | Pr.Reply _ | Pr.Failure _ | Pr.Bye _ -> (
      match Queue.take_opt c.pending with
      | Some p -> p.k frame ~sent:p.sent ~due:p.due ~at
      | None -> failwith "acqpd sent a reply nobody asked for")

let drain_frames t c at =
  let rec go () =
    match Pr.Reader.next_frame c.reader with
    | `Frame f ->
        dispatch t c f at;
        go ()
    | `More -> ()
    | `Bad msg -> failwith ("bad frame from acqpd: " ^ msg)
  in
  go ()

(* Wait up to [timeout] seconds for input, then decode everything that
   arrived. Every frame is stamped with the time select returned, so
   decoding one connection's burst does not delay another's replies. *)
let poll t ~timeout =
  let fds = Array.to_list (Array.map (fun c -> c.fd) t.conns) in
  match Unix.select fds [] [] (Float.max 0.0 timeout) with
  | readable, _, _ ->
      let at = now () in
      Array.iter
        (fun c ->
          if List.memq c.fd readable then begin
            let n = Unix.read c.fd t.buf 0 (Bytes.length t.buf) in
            if n = 0 then failwith "acqpd closed the connection";
            Pr.Reader.feed c.reader t.buf 0 n;
            drain_frames t c at
          end)
        t.conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Poll until [cond ()] holds or [timeout] seconds pass; returns
   whether it held. *)
let wait_until t ?(timeout = 120.0) cond =
  let deadline = now () +. timeout in
  while (not (cond ())) && now () < deadline do
    poll t ~timeout:(Float.min 0.05 (deadline -. now ()))
  done;
  cond ()

(* Send and wait for the reply: (frame, latency in ms). *)
let call t c line =
  let result = ref None in
  send c line (fun f ~sent ~due:_ ~at ->
      result := Some (f, (at -. sent) *. 1000.0));
  if not (wait_until t (fun () -> !result <> None)) then
    failwith ("no reply to: " ^ line);
  Option.get !result
