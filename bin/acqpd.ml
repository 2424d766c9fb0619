(* acqpd — the multi-tenant continuous-query serving daemon.

   Subcommands:
     serve    run the daemon: Unix and/or TCP listeners, one select
              loop, admission control and backpressure per --limits
              knobs, graceful drain on SIGTERM/SIGINT
     loadgen  drive a running daemon with concurrent mixed traffic
              and report throughput and latency percentiles
*)

open Cmdliner
module Serve = Acq_serve

let kind_conv =
  let parse s =
    match Serve.Source.kind_of_string s with
    | Ok k -> Ok k
    | Error e -> Error (`Msg e)
  in
  let print fmt k = Format.pp_print_string fmt (Serve.Source.kind_to_string k) in
  Arg.conv (parse, print)

let dataset_arg =
  Arg.(
    value
    & opt kind_conv Serve.Source.Lab
    & info [ "dataset"; "d" ] ~docv:"NAME"
        ~doc:"Dataset: lab, garden5, garden11, or synthetic.")

let rows_arg =
  Arg.(
    value & opt int 20_000
    & info [ "rows" ] ~docv:"N" ~doc:"Tuples to generate for the dataset.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed.")

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket path to listen on.")

let tcp_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "tcp" ] ~docv:"PORT"
        ~doc:"TCP port to listen on (127.0.0.1); 0 picks a free port.")

(* serve *)

let serve_cmd =
  let run kind rows seed socket tcp max_conns max_sessions quota replan_budget
      tick_domains =
    if tick_domains <> 1 then begin
      Printf.eprintf "acqpd: --tick-domains must be 1 (ticks are sequential)\n";
      exit 1
    end;
    let limits =
      {
        Serve.Limits.default with
        Serve.Limits.max_connections = max_conns;
        max_sessions_per_tenant = max_sessions;
        plan_quota_per_tenant = quota;
        replan_budget;
      }
    in
    match Serve.Limits.validate limits with
    | Error msg ->
        Printf.eprintf "acqpd: %s\n" msg;
        exit 1
    | Ok limits -> (
        match (socket, tcp) with
        | None, None ->
            Printf.eprintf "acqpd: need --socket PATH and/or --tcp PORT\n";
            exit 1
        | _ ->
            let spec = { Serve.Source.kind; rows; seed } in
            let engine = Serve.Engine.create ~limits spec in
            let listeners = ref [] in
            (match socket with
            | Some path ->
                listeners := Serve.Server.listen_unix path :: !listeners;
                Printf.printf "listening on unix:%s\n%!" path
            | None -> ());
            (match tcp with
            | Some port ->
                let fd = Serve.Server.listen_tcp "127.0.0.1" port in
                let port =
                  match Serve.Server.bound_port fd with
                  | Some p -> p
                  | None -> port
                in
                listeners := fd :: !listeners;
                Printf.printf "listening on tcp:127.0.0.1:%d\n%!" port
            | None -> ());
            Printf.printf "serving %s\n%!" (Serve.Source.spec_to_string spec);
            let server =
              Serve.Server.create ?unix_path:socket ~listeners:!listeners
                engine limits
            in
            let drain = ref false in
            List.iter
              (fun signum ->
                try
                  Sys.set_signal signum
                    (Sys.Signal_handle (fun _ -> drain := true))
                with Invalid_argument _ | Sys_error _ -> ())
              [ Sys.sigterm; Sys.sigint ];
            (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
             with Invalid_argument _ | Sys_error _ -> ());
            Serve.Server.run ~should_drain:(fun () -> !drain) server;
            print_endline "drained, bye")
  in
  let max_conns_arg =
    Arg.(
      value & opt int Serve.Limits.default.Serve.Limits.max_connections
      & info [ "max-connections" ] ~docv:"N"
          ~doc:"Connection cap (select-safe, <= 1000).")
  in
  let max_sessions_arg =
    Arg.(
      value
      & opt int Serve.Limits.default.Serve.Limits.max_sessions_per_tenant
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:"Live subscriptions allowed per tenant.")
  in
  let quota_arg =
    Arg.(
      value & opt int Serve.Limits.default.Serve.Limits.plan_quota_per_tenant
      & info [ "plan-quota" ] ~docv:"NODES"
          ~doc:"Planning-node quota per tenant (429 once spent).")
  in
  let replan_arg =
    Arg.(
      value & opt int Serve.Limits.default.Serve.Limits.replan_budget
      & info [ "replan-budget" ] ~docv:"NODES"
          ~doc:"Shared drift-replanning budget across all tenants.")
  in
  let tick_domains_arg =
    Arg.(
      value & opt int 1
      & info [ "tick-domains" ] ~docv:"K"
          ~doc:
            "Accepted for compatibility; must be 1. The serving tick runs \
             sequentially, and any other value exits 1.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve continuous and one-shot acquisitional queries over Unix/TCP \
          sockets; SIGTERM drains gracefully.")
    Term.(
      const run $ dataset_arg $ rows_arg $ seed_arg $ socket_arg $ tcp_arg
      $ max_conns_arg $ max_sessions_arg $ quota_arg $ replan_arg
      $ tick_domains_arg)

(* loadgen *)

let loadgen_cmd =
  let run socket tcp conns subs pings runs tenants malformed slow events sql
      kind =
    let connect () =
      match (socket, tcp) with
      | Some path, _ ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX path);
          fd
      | None, Some port ->
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.connect fd
            (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
          fd
      | None, None ->
          Printf.eprintf "acqpd: need --socket PATH or --tcp PORT\n";
          exit 1
    in
    let config =
      {
        Serve.Loadgen.connections = conns;
        subscriptions_per_conn = subs;
        pings_per_conn = pings;
        runs_per_conn = runs;
        tenants;
        malformed;
        slow;
        events_target = events;
        sql =
          (match sql with
          | Some s -> s
          | None -> Serve.Source.default_sql kind);
      }
    in
    let gen = Serve.Loadgen.create ~config connect in
    let report = Serve.Loadgen.run gen in
    Serve.Loadgen.close_all gen;
    Format.printf "%a@." Serve.Loadgen.pp_report report;
    (* A run where nothing completed (daemon down, all dropped) is a
       failure for scripting/CI purposes. *)
    if report.Serve.Loadgen.ok = 0 then exit 1
  in
  let conns_arg =
    Arg.(
      value & opt int 16
      & info [ "connections"; "c" ] ~docv:"N" ~doc:"Concurrent connections.")
  in
  let subs_arg =
    Arg.(
      value & opt int 4
      & info [ "subscriptions" ] ~docv:"N" ~doc:"SUBSCRIBEs per connection.")
  in
  let pings_arg =
    Arg.(
      value & opt int 20
      & info [ "pings" ] ~docv:"N" ~doc:"PING round-trips per connection.")
  in
  let runs_arg =
    Arg.(
      value & opt int 0
      & info [ "runs" ] ~docv:"N" ~doc:"One-shot RUNs per connection.")
  in
  let tenants_arg =
    Arg.(
      value & opt int 4
      & info [ "tenants" ] ~docv:"N"
          ~doc:"Spread connections round-robin over this many tenants.")
  in
  let malformed_arg =
    Arg.(
      value & opt int 0
      & info [ "malformed" ] ~docv:"N"
          ~doc:"Connections that send garbage lines before behaving.")
  in
  let slow_arg =
    Arg.(
      value & opt int 0
      & info [ "slow" ] ~docv:"N"
          ~doc:"Slow-consumer connections: subscribe, then never read.")
  in
  let events_arg =
    Arg.(
      value & opt int 0
      & info [ "events" ] ~docv:"N"
          ~doc:"EVENT frames each connection soaks up before QUIT.")
  in
  let sql_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "sql"; "q" ] ~docv:"QUERY"
          ~doc:"Query to subscribe/run; defaults per --dataset.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a running acqpd with concurrent mixed traffic and report \
          throughput and latency percentiles.")
    Term.(
      const run $ socket_arg $ tcp_arg $ conns_arg $ subs_arg $ pings_arg
      $ runs_arg $ tenants_arg $ malformed_arg $ slow_arg $ events_arg
      $ sql_arg $ dataset_arg)

let main_cmd =
  Cmd.group
    (Cmd.info "acqpd" ~version:"1.0.0"
       ~doc:"multi-tenant continuous-query serving daemon for acqp")
    [ serve_cmd; loadgen_cmd ]

let () = exit (Cmd.eval main_cmd)
