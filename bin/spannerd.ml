(* spanner-as-a-service: keep a graph and its maintained 2-spanner
   resident, serve stretch-bounded path queries, edge churn, stats and
   trace subscriptions over a line protocol.

     spannerd --port 7421
     spannerd --port 0 --port-file /tmp/spannerd.port \
              --preload "gnp 10000 0.0015 51"

   Drive it with a scripted session, or measure it with perfbench:

     spanner_cli session --port 7421 session.txt
     python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 20

   See EXPERIMENTS.md "Serving (E21)" for the protocol. *)

open Cmdliner

let serve host port port_file idle_timeout preload =
  let service = Spannernet.Service.create () in
  (match preload with
  | None -> ()
  | Some spec -> (
      match Spannernet.Wire.parse_request ("LOAD " ^ spec) with
      | Error e ->
          Printf.eprintf "spannerd: bad --preload: %s\n%!" e;
          exit 2
      | Ok req -> (
          match Spannernet.Service.handle service req with
          | Spannernet.Wire.Err e ->
              Printf.eprintf "spannerd: --preload failed: %s\n%!" e;
              exit 2
          | reply ->
              Printf.printf "preloaded: %s\n%!"
                (Spannernet.Wire.print_reply reply))));
  Spannernet.Daemon.serve ~host ~port ?port_file ?idle_timeout service;
  0

let host_arg =
  Arg.(value & opt string "127.0.0.1"
       & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind.")

let port_arg =
  Arg.(value & opt int 7421
       & info [ "port" ] ~docv:"PORT"
           ~doc:"TCP port; 0 picks an ephemeral port (see --port-file).")

let port_file_arg =
  Arg.(value & opt (some string) None
       & info [ "port-file" ] ~docv:"PATH"
           ~doc:"Write the bound port here (atomically) once listening — \
                 how scripts discover an ephemeral port.")

let idle_arg =
  Arg.(value & opt (some float) None
       & info [ "idle-timeout" ] ~docv:"SECS"
           ~doc:"Close connections with no inbound traffic for this long \
                 (subscribed connections are exempt). Default: never.")

let preload_arg =
  Arg.(value & opt (some string) None
       & info [ "preload" ] ~docv:"SPEC"
           ~doc:"Load a generated graph before accepting connections, e.g. \
                 'gnp 10000 0.0015 51' — the arguments of a LOAD request.")

let cmd =
  Cmd.v
    (Cmd.info "spannerd" ~version:"%%VERSION%%"
       ~doc:"Serve 2-spanner path queries, churn and stats over TCP"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Single-process, single-thread event loop (select readiness, \
              non-blocking sockets) over a line protocol: LOAD, LOADFILE, \
              QUERY, CHURN, STATS, SUBSCRIBE, UNSUBSCRIBE, QUIT, SHUTDOWN. \
              Request handling is deterministic: two daemons fed the same \
              script produce byte-identical reply transcripts. SIGINT \
              drains pending replies and exits 0.";
         ])
    Term.(const serve $ host_arg $ port_arg $ port_file_arg $ idle_arg
          $ preload_arg)

let () = exit (Cmd.eval' cmd)
