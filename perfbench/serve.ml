(* serve_mixed: a spannerd preloaded with caveman 30000 0.1 <seed>,
   driven over loopback by one single-threaded client holding two
   connections:

   - reader: closed loop, each op a batch of 64 pipelined QUERY lines
     on graph edges that the churn sequence never deletes, so every
     reply must be a PATH of at most 2 hops;
   - writer: open loop, CHURN lines due at a fixed rate, each replacing
     0.1 % of m, timed from the due time to the ack. The churn stream
     cycles through a fixed pass of deltas followed by their inverses
     in reverse order, which returns the graph to its initial edge set,
     so the stream is stationary however long the run is.

   Loads spannernet's per-message path (Wire, Daemon.Conn, Service,
   the query BFS) beside the churn pipeline; bypasses nothing but the
   full bootstrap, which happens before the port file appears. *)

open Bench_util
module G = Grapho
module C = Spanner_core
module N = Spannernet

let n = 30_000
let p_rewire = 0.1
let setups = 3
let batch = 64
let pool_batches = 512
let rate = 4.0 (* CHURN lines per second *)
let forward = 60 (* churns per pass; the cycle is the pass plus its inverse *)
let warmup_s = 2.0
let ratio_after = 8 (* spanner_ratio is read from this CHURN ack *)
let churn_tail = 90.0

(* ---- daemon process ------------------------------------------------- *)

type daemon = { pid : int; port : int }

let spawn ~exe ~tmp ~spec i =
  let pf =
    Filename.concat tmp (Printf.sprintf "spannerd-%d-%d.port" (Unix.getpid ()) i)
  in
  (try Sys.remove pf with Sys_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ O_WRONLY ] 0 in
  let t0 = now () in
  let pid =
    Unix.create_process exe
      [| exe; "--port"; "0"; "--port-file"; pf; "--preload"; spec |]
      Unix.stdin devnull Unix.stderr
  in
  Unix.close devnull;
  let rec wait () =
    match int_of_string (String.trim (read_file pf)) with
    | port -> port
    | exception (Sys_error _ | Failure _) ->
        (match Unix.waitpid [ WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "spannerd exited before listening");
        if now () -. t0 > 120.0 then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          failwith "spannerd did not come up"
        end;
        Unix.sleepf 0.002;
        wait ()
  in
  let port = wait () in
  let setup_s = now () -. t0 in
  Sys.remove pf;
  ({ pid; port }, setup_s)

(* ---- connections ---------------------------------------------------- *)

type conn = { fd : Unix.file_descr; inb : N.Netbuf.t; outb : N.Netbuf.t }

let connect port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd TCP_NODELAY true;
  Unix.set_nonblock fd;
  { fd; inb = N.Netbuf.create ~cap:65536 (); outb = N.Netbuf.create ~cap:4096 () }

let flush c =
  if not (N.Netbuf.is_empty c.outb) then
    match N.Netbuf.write_to_fd c.outb c.fd with
    | `Flushed | `Partial -> ()
    | `Closed -> failwith "spannerd closed the connection"

let fill c =
  match N.Netbuf.read_from_fd c.inb c.fd with
  | `Data _ | `Again -> ()
  | `Eof -> failwith "spannerd closed the connection"

(* One blocking request/reply exchange outside the measured window. *)
let request d req =
  let c = N.Client.connect ~port:d.port () in
  Fun.protect ~finally:(fun () -> N.Client.close c) (fun () -> N.Client.request c req)

let stop d =
  (try ignore (request d N.Wire.Shutdown) with Unix.Unix_error _ -> ());
  (* SHUTDOWN drains within 5 s; SIGKILL only if it never returns *)
  let deadline = now () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ WNOHANG ] d.pid with
    | 0, _ when now () < deadline -> Unix.sleepf 0.01; reap ()
    | 0, _ -> Unix.kill d.pid Sys.sigkill; ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  reap ()

(* ---- inputs --------------------------------------------------------- *)

type inputs = {
  g0 : G.Ugraph.t;
  gen_s : float;
  cycle : string array;  (* CHURN lines, forward pass then inverses *)
  cycle_ops : N.Wire.churn_op list array;
  pool : (string * int array * int array) array;  (* batch text, us, vs *)
}

let make_inputs seed =
  let g0, gen_s =
    time (fun () -> G.Generators.caveman_n (G.Rng.create seed) n p_rewire)
  in
  let replace = G.Ugraph.m g0 / 1000 in
  let rng = G.Rng.create (seed lxor 0xC4A7) in
  let deleted = Hashtbl.create 4096 in
  let cur = ref g0 in
  let fwd =
    List.init forward (fun _ ->
        let d = G.Ugraph.Delta.create ~expected:(2 * replace) () in
        C.Incremental.churn ~rng ~replace !cur d;
        let ops = ref [] in
        G.Ugraph.Delta.iter_deletes
          (fun u v ->
            Hashtbl.replace deleted (u, v) ();
            ops := N.Wire.Del (u, v) :: !ops)
          d;
        G.Ugraph.Delta.iter_inserts (fun u v -> ops := N.Wire.Ins (u, v) :: !ops) d;
        cur := G.Ugraph.apply_delta !cur d;
        List.rev !ops)
  in
  let inverse ops =
    List.map (function N.Wire.Del (u, v) -> N.Wire.Ins (u, v) | Ins (u, v) -> Del (u, v)) ops
  in
  let cycle_ops = Array.of_list (fwd @ List.rev_map inverse fwd) in
  let cycle =
    Array.map (fun ops -> N.Wire.print_request (N.Wire.Churn ops) ^ "\n") cycle_ops
  in
  (* Read pairs: uniform edge slots of g0 (both orientations), skipping
     edges the churn pass deletes. *)
  let m = G.Ugraph.m g0 in
  let qrng = G.Rng.create (seed lxor 0x0EAD) in
  let rec pick () =
    let u, v = G.Ugraph.slot_endpoints g0 (G.Rng.int qrng (2 * m)) in
    if Hashtbl.mem deleted (min u v, max u v) then pick () else (u, v)
  in
  let pool =
    Array.init pool_batches (fun _ ->
        let us = Array.make batch 0 and vs = Array.make batch 0 in
        let b = Buffer.create (batch * 20) in
        for i = 0 to batch - 1 do
          let u, v = pick () in
          us.(i) <- u;
          vs.(i) <- v;
          Printf.bprintf b "QUERY %d %d\n" u v
        done;
        (Buffer.contents b, us, vs))
  in
  { g0; gen_s; cycle; cycle_ops; pool }

let path_ok u v line =
  match N.Wire.parse_reply line with
  | Ok (N.Wire.Path (x :: _ as p)) ->
      x = u && List.nth p (List.length p - 1) = v && List.length p <= 3
  | _ -> false

(* ---- the mixed closed/open loop ------------------------------------- *)

type window = {
  t0 : float;  (* start edge *)
  reads : Samples.t;  (* batch RTT, ms *)
  per_s : int array;  (* reads sent in each whole second of the window *)
  churns : Samples.t;  (* due -> ack, ms *)
  mutable overlapping : int;  (* reads with a CHURN outstanding *)
  mutable late_ms : float;  (* worst generator lateness *)
}

(* Clock and process counters at a window edge. *)
type snap = { t : float; cpu : float; ctx : int; self : float }

let snap d =
  { t = now (); cpu = cpu_seconds d.pid; ctx = ctx_switches d.pid;
    self = self_cpu_seconds () }

(* Runs the traffic for warmup_s and then each window's duration in
   turn; samples are attributed to the window their op started in
   (reads) or was due in (churns), warm-up ones are dropped. With
   [sub], a third connection SUBSCRIBEs when the second window opens,
   so the daemon streams its engine trace through that window; the
   events are read and discarded. Returns the windows, a snap at each
   window edge, and the spanner size acknowledged by the
   [ratio_after]-th CHURN. *)
let drive r d inp ~reader ~writer ?sub ~durations () =
  let start = now () in
  let edges =
    Array.of_list
      (List.rev
         (List.fold_left
            (fun acc s -> (List.hd acc +. s) :: acc)
            [ start +. warmup_s ] durations))
  in
  let windows =
    Array.of_list
      (List.mapi
         (fun i secs ->
           { t0 = edges.(i); reads = Samples.create ();
             per_s = Array.make (int_of_float secs) 0; churns = Samples.create ();
             overlapping = 0; late_ms = 0.0 })
         durations)
  in
  let t_end = edges.(Array.length edges - 1) in
  let window_of t =
    let k = ref (-1) in
    Array.iteri (fun i e -> if t >= e then k := i) edges;
    if !k >= 0 && !k < Array.length windows then Some windows.(!k) else None
  in
  let snaps = ref [] in
  let rec cross t =
    let k = List.length !snaps in
    if k < Array.length edges && t >= edges.(k) then begin
      snaps := snap d :: !snaps;
      (match sub with
      | Some s when k = 1 -> N.Netbuf.add_string s.outb "SUBSCRIBE\n"; flush s
      | _ -> ());
      cross t
    end
  in
  let conns = reader :: writer :: Option.to_list sub in
  let due k = start +. (float_of_int k /. rate) in
  let next_churn = ref 0 in
  let outstanding = Queue.create () in
  let ratio_spanner = ref (-1) in
  let in_flight = ref false and sent_at = ref 0.0 and got = ref 0 in
  let overlap = ref false and bi = ref 0 and replies = Array.make batch "" in
  let hard_deadline = t_end +. 60.0 in
  let finish_batch t =
    in_flight := false;
    let _, us, vs = inp.pool.(!bi) in
    let ok = ref true in
    Array.iteri (fun i l -> if not (path_ok us.(i) vs.(i) l) then ok := false) replies;
    op r !ok;
    (match window_of !sent_at with
    | Some w ->
        Samples.add w.reads (1000.0 *. (t -. !sent_at));
        let k = int_of_float (!sent_at -. w.t0) in
        if k < Array.length w.per_s then w.per_s.(k) <- w.per_s.(k) + 1;
        if !overlap then w.overlapping <- w.overlapping + 1
    | None -> ());
    bi := (!bi + 1) mod pool_batches
  in
  let ack t line =
    let k, due_t = Queue.pop outstanding in
    (match N.Wire.parse_reply line with
    | Ok (N.Wire.Churned { valid = true; spanner; _ }) ->
        op r true;
        if k = ratio_after - 1 then ratio_spanner := spanner
    | _ -> op r false);
    match window_of due_t with
    | Some w -> Samples.add w.churns (1000.0 *. (t -. due_t))
    | None -> ()
  in
  while now () < t_end || !in_flight || not (Queue.is_empty outstanding) do
    let t = now () in
    if t > hard_deadline then failwith "serve_mixed: replies stopped arriving";
    cross t;
    while due !next_churn <= t && due !next_churn < t_end do
      let k = !next_churn in
      N.Netbuf.add_string writer.outb inp.cycle.(k mod Array.length inp.cycle);
      flush writer;
      (match window_of (due k) with
      | Some w -> w.late_ms <- Float.max w.late_ms (1000.0 *. (now () -. due k))
      | None -> ());
      Queue.add (k, due k) outstanding;
      if !in_flight then overlap := true;
      incr next_churn
    done;
    if (not !in_flight) && t < t_end then begin
      let text, _, _ = inp.pool.(!bi) in
      sent_at := now ();
      N.Netbuf.add_string reader.outb text;
      flush reader;
      in_flight := true;
      got := 0;
      overlap := not (Queue.is_empty outstanding)
    end;
    let timeout =
      if due !next_churn < t_end then Float.max 0.0 (due !next_churn -. now ())
      else 0.05
    in
    let wr =
      List.filter_map
        (fun c -> if N.Netbuf.is_empty c.outb then None else Some c.fd)
        conns
    in
    let rd, ww, _ =
      try Unix.select (List.map (fun c -> c.fd) conns) wr [] timeout
      with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
    in
    List.iter (fun c -> if List.mem c.fd ww then flush c) conns;
    Option.iter
      (fun s -> if List.mem s.fd rd then begin fill s; N.Netbuf.clear s.inb end)
      sub;
    if List.mem reader.fd rd then begin
      fill reader;
      let rec drain () =
        match N.Netbuf.take_line reader.inb with
        | Some l ->
            if !in_flight && !got < batch then begin
              replies.(!got) <- l;
              incr got;
              if !got = batch then finish_batch (now ())
            end
            else op r false;
            drain ()
        | None -> ()
      in
      drain ()
    end;
    if List.mem writer.fd rd then begin
      fill writer;
      let rec drain () =
        match N.Netbuf.take_line writer.inb with
        | Some l when not (Queue.is_empty outstanding) -> ack (now ()) l; drain ()
        | Some _ -> op r false; drain ()
        | None -> ()
      in
      drain ()
    end
  done;
  cross (now ());
  (Array.to_list windows, Array.of_list (List.rev !snaps), !ratio_spanner)

(* ---- in-process replica (traced run only) ---------------------------- *)

(* The layers under the daemon's event loop, timed on an in-process
   Service holding the same graph and spanner as the daemon at LOAD. *)
let replica r seed inp =
  let svc = N.Service.create () in
  (match
     N.Service.handle svc (N.Wire.Load { family = "caveman"; n; p = p_rewire; seed })
   with
  | N.Wire.Loaded _ -> ()
  | _ -> fail r "in-process LOAD failed");
  let inc, _ = C.Incremental.bootstrap ~seed ~par:1 inp.g0 in
  let scsr =
    C.Spanner_check.spanner_csr ~n:(G.Ugraph.n inp.g0) (C.Incremental.spanner inc)
  in
  let queries = pool_batches * batch in
  let per_query_us secs = 1e6 *. secs /. float_of_int queries in
  (* Conn.feed: the daemon's whole per-batch path minus the sockets. *)
  let conn = N.Daemon.Conn.create () in
  let feed_pool ?gc samples =
    Array.iter
      (fun (text, _, _) ->
        let _, dt = time_op ?gc (fun () -> N.Daemon.Conn.feed conn svc text) in
        N.Netbuf.clear (N.Daemon.Conn.output conn);
        Samples.add samples (1e6 *. dt))
      inp.pool
  in
  feed_pool (Samples.create ());
  let feed = Samples.create () and gc = Gc_meter.create () in
  for _ = 1 to 3 do feed_pool ~gc feed done;
  Gc_meter.report gc r;
  metric r "conn.feed_us_per_batch" (Samples.percentile feed 10.0);
  let each f =
    Array.iter (fun (_, us, vs) -> Array.iteri (fun i u -> f u vs.(i)) us) inp.pool
  in
  let replies = ref [] in
  let (), t_svc =
    time (fun () ->
        each (fun u v -> replies := N.Service.handle svc (N.Wire.Query (u, v)) :: !replies))
  in
  metric r "service.query_us" (per_query_us t_svc);
  let q = C.Spanner_check.query_create ~n:(G.Ugraph.n scsr) () in
  let (), t_bfs =
    time (fun () -> each (fun u v -> ignore (C.Spanner_check.query_path q scsr ~u ~v)))
  in
  metric r "spanner_check.query_path_us" (per_query_us t_bfs);
  let lines =
    List.concat_map
      (fun (text, _, _) -> List.filter (( <> ) "") (String.split_on_char '\n' text))
      (Array.to_list inp.pool)
  in
  let (), t_parse =
    time (fun () -> List.iter (fun l -> ignore (N.Wire.parse_request l)) lines)
  in
  metric r "wire.parse_request_us" (per_query_us t_parse);
  let out_bytes = ref 0 in
  let (), t_print =
    time (fun () ->
        List.iter
          (fun rep -> out_bytes := !out_bytes + String.length (N.Wire.print_reply rep) + 1)
          !replies)
  in
  metric r "wire.print_reply_us" (per_query_us t_print);
  let in_bytes =
    Array.fold_left (fun acc (text, _, _) -> acc + String.length text) 0 inp.pool
  in
  metric r "wire.bytes_in_per_query" (float_of_int in_bytes /. float_of_int queries);
  metric r "wire.bytes_out_per_query" (float_of_int !out_bytes /. float_of_int queries);
  (* The churn path over the forward pass: Service.handle end to end,
     and the same tick on a twin Incremental with its stages probed
     plus the daemon's post-apply spanner CSR rebuild. *)
  let probe = Tick_probe.create inp.g0 in
  let svc_ms = Samples.create () and rebuild_ms = Samples.create () in
  for k = 0 to forward - 1 do
    let ops = inp.cycle_ops.(k) in
    let rep, dt = time (fun () -> N.Service.handle svc (N.Wire.Churn ops)) in
    Samples.add svc_ms (1000.0 *. dt);
    let d = G.Ugraph.Delta.create () in
    List.iter
      (function
        | N.Wire.Ins (u, v) -> G.Ugraph.Delta.add_insert d u v
        | Del (u, v) -> G.Ugraph.Delta.add_delete d u v)
      ops;
    let st, ok, _ = Tick_probe.tick probe ~count:true inc d in
    let _, t_csr =
      time (fun () ->
          C.Spanner_check.spanner_csr
            ~n:(G.Ugraph.n (C.Incremental.graph inc))
            (C.Incremental.spanner inc))
    in
    Samples.add rebuild_ms (1000.0 *. t_csr);
    match rep with
    | N.Wire.Churned c when c.valid && ok && c.spanner = st.spanner_size -> ()
    | _ -> fail r "in-process churn replica diverged"
  done;
  metric r "service.churn_ms" (Samples.mean svc_ms);
  metric r "service.spanner_csr_ms" (Samples.mean rebuild_ms);
  Tick_probe.report probe r;
  Samples.percentile feed 10.0

(* ---- the workload ---------------------------------------------------- *)

(* QUERY replies per second: the 75th percentile of the window's
   per-second rates. A second is fast or slow as the host's vCPU is, so
   like latency the rate has two modes, and a whole-window rate moves
   with the share of slow seconds; the 75th percentile reads the fast
   mode as long as a quarter of the seconds are fast. *)
let throughput w =
  let rates = Samples.create () in
  Array.iter (fun k -> Samples.add rates (float_of_int (k * batch))) w.per_s;
  Samples.percentile rates 75.0

let stats_fields d =
  match request d N.Wire.Stats with
  | Ok (N.Wire.Stats_reply f) -> f
  | _ -> failwith "bad STATS reply"

let run ~seed ~seconds ~trace ~tail ~spannerd ~tmp =
  let r = result () in
  let spec = Printf.sprintf "caveman %d %g %d" n p_rewire seed in
  let live = ref None in
  let kill_live () =
    match !live with
    | Some d ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
        live := None
    | None -> ()
  in
  Fun.protect ~finally:kill_live (fun () ->
      (* Setup = spawn until the port file appears (LOAD and bootstrap
         done); repeated on fresh daemons, the last one is measured. *)
      let spawns = if trace then 1 else setups in
      let setup_times =
        List.init spawns (fun i ->
            let d, s = spawn ~exe:spannerd ~tmp ~spec i in
            live := Some d;
            if i < spawns - 1 then begin
              stop d;
              live := None
            end;
            s)
      in
      let d = Option.get !live in
      let inp = make_inputs seed in
      Gc.compact ();
      let reader = connect d.port and writer = connect d.port in
      let sub = if trace then Some (connect d.port) else None in
      let durations = if trace then [ seconds /. 2.0; seconds /. 2.0 ] else [ seconds ] in
      let windows, snaps, ratio_spanner =
        drive r d inp ~reader ~writer ?sub ~durations ()
      in
      (* the untraced (first) window's edges *)
      let w0 = snaps.(0) and w1 = snaps.(1) in
      let secs = w1.t -. w0.t in
      let stats = stats_fields d in
      let stat k = Option.value ~default:(-1.0) (List.assoc_opt k stats) in
      let rss = peak_rss_mb ~pid:d.pid () in
      List.iter (fun c -> Unix.close c.fd) (reader :: writer :: Option.to_list sub);
      stop d;
      live := None;
      if stat "errors" <> 0.0 then fail r "daemon counted protocol errors";
      if stat "valid" <> 1.0 then fail r "daemon's spanner is not valid";
      let m = float_of_int (G.Ugraph.m inp.g0) in
      let ratio = float_of_int ratio_spanner /. m in
      if ratio_spanner < 0 then fail r "no CHURN ack to read spanner_ratio from";
      ratio_guard r ratio;
      match windows with
      | [ w ] ->
          metric r "setup_s" (median setup_times);
          latency_metrics r ~tail ~prefix:"latency_ms" w.reads;
          latency_metrics r ~tail:churn_tail ~prefix:"churn_ms" w.churns;
          metric r "throughput_ops_s" (throughput w);
          metric r "peak_rss_mb" rss;
          metric r "spanner_ratio" ratio;
          ok_ratio r
      | [ w; traced ] ->
          let batches = float_of_int (max 1 (Samples.count w.reads)) in
          metric r "generators.gen_ms" (1000.0 *. inp.gen_s);
          metric r "daemon.cpu_util" ((w1.cpu -. w0.cpu) /. secs);
          metric r "daemon.ctx_switches_per_batch"
            (float_of_int (w1.ctx - w0.ctx) /. batches);
          metric r "loadgen.cpu_util" ((w1.self -. w0.self) /. secs);
          metric r "loadgen.late_ms" w.late_ms;
          metric r "client.reads_overlapping_churn_share"
            (float_of_int w.overlapping /. batches);
          List.iter
            (fun k -> metric r ("stats." ^ k) (stat k))
            [ "queries"; "paths"; "nopaths"; "churn_ticks"; "churn_broken";
              "repair_rounds"; "errors" ];
          let rtt_us = 1000.0 *. Samples.percentile w.reads 10.0 in
          let feed_us = replica r seed inp in
          metric r "daemon.loop_residual_us" (rtt_us -. feed_us);
          trace_overhead r ~plain:w.reads ~traced:traced.reads
      | _ -> assert false);
  r
