(* The spannerd wire subsystem, without sockets: the codec
   round-trips every frame shape exactly, the per-connection actor
   reassembles frames fed one byte at a time, seeded garbage never
   crashes it (and every line it answers is itself a well-formed
   reply), and two fresh service+connection pairs fed the same bytes
   — including a SUBSCRIBE'd session streaming engine events —
   produce byte-identical output, which is the determinism contract
   the daemon's transcript guarantee rests on. *)

open Grapho
module Net = Spannernet
module Wire = Net.Wire
module Conn = Net.Daemon.Conn
module Trace = Distsim.Trace

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Codec round-trips *)

let sample_requests : Wire.request list =
  [
    Load { family = "gnp"; n = 10_000; p = 0.0015; seed = 51 };
    Load { family = "cycle"; n = 8; p = 0.0; seed = 1 };
    Load { family = "caveman"; n = 60; p = 0.1; seed = 7 };
    Loadfile "/tmp/some graph.txt";
    Query (0, 9_999);
    Churn [ Ins (0, 4) ];
    Churn [ Del (0, 1); Ins (0, 4); Del (12, 345) ];
    Stats;
    Subscribe;
    Unsubscribe;
    Quit;
    Shutdown;
  ]

let round_stat : Trace.round_stat =
  {
    round = 3;
    messages = 17;
    bits = 544;
    max_bits = 64;
    vertices_stepped = 24;
    vertices_done = 5;
    congest_violations = 0;
    dropped = 2;
    crashed = 1;
    elapsed_ns = 0;
    minor_words = 0;
    physical = 17;
  }

let sample_replies : Wire.reply list =
  [
    Loaded { n = 24; m = 85; spanner = 41; rounds = 24 };
    Path [ 3 ];
    Path [ 0; 1; 5 ];
    Nopath (2, 17);
    Churned
      {
        tick = 1;
        deleted = 1;
        inserted = 1;
        broken = 1;
        dirty = 3;
        spanner = 43;
        valid = true;
      };
    Churned
      {
        tick = 9;
        deleted = 0;
        inserted = 2;
        broken = 0;
        dirty = 0;
        spanner = 100;
        valid = false;
      };
    Stats_reply [ ("loaded", 1.0); ("n", 24.0); ("valid", 0.0) ];
    Stats_reply [];
    Subscribed;
    Unsubscribed;
    Bye;
    Shutting_down;
    Event (Trace.Round_begin 7);
    Event (Trace.Round_end round_stat);
    Event (Trace.Phase { vertex = -1; name = "repair"; round = 2 });
    Event (Trace.Counter { name = "dirty"; value = 3.0; round = 0 });
    Event (Trace.Fault_injected { round = 3; kind = Trace.Crash 7 });
    Event (Trace.Fault_injected { round = 1; kind = Trace.Cut (2, 9) });
    Err "unknown request \"GARBAGE\"";
    Err "vertex out of range (n=24)";
  ]

let test_request_roundtrip () =
  List.iter
    (fun r ->
      let line = Wire.print_request r in
      check ("one line: " ^ line) true (not (String.contains line '\n'));
      match Wire.parse_request line with
      | Ok r' -> check ("roundtrip " ^ line) true (r = r')
      | Error e -> Alcotest.failf "parse_request %S: %s" line e)
    sample_requests

let test_reply_roundtrip () =
  List.iter
    (fun r ->
      let line = Wire.print_reply r in
      check ("one line: " ^ line) true (not (String.contains line '\n'));
      match Wire.parse_reply line with
      | Ok r' -> check ("roundtrip " ^ line) true (r = r')
      | Error e -> Alcotest.failf "parse_reply %S: %s" line e)
    sample_replies

let test_parse_rejects () =
  (* Malformed frames answer Error, never raise — and the reasons are
     single-line so they can be echoed inside an ERR frame. *)
  List.iter
    (fun s ->
      match Wire.parse_request s with
      | Ok _ -> Alcotest.failf "parse_request %S unexpectedly succeeded" s
      | Error e ->
          check ("reason is one line for " ^ s) true
            (not (String.contains e '\n')))
    [
      "";
      "GARBAGE";
      "load cycle 8 0 1" (* verbs are case-sensitive *);
      "LOAD cycle 8 0" (* missing seed *);
      "LOAD cycle eight 0 1";
      "QUERY 1" (* arity *);
      "QUERY 1 2 3";
      "QUERY a b";
      "CHURN" (* empty delta *);
      "CHURN 0-1" (* missing sign *);
      "CHURN +0" (* missing dash *);
      "STATS now" (* trailing junk after a bare verb *);
      "QUIT please";
    ];
  List.iter
    (fun s ->
      match Wire.parse_reply s with
      | Ok _ -> Alcotest.failf "parse_reply %S unexpectedly succeeded" s
      | Error _ -> ())
    [
      "";
      "PATH";
      "PATH 2 0 1" (* hop count disagrees with vertex count *);
      "NOPATH 1";
      "OK";
      "OK LOADED n=1 m=2" (* missing keys *);
      "STATS not-json";
      "EVENT {\"type\":\"nonsense\"}";
    ]

(* ------------------------------------------------------------------ *)
(* Conn actor: reassembly, fuzz, determinism *)

(* A scripted session exercising every service verb plus an error and
   connection-scoped toggles. cycle 8 keeps it fast and makes CHURN
   easy to aim at a real edge. *)
let script =
  String.concat "\r\n"
    [
      "LOAD cycle 8 0.0 1";
      "QUERY 0 3";
      "QUERY 5 5";
      "CHURN -0-1 +0-4";
      "QUERY 0 1";
      "STATS";
      "GARBAGE in, ERR out";
      "SUBSCRIBE";
      "UNSUBSCRIBE";
      "STATS";
      "QUIT";
      "";
    ]

(* Run [script] through a fresh service+conn, feeding [chunk] bytes
   at a time; returns the out-buffer bytes and the final verdict. *)
let run_session ~chunk ?(subscribe_hook = false) text =
  let service = Net.Service.create () in
  let conn = Conn.create () in
  if subscribe_hook then
    (* What the daemon's event loop does for subscribed connections. *)
    Net.Service.set_on_event service (Some (Conn.push_event conn));
  let verdict = ref Conn.Continue in
  let i = ref 0 in
  let len = String.length text in
  while !i < len do
    let k = min chunk (len - !i) in
    verdict := Conn.feed conn service (String.sub text !i k);
    i := !i + k
  done;
  (Net.Netbuf.contents (Conn.output conn), !verdict)

let test_partial_frame_reassembly () =
  let whole, v1 = run_session ~chunk:max_int script in
  let bytes, v2 = run_session ~chunk:1 script in
  let sevens, v3 = run_session ~chunk:7 script in
  check_string "byte-at-a-time = whole-feed" whole bytes;
  check_string "7-byte chunks = whole-feed" whole sevens;
  check "QUIT closes (whole)" true (v1 = Conn.Close);
  check "QUIT closes (bytes)" true (v2 = Conn.Close);
  check "QUIT closes (chunks)" true (v3 = Conn.Close);
  (* The transcript is sane: every line is a parseable reply, the ERR
     for the garbage line is present, and the session survived it
     (replies keep coming after). *)
  let lines = String.split_on_char '\n' whole in
  let lines = List.filter (fun l -> l <> "") lines in
  List.iter
    (fun l ->
      match Wire.parse_reply l with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "unparseable reply %S: %s" l e)
    lines;
  let is_err l = String.length l >= 4 && String.sub l 0 4 = "ERR " in
  let rec after_err = function
    | [] -> Alcotest.fail "no ERR line in transcript"
    | l :: rest -> if is_err l then rest else after_err rest
  in
  check "connection survives a malformed line" true
    (List.length (after_err lines) >= 3);
  check "transcript ends with OK BYE" true
    (List.nth lines (List.length lines - 1) = "OK BYE")

let test_session_determinism () =
  (* Two fresh service+conn pairs fed the same bytes produce
     byte-identical output — the in-process version of the daemon
     transcript acceptance check. *)
  let a, _ = run_session ~chunk:13 script in
  let b, _ = run_session ~chunk:13 script in
  check_string "fresh sessions agree byte-for-byte" a b;
  check "transcript is non-trivial" true (String.length a > 100)

let test_subscribe_streams_events () =
  let sub_script =
    "SUBSCRIBE\nLOAD cycle 8 0.0 1\nCHURN -0-1 +0-4\nUNSUBSCRIBE\n"
  in
  let a, _ = run_session ~chunk:max_int ~subscribe_hook:true sub_script in
  let b, _ = run_session ~chunk:3 ~subscribe_hook:true sub_script in
  check_string "event stream is deterministic" a b;
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' a)
  in
  let events, rest =
    List.partition
      (fun l -> String.length l >= 6 && String.sub l 0 6 = "EVENT ")
      lines
  in
  check "bootstrap + repair emitted events" true (List.length events > 0);
  check "plus the four direct replies" true (List.length rest = 4);
  List.iter
    (fun l ->
      match Wire.parse_reply l with
      | Ok (Wire.Event ev) -> (
          (* The daemon scrubs the nondeterministic Round_end fields
             before they reach the wire. *)
          match ev with
          | Trace.Round_end st ->
              check_int "elapsed_ns scrubbed" 0 st.elapsed_ns;
              check_int "minor_words scrubbed" 0 st.minor_words
          | _ -> ())
      | Ok _ -> Alcotest.failf "EVENT line parsed as non-event: %s" l
      | Error e -> Alcotest.failf "unparseable EVENT %S: %s" l e)
    events

let test_garbage_fuzz () =
  (* Random bytes (newlines included, so frames do form) never raise,
     and whatever the actor answers is itself well-formed protocol. *)
  let rng = Rng.create 0xFEED in
  for _trial = 1 to 60 do
    let service = Net.Service.create () in
    let conn = Conn.create ~max_line:512 () in
    let len = 1 + Rng.int rng 400 in
    let garbage =
      String.init len (fun _ ->
          match Rng.int rng 8 with
          | 0 -> '\n'
          | 1 -> ' '
          | _ -> Char.chr (Rng.int rng 256))
    in
    let stopped = ref false in
    String.iter
      (fun ch ->
        if not !stopped then
          match Conn.feed conn service (String.make 1 ch) with
          | Conn.Continue -> ()
          | Conn.Close | Conn.Shutdown -> stopped := true)
      garbage;
    String.split_on_char '\n' (Net.Netbuf.contents (Conn.output conn))
    |> List.iter (fun l ->
           if l <> "" then
             match Wire.parse_reply l with
             | Ok _ -> ()
             | Error e -> Alcotest.failf "fuzz reply %S unparseable: %s" l e)
  done

let test_overlong_line_closes () =
  let service = Net.Service.create () in
  let conn = Conn.create ~max_line:64 () in
  (* 200 bytes, no newline: the frame boundary is lost for good, so
     the actor must answer ERR and close rather than buffer forever. *)
  let v = Conn.feed conn service (String.make 200 'x') in
  check "overlong unterminated line closes" true (v = Conn.Close);
  let out = Net.Netbuf.contents (Conn.output conn) in
  check "answers an ERR frame" true
    (String.length out >= 4 && String.sub out 0 4 = "ERR ")

(* ------------------------------------------------------------------ *)
(* Service semantics through the actor *)

let feed_all conn service text = ignore (Conn.feed conn service text)

let replies_of conn =
  let out = Net.Netbuf.contents (Conn.output conn) in
  Net.Netbuf.clear (Conn.output conn);
  String.split_on_char '\n' out
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match Wire.parse_reply l with
         | Ok r -> r
         | Error e -> Alcotest.failf "reply %S unparseable: %s" l e)

let test_service_semantics () =
  let service = Net.Service.create () in
  let conn = Conn.create () in
  (* Before a LOAD, graph-facing requests answer ERR and count as
     service errors in STATS. *)
  feed_all conn service "QUERY 0 1\nCHURN +1-2\n";
  (match replies_of conn with
  | [ Wire.Err _; Wire.Err _ ] -> ()
  | _ -> Alcotest.fail "pre-load QUERY/CHURN should both ERR");
  (* A NaN edge probability fails every ordered comparison, so the
     range checks must accept only values proven inside the range. *)
  feed_all conn service "LOAD gnp 10 nan 1\nLOAD caveman 12 nan 1\n";
  (match replies_of conn with
  | [ Wire.Err _; Wire.Err _ ] -> ()
  | _ -> Alcotest.fail "LOAD with p = nan should ERR for gnp and caveman");
  feed_all conn service "LOAD cycle 8 0.0 1\n";
  (match replies_of conn with
  | [ Wire.Loaded { n = 8; m = 8; spanner; rounds = _ } ] ->
      (* A cycle is its own (only) 2-spanner. *)
      check_int "cycle spanner keeps every edge" 8 spanner
  | _ -> Alcotest.fail "LOAD cycle 8 reply shape");
  (* Query path: endpoints right, hops bounded by the spanner BFS. *)
  feed_all conn service "QUERY 0 3\n";
  (match replies_of conn with
  | [ Wire.Path (v0 :: _ :: _ as p) ] ->
      check_int "path starts at u" 0 v0;
      check_int "path ends at v" 3 (List.nth p (List.length p - 1))
  | _ -> Alcotest.fail "QUERY 0 3 should find a path");
  (* Out-of-range vertex: ERR, connection survives. *)
  feed_all conn service "QUERY 0 99\nSTATS\n";
  (match replies_of conn with
  | [ Wire.Err _; Wire.Stats_reply fields ] ->
      check "stats reports loaded" true
        (List.assoc "loaded" fields = 1.0);
      check "stats counted the errors" true
        (List.assoc "errors" fields >= 3.0);
      check "stats counted the path" true (List.assoc "paths" fields = 1.0)
  | _ -> Alcotest.fail "out-of-range QUERY then STATS");
  (* A churn tick through the incremental engine: certificate breaks,
     repair runs, and the daemon's answer matches a direct
     Incremental run on the same graph. *)
  feed_all conn service "CHURN -0-1 +0-4\n";
  (match replies_of conn with
  | [ Wire.Churned { tick = 1; deleted = 1; inserted = 1; valid; _ } ] ->
      check "repair left a valid spanner" true valid
  | _ -> Alcotest.fail "CHURN reply shape");
  (* The deleted edge is gone: 0-1 now resolves through the repaired
     spanner (or not at all), and the service still answers. *)
  feed_all conn service "QUERY 0 1\n";
  (match replies_of conn with
  | [ Wire.Path _ ] | [ Wire.Nopath (0, 1) ] -> ()
  | _ -> Alcotest.fail "post-churn QUERY should answer PATH or NOPATH");
  (* Connection-scoped verbs routed to the service are a gentle
     programming-error ERR, not a crash. *)
  (match Net.Service.handle service Wire.Subscribe with
  | Wire.Err _ -> ()
  | _ -> Alcotest.fail "Subscribe at the service should ERR")

let test_stats_roundtrip_through_wire () =
  (* The full 15-field STATS payload survives print/parse with order
     and values intact. *)
  let service = Net.Service.create () in
  ignore
    (Net.Service.handle service
       (Wire.Load { family = "caveman"; n = 24; p = 0.1; seed = 7 }));
  let fields = Net.Service.stats service in
  check_int "fixed field count" 15 (List.length fields);
  let line = Wire.print_reply (Wire.Stats_reply fields) in
  match Wire.parse_reply line with
  | Ok (Wire.Stats_reply fields') ->
      check "stats fields round-trip in order" true (fields = fields')
  | Ok _ | Error _ -> Alcotest.failf "STATS line did not round-trip: %s" line

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "net"
    [
      ( "wire",
        [
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "reply roundtrip" `Quick test_reply_roundtrip;
          Alcotest.test_case "parse rejects" `Quick test_parse_rejects;
        ] );
      ( "conn",
        [
          Alcotest.test_case "partial-frame reassembly" `Quick
            test_partial_frame_reassembly;
          Alcotest.test_case "session determinism" `Quick
            test_session_determinism;
          Alcotest.test_case "subscribe streams events" `Quick
            test_subscribe_streams_events;
          Alcotest.test_case "garbage fuzz" `Quick test_garbage_fuzz;
          Alcotest.test_case "overlong line closes" `Quick
            test_overlong_line_closes;
        ] );
      ( "service",
        [
          Alcotest.test_case "semantics" `Quick test_service_semantics;
          Alcotest.test_case "stats wire roundtrip" `Quick
            test_stats_roundtrip_through_wire;
        ] );
    ]
