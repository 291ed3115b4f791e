(* Shared plumbing for the bench executable: report formatting, the
   graph families and protocol anchors the perf trajectory tracks
   across PRs, wall-clock timing helpers, and the --json/--trace
   writer (schema "spanner-bench/10").

   The experiment functions themselves live in main.ml; everything
   here is the scaffolding they share so that adding an experiment
   does not mean growing a thousand-line file. *)

open Grapho
module C = Spanner_core

let printf = Printf.printf

let section id title =
  printf "\n==================================================================\n";
  printf "%s  %s\n" id title;
  printf "==================================================================\n"

let log2 x = Float.log x /. Float.log 2.0
let flog2 n = log2 (float_of_int (max 2 n))
let rng seed = Rng.create seed

(* Shared graph families for upper-bound experiments. *)
let ratio_families () =
  [
    ("complete_40", Generators.complete 40);
    ("caveman_8x8", Generators.caveman (rng 1) 8 8 0.03);
    ("gnp_dense_100", Generators.gnp_connected (rng 2) 100 0.35);
    ("gnp_sparse_200", Generators.gnp_connected (rng 3) 200 0.05);
    ("pa_200_10", Generators.preferential_attachment (rng 4) 200 10);
    ("bipartite_15_15", Generators.complete_bipartite 15 15);
    ("grid_10x10", Generators.grid 10 10);
  ]

(* ------------------------------------------------------------------ *)
(* Protocol anchors.

   The workloads the perf trajectory tracks across PRs. [`Local] runs
   the LOCAL message-passing protocol, [`Congest] its chunked CONGEST
   compilation. Gated by the experiment family they belong to. *)

let anchors () =
  [
    ("e8_local_caveman", "e8", `Local, Generators.caveman (rng 23) 8 8 0.03);
    ("e13_local_protocol", "e13", `Local, Generators.caveman (rng 19) 4 6 0.05);
    ("e15_congest", "e15", `Congest, Generators.caveman (rng 24) 6 6 0.04);
    ("e15_congest_port", "e15", `Congest, Generators.caveman (rng 21) 4 6 0.05);
  ]

let run_anchor ?(trace = Distsim.Trace.null) ?profile ?frugal ?adversary
    ?retry kind g : C.Two_spanner_local.result =
  match kind with
  | `Local ->
      C.Two_spanner_local.run ~seed:3 ?profile ?frugal ?adversary ?retry
        ~trace g
  | `Congest ->
      C.Two_spanner_local.run_congest ~seed:3 ?profile ?frugal ?adversary
        ?retry ~trace g

(* ------------------------------------------------------------------ *)
(* Wall-clock timing. *)

let best_wall_ms ~reps f =
  f () (* warm-up *);
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Distsim.Clock.now_s () in
    f ();
    let dt = Distsim.Clock.now_s () -. t0 in
    if dt < !best then best := dt
  done;
  1000.0 *. !best

(* Interleaved A/B: alternate the two variants rep by rep so that
   drifting machine load hits both sides equally, and report the best
   wall time of each. *)
let interleaved_ab_ms ~reps f_a f_b =
  f_a ();
  f_b () (* warm-up both *);
  let best_a = ref infinity and best_b = ref infinity in
  for _ = 1 to reps do
    let t0 = Distsim.Clock.now_s () in
    f_a ();
    let t1 = Distsim.Clock.now_s () in
    f_b ();
    let t2 = Distsim.Clock.now_s () in
    if t1 -. t0 < !best_a then best_a := t1 -. t0;
    if t2 -. t1 < !best_b then best_b := t2 -. t1
  done;
  (1000.0 *. !best_a, 1000.0 *. !best_b)

(* ------------------------------------------------------------------ *)
(* Metric and series rows. *)

(* (name, (key, value) list); every value is a JSON number. *)
let metric_row name g (r : C.Two_spanner_local.result) densest_calls =
  ( name,
    [
      ("n", float_of_int (Ugraph.n g));
      ("m", float_of_int (Ugraph.m g));
      ("spanner_edges", float_of_int (Edge.Set.cardinal r.spanner));
      ("iterations", float_of_int r.iterations);
      ("rounds", float_of_int r.metrics.rounds);
      ("steps", float_of_int r.metrics.steps);
      ("messages", float_of_int r.metrics.messages);
      ("total_bits", float_of_int r.metrics.total_bits);
      ("max_message_bits", float_of_int r.metrics.max_message_bits);
      ("densest_calls", float_of_int densest_calls);
    ] )

(* Per-round summary of a traced run for the "round_series" section:
   how hard the busiest round works, and how fast the network
   quiesces (histogram of vertices stepped per round, bucketed by
   powers of two: bucket 0 counts rounds with 0 awake vertices,
   bucket k >= 1 counts rounds with 2^(k-1) <= stepped < 2^k). *)
let series_summary (s : Distsim.Trace.series) =
  let rows = s.Distsim.Trace.rounds in
  let n_rounds = Array.length rows in
  let msgs_total = ref 0
  and msgs_max = ref 0
  and bits_max = ref 0
  and steps = ref 0 in
  let bucket stepped =
    if stepped <= 0 then 0
    else
      let rec go k v = if v = 0 then k else go (k + 1) (v lsr 1) in
      go 0 stepped
  in
  let max_bucket =
    Array.fold_left
      (fun acc (r : Distsim.Trace.round_stat) ->
        max acc (bucket r.vertices_stepped))
      0 rows
  in
  let hist = Array.make (max_bucket + 1) 0 in
  Array.iter
    (fun (r : Distsim.Trace.round_stat) ->
      msgs_total := !msgs_total + r.messages;
      msgs_max := max !msgs_max r.messages;
      bits_max := max !bits_max r.bits;
      steps := !steps + r.vertices_stepped;
      let b = bucket r.vertices_stepped in
      hist.(b) <- hist.(b) + 1)
    rows;
  let mean =
    float_of_int !msgs_total /. float_of_int (max 1 (n_rounds - 1))
  in
  (n_rounds - 1, !steps, !msgs_total, !msgs_max, mean, !bits_max, hist)

(* ------------------------------------------------------------------ *)
(* Fault-sweep rows (new in schema "spanner-bench/5").

   For every fault anchor, run the protocol under a drop-[p] adversary
   for p in {0, 0.01, 0.05, 0.1} (plus one crash schedule for the
   LOCAL anchors) through {!Spanner_core.Resilience.run} and record
   the survivor-quality report: round/message/drop counts, how much of
   the output survived, and whether the surviving output still spans
   (resp. dominates) the surviving subgraph. The p = 0 row doubles as
   the Null-adversary overhead baseline: its rounds/messages must
   match the fault-free anchor exactly. *)

let fault_drop_rates = [ 0.0; 0.01; 0.05; 0.1 ]

(* (name, family, protocol, retry at p > 0, max_rounds, graph). CONGEST
   needs retransmits even at low p (one lost chunk corrupts its
   reassembly stream) and a generous round budget: its rounds are the
   compiled chunk rounds. *)
let fault_anchors () =
  [
    ( "ft_local_caveman_8x8",
      "e17",
      C.Resilience.Spanner_local,
      3,
      2_000,
      Generators.caveman (rng 23) 8 8 0.03 );
    ( "ft_local_gnp_100",
      "e17",
      C.Resilience.Spanner_local,
      3,
      2_000,
      Generators.gnp_connected (rng 2) 100 0.1 );
    ( "ft_mds_caveman_6x6",
      "e17",
      C.Resilience.Mds,
      3,
      2_000,
      Generators.caveman (rng 24) 6 6 0.04 );
    ( "ft_congest_caveman_4x6",
      "e17",
      C.Resilience.Spanner_congest,
      3,
      60_000,
      Generators.caveman (rng 21) 4 6 0.05 );
  ]

let fault_row_of_report name g (r : C.Resilience.report) ~drop_p ~retry =
  ( name,
    [
      ("n", float_of_int (Ugraph.n g));
      ("m", float_of_int (Ugraph.m g));
      ("drop_p", drop_p);
      ("retry", float_of_int retry);
      ("terminated", if r.C.Resilience.terminated then 1.0 else 0.0);
      ("rounds", float_of_int r.C.Resilience.rounds);
      ("messages", float_of_int r.C.Resilience.messages);
      ("dropped", float_of_int r.C.Resilience.dropped);
      ("crashed", float_of_int (List.length r.C.Resilience.crashed));
      ("survivors", float_of_int r.C.Resilience.survivors);
      ("output_size", float_of_int r.C.Resilience.output_size);
      ("surviving_output", float_of_int r.C.Resilience.surviving_output);
      ("valid", if r.C.Resilience.valid then 1.0 else 0.0);
      ("stretch", float_of_int r.C.Resilience.stretch);
    ] )

let fault_rows ~selected =
  let sel id = selected = [] || List.mem id selected in
  List.concat_map
    (fun (name, family, protocol, retry, max_rounds, g) ->
      if not (sel family) then []
      else
        let drop_rows =
          List.map
            (fun p ->
              let schedule =
                { Distsim.Faults.empty with drop_p = p; seed = 42 }
              in
              let retry = if p = 0.0 then 1 else retry in
              let r =
                C.Resilience.run ~seed:3 ~retry ~max_rounds ~protocol
                  ~schedule g
              in
              fault_row_of_report
                (Printf.sprintf "%s@drop%g" name p)
                g r ~drop_p:p ~retry)
            fault_drop_rates
        in
        let crash_rows =
          match protocol with
          | C.Resilience.Spanner_local ->
              let schedule =
                match Distsim.Faults.parse "crash=0.1@r3,seed=42" with
                | Ok s -> s
                | Error e -> failwith e
              in
              let r =
                C.Resilience.run ~seed:3 ~retry:1 ~max_rounds ~protocol
                  ~schedule g
              in
              [
                fault_row_of_report (name ^ "@crash0.1r3") g r ~drop_p:0.0
                  ~retry:1;
              ]
          | _ -> []
        in
        drop_rows @ crash_rows)
    (fault_anchors ())

(* ------------------------------------------------------------------ *)
(* CSR scale anchors (new in schema "spanner-bench/6").

   The large-n re-baseline that the Bigarray CSR core exists for:
   build a graph of up to 10^6 vertices through the streaming
   generators, then time BFS (centralized traversal) and flood-min-id
   (the distributed engine end to end, sequential and with [par]
   domains) on it. Rows record the CSR's exact resident bytes
   (8 * (n + 1 + 2m)) next to the wall times, so memory regressions
   show up in the same diff as time regressions.

   The "e18" family is the small anchor check.sh smokes; "e18big" adds
   the 10^5- and 10^6-vertex instances, which only run in full
   (unselected) BENCH_PR*.json sweeps. Each measurement is a single
   timed run — at these sizes a best-of-k loop would multiply minutes
   of wall clock for noise reduction the ~100x PR-over-PR deltas don't
   need. The rows time no spanner protocol: on these sparse G(n,p) and
   preferential-attachment graphs the 2-spanner keeps (nearly) every
   edge, and perfbench's serve_mixed setup_s times the same bootstrap
   on a triangle-rich caveman graph. *)

let csr_anchors () =
  [
    ( "csr_gnp_10k",
      "e18",
      fun () -> Generators.gnp_connected (rng 51) 10_000 0.0015 );
    ( "csr_gnp_100k",
      "e18big",
      fun () -> Generators.gnp_connected (rng 52) 100_000 0.0002 );
    ( "csr_pa_1e6",
      "e18big",
      fun () -> Generators.preferential_attachment (rng 53) 1_000_000 3 );
  ]

let time_once f =
  let t0 = Distsim.Clock.now_s () in
  let r = f () in
  (r, 1000.0 *. (Distsim.Clock.now_s () -. t0))

let csr_rows ~par ~selected =
  let sel id = selected = [] || List.mem id selected in
  List.filter_map
    (fun (name, family, gen) ->
      if not (sel family) then None
      else begin
        (* The millisecond-scale build anchors are dominated by major-GC
           work left over from whatever experiments ran before this
           section (the 10k build measures 8 ms from a fresh heap and
           10x that after the traced e1 sweep). Settle the heap first
           so the row measures the builder, not the predecessor. *)
        Gc.compact ();
        let g, build_ms = time_once gen in
        let _, bfs_ms = time_once (fun () -> Traversal.bfs_distances g 0) in
        let (seq_vals, seq_metrics), flood_seq_ms =
          time_once (fun () -> Distsim.Algorithms.flood_min_id g)
        in
        let (par_vals, par_metrics), flood_par_ms =
          time_once (fun () -> Distsim.Algorithms.flood_min_id ~par g)
        in
        let identical =
          seq_vals = par_vals
          && Distsim.Engine.metrics_deterministic_eq seq_metrics par_metrics
        in
        Some
          ( name,
            [
              ("n", float_of_int (Ugraph.n g));
              ("m", float_of_int (Ugraph.m g));
              ("resident_bytes", float_of_int (Ugraph.resident_bytes g));
              ("build_ms", build_ms);
              ("bfs_ms", bfs_ms);
              ("flood_seq_ms", flood_seq_ms);
              ("flood_par_ms", flood_par_ms);
              ("flood_rounds", float_of_int seq_metrics.Distsim.Engine.rounds);
              ( "flood_messages",
                float_of_int seq_metrics.Distsim.Engine.messages );
              ("flood_identical", if identical then 1.0 else 0.0);
            ] )
      end)
    (csr_anchors ())

(* ------------------------------------------------------------------ *)
(* Frugal A/B rows (new in schema "spanner-bench/8").

   For every protocol anchor, run the protocol plain and under the
   message-frugality layer ([Engine.run ?frugal]: silence-as-
   information re-send suppression + deterministic collection trees)
   in interleaved reps. The row records both sides of the ledger —
   logical message/bit counts (identical by construction) next to the
   physical stream ([metrics.sent_physical] / [sent_bits]) — plus the
   layer's own counters (publishes, collects, suppressed re-sends,
   2-bit markers) and tree shape. The [identical] flag asserts the
   correctness contract (same spanner, same iteration count, equal
   logical metrics per [Engine.metrics_logical_eq]); a divergence
   fails the whole bench. [identical_faulted]
   re-asserts it under a deterministic fault schedule (LOCAL anchors:
   drops + crashes; drops exercise the suppression-memo invalidation
   path). *)

let frugal_schedule spec =
  match Distsim.Faults.parse spec with
  | Ok s -> s
  | Error e -> failwith e

(* Frugal auto fields (new in schema "spanner-bench/9").

   [Frugal.Auto w] probes each run for [w] rounds at full charge
   before deciding whether per-edge silence suppression pays: it arms
   only when the observed payload repeats form runs long enough that
   the 2-bit Again/Eps marker pair costs fewer physical messages than
   the repeats it silences. The point is the chunked CONGEST anchors,
   whose per-chunk payloads rarely repeat — under [Always] they land
   at 0.97x physical messages (markers bought nothing), under [Auto]
   the machine stays at parity and the reduction is >= 1.0x by
   construction. Broadcast suppression and the collection trees are
   unaffected, so repeat-heavy LOCAL anchors keep their full
   reduction. Both the >= 1.0x floor and the logical-identity
   contract are asserted; a violation fails the whole bench. *)
let frugal_auto_fields name kind g (plain : C.Two_spanner_local.result) =
  let fra =
    Distsim.Frugal.create
      ~mode:(Distsim.Frugal.Auto Distsim.Frugal.default_auto_window)
      g
  in
  let fauto = run_anchor ~frugal:fra kind g in
  let m = plain.C.Two_spanner_local.metrics in
  let am = fauto.C.Two_spanner_local.metrics in
  if
    not
      (Edge.Set.equal plain.C.Two_spanner_local.spanner
         fauto.C.Two_spanner_local.spanner
      && Distsim.Engine.metrics_logical_eq m am)
  then
    failwith
      (Printf.sprintf
         "frugal auto A/B: logical divergence on %s (the observation \
          window must be invisible to the protocol)"
         name);
  (* The auto contract is on the classic frugality measure, message
     count: arm only when the observed run lengths pay for the
     markers, so the wire never carries more messages than the
     logical stream. Bits are reported but not gated — on LOCAL
     anchors the collection trees' collect frames can push bit
     totals above logical even as messages drop 2-3x (E19 documents
     the same for Always mode). *)
  if am.sent_physical > m.messages then
    failwith
      (Printf.sprintf
         "frugal auto A/B: %s physical stream above logical (%d > %d \
          msgs) — the auto probe exists to forbid this"
         name am.sent_physical m.messages);
  [
    ("auto_physical_messages", float_of_int am.sent_physical);
    ( "auto_message_reduction",
      float_of_int m.messages /. float_of_int (max 1 am.sent_physical) );
    ("auto_physical_bits", float_of_int am.sent_bits);
    ("auto_armed", float_of_int (Distsim.Frugal.auto_armed fra));
    ("auto_disarmed", float_of_int (Distsim.Frugal.auto_disarmed fra));
    ("auto_identical", 1.0);
  ]

let frugal_rows ~reps ~selected =
  let sel id = selected = [] || List.mem id selected in
  List.filter_map
    (fun (name, family, kind, g) ->
      if not (sel family || sel "e19") then None
      else begin
        let fr = Distsim.Frugal.create g in
        let plain = run_anchor kind g in
        let frug = run_anchor ~frugal:fr kind g in
        (* Snapshot the layer's counters for this one run, before the
           faulted and timing runs accumulate on top. *)
        let publishes = Distsim.Frugal.publishes fr in
        let collects = Distsim.Frugal.collects fr in
        let suppressed = Distsim.Frugal.suppressed fr in
        let markers = Distsim.Frugal.markers fr in
        let identical =
          Edge.Set.equal plain.C.Two_spanner_local.spanner
            frug.C.Two_spanner_local.spanner
          && plain.iterations = frug.iterations
          && Distsim.Engine.metrics_logical_eq plain.metrics frug.metrics
        in
        if not identical then
          failwith
            (Printf.sprintf
               "frugal A/B: logical divergence on %s (the frugality layer \
                must be invisible to the protocol)"
               name);
        (* The same contract under faults. Drops hit the suppression
           memo (an undelivered send must not license later silence);
           LOCAL anchors get drops + crashes with retransmits, the
           chunked CONGEST anchors crashes only (a lossy adversary
           needs the Resilience harness's round bounds). *)
        let faulted_fields =
          match kind with
          | `Congest -> []
          | `Local ->
              let schedule = frugal_schedule "drop=0.08,crash=0.1@r3,seed=13" in
              let adv () = Distsim.Faults.compile ~n:(Ugraph.n g) schedule in
              let fp = run_anchor ~adversary:(adv ()) ~retry:3 kind g in
              let ff =
                run_anchor ~adversary:(adv ()) ~retry:3 ~frugal:fr kind g
              in
              let ok =
                Edge.Set.equal fp.C.Two_spanner_local.spanner
                  ff.C.Two_spanner_local.spanner
                && Distsim.Engine.metrics_logical_eq fp.metrics ff.metrics
              in
              if not ok then
                failwith
                  (Printf.sprintf
                     "frugal A/B: divergence under faults on %s (the \
                      adversary coin stream must be frugality-invariant)"
                     name);
              [ ("identical_faulted", 1.0) ]
        in
        let plain_ms, frugal_ms =
          interleaved_ab_ms ~reps
            (fun () -> ignore (run_anchor kind g))
            (fun () -> ignore (run_anchor ~frugal:fr kind g))
        in
        let m = plain.C.Two_spanner_local.metrics in
        let fm = frug.C.Two_spanner_local.metrics in
        Some
          ( "fr_" ^ name,
            [
              ("n", float_of_int (Ugraph.n g));
              ("m", float_of_int (Ugraph.m g));
              ("rounds", float_of_int m.rounds);
              ("logical_messages", float_of_int m.messages);
              ("physical_messages", float_of_int fm.sent_physical);
              ( "message_reduction",
                float_of_int m.messages
                /. float_of_int (max 1 fm.sent_physical) );
              ("logical_bits", float_of_int m.total_bits);
              ("physical_bits", float_of_int fm.sent_bits);
              ("publishes", float_of_int publishes);
              ("collects", float_of_int collects);
              ("suppressed", float_of_int suppressed);
              ("markers", float_of_int markers);
              ("trees", float_of_int (Distsim.Frugal.tree_count fr));
              ( "max_tree_degree",
                float_of_int (Distsim.Frugal.max_tree_degree fr) );
              ("plain_ms_best", plain_ms);
              ("frugal_ms_best", frugal_ms);
              ("speedup", plain_ms /. Float.max 1e-9 frugal_ms);
              ("identical", 1.0);
            ]
            @ faulted_fields
            @ frugal_auto_fields name kind g plain )
      end)
    (anchors ())

(* Frugal flood rows: the million-vertex anchors, end to end. The
   flood is broadcast-shaped (every emission is a whole-row
   rebroadcast of one value), so it rides the layer's collection-tree
   fast path — which also skips the per-message [mem_edge] binary
   search on the engine's merge path, the honest 1-core win the
   [speedup] field tracks. Single timed runs, like [csr_rows]: at
   these sizes best-of-k would multiply minutes of wall clock. *)
let frugal_flood_rows ~selected =
  let sel id = selected = [] || List.mem id selected in
  List.filter_map
    (fun (name, family, gen) ->
      if not (sel family) then None
      else begin
        Gc.compact ();
        let g, _ = time_once gen in
        let fr, setup_ms = time_once (fun () -> Distsim.Frugal.create g) in
        let (plain_vals, pm), plain_ms =
          time_once (fun () -> Distsim.Algorithms.flood_min_id g)
        in
        let (frugal_vals, fm), frugal_ms =
          time_once (fun () -> Distsim.Algorithms.flood_min_id ~frugal:fr g)
        in
        if
          not
            (plain_vals = frugal_vals
            && Distsim.Engine.metrics_logical_eq pm fm)
        then
          failwith
            (Printf.sprintf "frugal A/B: flood divergence on %s" name);
        Some
          ( "fr_flood_" ^ name,
            [
              ("n", float_of_int (Ugraph.n g));
              ("m", float_of_int (Ugraph.m g));
              ("rounds", float_of_int pm.Distsim.Engine.rounds);
              ("logical_messages", float_of_int pm.Distsim.Engine.messages);
              ( "physical_messages",
                float_of_int fm.Distsim.Engine.sent_physical );
              ( "message_reduction",
                float_of_int pm.Distsim.Engine.messages
                /. float_of_int (max 1 fm.Distsim.Engine.sent_physical) );
              ("logical_bits", float_of_int pm.Distsim.Engine.total_bits);
              ("physical_bits", float_of_int fm.Distsim.Engine.sent_bits);
              ("setup_ms", setup_ms);
              ("plain_ms", plain_ms);
              ("frugal_ms", frugal_ms);
              ("speedup", plain_ms /. Float.max 1e-9 frugal_ms);
              ("identical", 1.0);
            ] )
      end)
    (csr_anchors ())

(* ------------------------------------------------------------------ *)
(* Perf trajectory (--json FILE): a machine-readable snapshot of the
   Bechamel estimates, wall-clock anchors, fault/csr/frugal rows and
   engine metrics, written as BENCH_PR<k>.json at the end of a PR so
   regressions show up as diffs (see EXPERIMENTS.md,
   "Performance"). *)

let perf_json ~json_path ~trace_path ~selected ~micro_rows ~par =
  let sel id = selected = [] || List.mem id selected in
  let with_densest_count f =
    let c0 = !Netflow.Densest.solver_calls in
    let r = f () in
    (r, !Netflow.Densest.solver_calls - c0)
  in
  let trace_oc = Option.map open_out trace_path in
  (* Every metric-row run executes under a Stats sink (and, when
     --trace FILE was given, a tee'd JSONL sink with a
     "anchor:<name>" counter separating the runs), so the JSON can
     carry the per-round series of the same executions the engine
     metrics describe. *)
  let series_acc = ref [] in
  (* Each metric-row run also carries a Profile (schema 7's "profile"
     section): histograms of message bits and inbox sizes, round
     times, and the per-phase breakdown of the same execution. The
     profile sink reports [wants_sends = false], so its presence
     changes neither the event stream nor the metering. *)
  let profile_acc = ref [] in
  let traced name f =
    let st = Distsim.Trace.stats () in
    let prof = Distsim.Profile.create () in
    let sink =
      Distsim.Trace.tee (Distsim.Trace.stats_sink st)
        (Distsim.Profile.sink prof)
    in
    let sink =
      match trace_oc with
      | None -> sink
      | Some oc ->
          let j = Distsim.Trace.jsonl ~sends:false oc in
          Distsim.Trace.emit j
            (Distsim.Trace.Counter
               { name = "anchor:" ^ name; value = 0.0; round = 0 });
          Distsim.Trace.tee sink j
    in
    let r = f sink prof in
    series_acc := (name, Distsim.Trace.series st) :: !series_acc;
    profile_acc := (name, prof) :: !profile_acc;
    r
  in
  (* Engine metrics: the E1 graph families under the LOCAL protocol,
     plus the protocol anchors. *)
  let metric_rows =
    let e1_rows =
      if not (sel "e1") then []
      else
        List.map
          (fun (name, g) ->
            let name = "e1_local_" ^ name in
            let r, calls =
              with_densest_count (fun () ->
                  traced name (fun sink prof ->
                      C.Two_spanner_local.run ~seed:5 ~trace:sink
                        ~profile:prof g))
            in
            metric_row name g r calls)
          (ratio_families ())
    in
    let anchor_rows =
      List.filter_map
        (fun (name, family, kind, g) ->
          if not (sel family) then None
          else
            let r, calls =
              with_densest_count (fun () ->
                  traced name (fun sink prof ->
                      run_anchor ~trace:sink ~profile:prof kind g))
            in
            Some (metric_row name g r calls))
        (anchors ())
    in
    e1_rows @ anchor_rows
  in
  let series_rows = List.rev !series_acc in
  let profile_rows = List.rev !profile_acc in
  Option.iter close_out trace_oc;
  (* Wall-clock anchors run with the default null sink: comparing
     these against the previous PR's numbers shows the tracing layer's
     (absence of) overhead on the untraced path; the stats-sink
     column quantifies the cost of actually collecting a series. *)
  let wall_rows =
    List.filter_map
      (fun (name, family, kind, g) ->
        if not (sel family) then None
        else
          Some
            (name, best_wall_ms ~reps:5 (fun () -> ignore (run_anchor kind g))))
      (anchors ())
  in
  let wall_stats_rows =
    if json_path = None then []
    else
      List.filter_map
        (fun (name, family, kind, g) ->
          if not (sel family) then None
          else
            Some
              ( name,
                best_wall_ms ~reps:3 (fun () ->
                    let st = Distsim.Trace.stats () in
                    ignore
                      (run_anchor ~trace:(Distsim.Trace.stats_sink st) kind g))
              ))
        (anchors ())
  in
  let ft_rows = if json_path = None then [] else fault_rows ~selected in
  let cs_rows = if json_path = None then [] else csr_rows ~par ~selected in
  let fr_rows =
    if json_path = None then []
    else frugal_rows ~reps:3 ~selected @ frugal_flood_rows ~selected
  in
  (match json_path with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      let buf = Buffer.create 4096 in
      let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
      let sep body items =
        List.iteri
          (fun i x ->
            if i > 0 then out ",\n";
            body x)
          items
      in
      let num v =
        (* Integers as integers, everything else with 3 decimals. *)
        if Float.is_integer v && Float.abs v < 1e15 then
          Printf.sprintf "%.0f" v
        else Printf.sprintf "%.3f" v
      in
      (* One [ "section": { "row": { "key": num, ... }, ... } ] block. *)
      let rows_section title rows =
        out "  %S: {\n" title;
        sep
          (fun (name, fields) ->
            out "    %S: { " name;
            List.iteri
              (fun i (k, v) ->
                if i > 0 then out ", ";
                out "%S: %s" k (num v))
              fields;
            out " }")
          rows;
        out "\n  },\n"
      in
      out "{\n";
      out "  \"schema\": \"spanner-bench/10\",\n";
      out "  \"par\": { \"domains\": %d, \"cores\": %d },\n" par
        (Domain.recommended_domain_count ());
      out "  \"micro_ns_per_run\": {\n";
      sep
        (fun (name, est) -> out "    %S: %.1f" name est)
        (match micro_rows with None -> [] | Some rows -> rows);
      out "\n  },\n";
      out "  \"wall_clock_ms_best_of_5\": {\n";
      sep (fun (name, ms) -> out "    %S: %.3f" name ms) wall_rows;
      out "\n  },\n";
      out "  \"wall_clock_ms_stats_sink_best_of_3\": {\n";
      sep (fun (name, ms) -> out "    %S: %.3f" name ms) wall_stats_rows;
      out "\n  },\n";
      rows_section "faults" ft_rows;
      rows_section "csr" cs_rows;
      (* Frugal A/B rows (schema "spanner-bench/8"): the physical
         wire stream under the message-frugality layer next to the
         logical one, with the correctness contract asserted on every
         row ([identical] / [identical_faulted]). *)
      rows_section "frugal" fr_rows;
      out "  \"round_series\": {\n";
      sep
        (fun (name, series) ->
          let rounds, steps, m_total, m_max, m_mean, b_max, hist =
            series_summary series
          in
          out
            "    %S: { \"rounds\": %d, \"steps\": %d, \"messages_total\": \
             %d, \"messages_max_round\": %d, \"messages_mean_round\": %.2f, \
             \"bits_max_round\": %d, \"stepped_hist\": [%s] }"
            name rounds steps m_total m_max m_mean b_max
            (String.concat ", "
               (Array.to_list (Array.map string_of_int hist))))
        series_rows;
      out "\n  },\n";
      (* Profile rows (schema "spanner-bench/7"): histogram
         percentiles and per-phase breakdowns of the same traced
         executions the engine metrics describe. Histogram-derived
         fields (message/inbox percentiles, counts) are deterministic;
         [*_ns] fields are wall-clock measurements and noisy by
         nature — bench_diff classifies them by suffix. *)
      out "  \"profile\": {\n";
      sep
        (fun (name, p) ->
          let bits = Distsim.Profile.message_bits p in
          let inbox = Distsim.Profile.inbox_sizes p in
          let rt = Distsim.Profile.round_times p in
          let pc h q = Distsim.Histogram.percentile h q in
          out
            "    %S: { \"rounds\": %d, \"messages\": %d, \"bits_p50\": %d, \
             \"bits_p90\": %d, \"bits_p99\": %d, \"bits_max\": %d, \
             \"inbox_p50\": %d, \"inbox_p99\": %d, \"inbox_max\": %d, \
             \"round_ns_p50\": %d, \"round_ns_p90\": %d, \"round_ns_p99\": \
             %d, \"total_ns\": %d"
            name
            (Distsim.Profile.rounds_profiled p)
            (Distsim.Histogram.count bits)
            (pc bits 0.5) (pc bits 0.9) (pc bits 0.99)
            (Distsim.Histogram.max_value bits)
            (pc inbox 0.5) (pc inbox 0.99)
            (Distsim.Histogram.max_value inbox)
            (pc rt 0.5) (pc rt 0.9) (pc rt 0.99)
            (Distsim.Profile.total_ns p);
          List.iter
            (fun (row : Distsim.Profile.phase_row) ->
              out ", \"phase_%s_rounds\": %d, \"phase_%s_ns\": %d" row.phase
                row.occurrences row.phase row.total_ns)
            (Distsim.Profile.phase_breakdown p);
          out " }")
        profile_rows;
      out "\n  },\n";
      out "  \"engine_metrics\": {\n";
      sep
        (fun (name, fields) ->
          out "    %S: { " name;
          List.iteri
            (fun i (k, v) ->
              if i > 0 then out ", ";
              out "%S: %.0f" k v)
            fields;
          out " }")
        metric_rows;
      out "\n  }\n";
      out "}\n";
      output_string oc (Buffer.contents buf);
      close_out oc;
      printf
        "\nperf trajectory written to %s (%d metric rows, %d micros, %d \
         fault rows, %d csr rows, %d frugal rows, %d profile rows)\n"
        path
        (List.length metric_rows)
        (match micro_rows with None -> 0 | Some rows -> List.length rows)
        (List.length ft_rows) (List.length cs_rows) (List.length fr_rows)
        (List.length profile_rows));
  match trace_path with
  | Some path ->
      printf "event trace (JSON Lines) written to %s (%d runs)\n" path
        (List.length series_rows)
  | None -> ()
