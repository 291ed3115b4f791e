(* Tests for the message-passing LOCAL implementation of the Section 4
   algorithm, including the differential equality with the
   round-structured engine, plus the augmentation wrapper and the
   spanner statistics. *)

open Grapho
module C = Spanner_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Two_spanner_local *)

let families =
  [
    ("K12", Generators.complete 12);
    ("caveman", Generators.caveman (Rng.create 1) 5 6 0.05);
    ("gnp40", Generators.gnp_connected (Rng.create 2) 40 0.25);
    ("ladder80", Generators.clique_ladder (Rng.create 3) 80);
    ("pa60", Generators.preferential_attachment (Rng.create 4) 60 8);
    ("bipartite", Generators.complete_bipartite 5 6);
    ("path7", Generators.path 7);
  ]

let test_local_valid () =
  List.iter
    (fun (name, g) ->
      let r = C.Two_spanner_local.run ~seed:5 g in
      check (name ^ " valid") true
        (C.Spanner_check.is_spanner g r.spanner ~k:2))
    families

let test_local_equals_engine () =
  (* The headline differential test: identical spanners for identical
     seeds, across families and seeds, including multi-iteration
     runs. *)
  List.iter
    (fun (name, g) ->
      List.iter
        (fun seed ->
          let a = C.Two_spanner.run ~seed g in
          let b = C.Two_spanner_local.run ~seed g in
          check
            (Printf.sprintf "%s seed %d identical" name seed)
            true
            (Edge.Set.equal a.spanner b.spanner);
          check_int
            (Printf.sprintf "%s seed %d iterations" name seed)
            a.iterations b.iterations)
        [ 1; 2; 3 ])
    families

let test_local_round_accounting () =
  let g = Generators.clique_ladder (Rng.create 5) 60 in
  let r = C.Two_spanner_local.run ~seed:1 g in
  (* 12 rounds per completed iteration, plus the quiet-detection tail
     that never exceeds two extra iterations. *)
  check "round shape" true
    (r.metrics.rounds >= C.Two_spanner_local.rounds_per_iteration * r.iterations
    && r.metrics.rounds
       <= C.Two_spanner_local.rounds_per_iteration * (r.iterations + 3))

let test_local_degenerate () =
  let r = C.Two_spanner_local.run (Ugraph.empty 4) in
  check_int "no edges" 0 (Edge.Set.cardinal r.spanner);
  let g1 = Generators.path 2 in
  let r1 = C.Two_spanner_local.run g1 in
  check_int "single edge" 1 (Edge.Set.cardinal r1.spanner)

let test_local_runs_under_local_model_only () =
  (* Messages genuinely exceed O(log n): that is the point of LOCAL. *)
  let g = Generators.complete 20 in
  let r = C.Two_spanner_local.run ~seed:2 g in
  check "big messages happen" true (r.metrics.max_message_bits > 64)

let prop_local_equals_engine =
  QCheck.Test.make ~name:"local protocol = engine on random graphs" ~count:15
    QCheck.(
      set_shrink Shrink.nil (pair (int_range 2 25) (int_range 0 10_000)))
    (fun (n, seed) ->
      let g = Generators.gnp_connected (Rng.create seed) n 0.35 in
      let a = C.Two_spanner.run ~seed g in
      let b = C.Two_spanner_local.run ~seed g in
      Edge.Set.equal a.spanner b.spanner)

(* ------------------------------------------------------------------ *)
(* Augmentation *)

let test_augment_from_empty_is_plain () =
  let g = Generators.complete 12 in
  let r = C.Augmentation.run ~seed:3 g ~initial:Edge.Set.empty in
  check "valid" true (C.Spanner_check.is_spanner g r.spanner ~k:2);
  check "added = spanner" true (Edge.Set.equal r.added r.spanner)

let test_augment_from_full_adds_nothing () =
  let g = Generators.gnp_connected (Rng.create 6) 30 0.2 in
  let r = C.Augmentation.run ~seed:3 g ~initial:(Ugraph.edge_set g) in
  check_int "nothing added" 0 (Edge.Set.cardinal r.added);
  check "valid" true (C.Spanner_check.is_spanner g r.spanner ~k:2)

let test_augment_partial () =
  for seed = 0 to 4 do
    let g = Generators.gnp_connected (Rng.create (10 + seed)) 30 0.25 in
    (* Start from a random half of the edges. *)
    let rng = Rng.create seed in
    let initial =
      Edge.Set.filter (fun _ -> Rng.bool rng) (Ugraph.edge_set g)
    in
    let r = C.Augmentation.run ~seed g ~initial in
    check "valid" true (C.Spanner_check.is_spanner g r.spanner ~k:2);
    check "contains initial" true (Edge.Set.subset initial r.spanner);
    check "added disjoint from initial" true
      (Edge.Set.is_empty (Edge.Set.inter r.added initial))
  done

let test_augment_rejects_foreign_edges () =
  let g = Generators.path 3 in
  check "raises" true
    (try
       ignore
         (C.Augmentation.run g ~initial:(Edge.Set.singleton (Edge.make 0 2)));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Spanner_stats *)

let test_stats_full_graph () =
  let g = Generators.complete 6 in
  let s = C.Spanner_stats.compute g (Ugraph.edge_set g) in
  check_int "max stretch" 1 s.max_stretch;
  Alcotest.(check (float 1e-9)) "mean" 1.0 s.mean_stretch;
  Alcotest.(check (float 1e-9)) "compression" 1.0 s.compression

let test_stats_star_spanner () =
  let g = Generators.complete 6 in
  let star =
    Edge.Set.of_list (List.init 5 (fun i -> Edge.make 0 (i + 1)))
  in
  let s = C.Spanner_stats.compute g star in
  check_int "max stretch 2" 2 s.max_stretch;
  check_int "edges" 5 s.edges;
  (* 5 direct edges at stretch 1, 10 at stretch 2 *)
  check "histogram" true (s.stretch_histogram = [ (1, 5); (2, 10) ])

let test_stats_detects_disconnection () =
  let g = Generators.path 3 in
  let s = C.Spanner_stats.compute g (Edge.Set.singleton (Edge.make 0 1)) in
  check_int "unreachable flagged" max_int s.max_stretch

let test_stats_directed () =
  let dg = Dgraph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
  let s =
    C.Spanner_stats.directed_compute dg
      (Edge.Directed.Set.of_list [ (0, 1); (1, 2) ])
  in
  check_int "max stretch" 2 s.max_stretch;
  check_int "edges" 2 s.edges

let test_congest_compilation_equal () =
  List.iter
    (fun (name, g) ->
      let a = C.Two_spanner.run ~seed:3 g in
      let c = C.Two_spanner_local.run_congest ~seed:3 g in
      check (name ^ " identical under CONGEST") true
        (Edge.Set.equal a.spanner c.spanner);
      check_int (name ^ " no violations") 0 c.metrics.congest_violations)
    [
      ("K10", Generators.complete 10);
      ("ladder60", Generators.clique_ladder (Rng.create 2) 60);
      ("gnp30", Generators.gnp_connected (Rng.create 3) 30 0.3);
    ]

let test_congest_overhead_is_delta () =
  (* Real rounds = chunks_per_round x virtual rounds: the O(Delta)
     overhead of Section 1.3. *)
  let g = Generators.complete 12 in
  let c = C.Two_spanner_local.run_congest ~seed:1 g in
  let chunks = (2 * Ugraph.max_degree g) + 4 in
  check "round multiple" true (c.metrics.rounds mod chunks = 0);
  check "bounded" true
    (c.metrics.rounds
    <= chunks * C.Two_spanner_local.rounds_per_iteration * (c.iterations + 3))

let test_weighted_protocol_equal () =
  List.iter
    (fun (name, g, zf, mw) ->
      List.iter
        (fun seed ->
          let w =
            Generators.random_weights_with_zeros (Rng.create (seed + 50)) g
              ~zero_fraction:zf ~max_weight:mw
          in
          let a = C.Weighted_two_spanner.run ~seed g w in
          let b = C.Two_spanner_local.run_weighted ~seed g w in
          check
            (Printf.sprintf "%s seed %d identical" name seed)
            true
            (Edge.Set.equal a.spanner b.spanner))
        [ 1; 2 ])
    [
      ("K12", Generators.complete 12, 0.0, 8);
      ("caveman", Generators.caveman (Rng.create 1) 4 6 0.05, 0.2, 5);
      ("gnp30", Generators.gnp_connected (Rng.create 4) 30 0.3, 0.3, 16);
      ("allzero", Generators.complete 8, 1.0, 3);
    ]

let prop_weighted_protocol_equal =
  QCheck.Test.make ~name:"weighted local protocol = weighted engine"
    ~count:10
    QCheck.(
      set_shrink Shrink.nil (pair (int_range 2 20) (int_range 0 10_000)))
    (fun (n, seed) ->
      let g = Generators.gnp_connected (Rng.create seed) n 0.35 in
      let w =
        Generators.random_weights_with_zeros (Rng.create (seed + 1)) g
          ~zero_fraction:0.25 ~max_weight:6
      in
      let a = C.Weighted_two_spanner.run ~seed g w in
      let b = C.Two_spanner_local.run_weighted ~seed g w in
      Edge.Set.equal a.spanner b.spanner)

let prop_congest_equals_engine =
  QCheck.Test.make ~name:"CONGEST compilation = engine" ~count:8
    QCheck.(
      set_shrink Shrink.nil (pair (int_range 2 18) (int_range 0 10_000)))
    (fun (n, seed) ->
      let g = Generators.gnp_connected (Rng.create seed) n 0.35 in
      let a = C.Two_spanner.run ~seed g in
      let c = C.Two_spanner_local.run_congest ~seed g in
      Edge.Set.equal a.spanner c.spanner
      && c.metrics.congest_violations = 0)

let base_suites =
    [
      ( "two_spanner_local",
        [
          Alcotest.test_case "valid" `Quick test_local_valid;
          Alcotest.test_case "equals engine" `Quick test_local_equals_engine;
          Alcotest.test_case "round accounting" `Quick
            test_local_round_accounting;
          Alcotest.test_case "degenerate" `Quick test_local_degenerate;
          Alcotest.test_case "LOCAL-size messages" `Quick
            test_local_runs_under_local_model_only;
          QCheck_alcotest.to_alcotest prop_local_equals_engine;
          Alcotest.test_case "congest compilation" `Quick
            test_congest_compilation_equal;
          Alcotest.test_case "congest overhead" `Quick
            test_congest_overhead_is_delta;
          QCheck_alcotest.to_alcotest prop_congest_equals_engine;
          Alcotest.test_case "weighted protocol" `Quick
            test_weighted_protocol_equal;
          QCheck_alcotest.to_alcotest prop_weighted_protocol_equal;
        ] );
      ( "augmentation",
        [
          Alcotest.test_case "from empty" `Quick test_augment_from_empty_is_plain;
          Alcotest.test_case "from full" `Quick test_augment_from_full_adds_nothing;
          Alcotest.test_case "partial" `Quick test_augment_partial;
          Alcotest.test_case "foreign edges" `Quick
            test_augment_rejects_foreign_edges;
        ] );
      ( "stats",
        [
          Alcotest.test_case "full graph" `Quick test_stats_full_graph;
          Alcotest.test_case "star spanner" `Quick test_stats_star_spanner;
          Alcotest.test_case "disconnection" `Quick
            test_stats_detects_disconnection;
          Alcotest.test_case "directed" `Quick test_stats_directed;
        ] );
    ]

(* Appended suites: engine traces, fault tolerance, weighted (1+eps),
   and the MDS selection-rule comparison. These piggyback on this
   runner to keep the test executables few. *)

let test_trace_rows_consistent () =
  let g = Generators.clique_ladder (Rng.create 8) 100 in
  let rows = ref [] in
  let r = C.Two_spanner.run ~seed:4 ~trace:(fun row -> rows := row :: !rows) g in
  let rows = List.rev !rows in
  check_int "one row per iteration" r.iterations (List.length rows);
  (* Uncovered counts never increase between iterations; the first row
     sees all edges uncovered. *)
  (match rows with
  | first :: _ -> check_int "starts full" (Ugraph.m g) first.C.Two_spanner_engine.uncovered_before
  | [] -> Alcotest.fail "expected rows");
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        check "uncovered decreases" true
          (b.C.Two_spanner_engine.uncovered_before
          <= a.C.Two_spanner_engine.uncovered_before);
        monotone rest
    | _ -> ()
  in
  monotone rows;
  (* Max density steps down across iterations (Lemma 4.5 shape). *)
  (match (rows, List.rev rows) with
  | first :: _, last :: _ ->
      check "density falls" true
        (last.C.Two_spanner_engine.max_density
        <= first.C.Two_spanner_engine.max_density +. 1e-9)
  | _ -> ())

let test_ft_checker_known () =
  let g = Generators.complete 5 in
  let all = Ugraph.edge_set g in
  check "whole graph is f-FT for any f" true
    (C.Fault_tolerant.is_ft_2_spanner g ~f:3 all);
  (* One star of K5 is a 0-FT 2-spanner but not 1-FT: the hub is a
     single point of failure. *)
  let star = Edge.Set.of_list (List.init 4 (fun i -> Edge.make 0 (i + 1))) in
  check "star is 0-FT" true (C.Fault_tolerant.is_ft_2_spanner g ~f:0 star);
  check "star is not 1-FT" false (C.Fault_tolerant.is_ft_2_spanner g ~f:1 star)

let test_ft_middle_count () =
  let s =
    Edge.Set.of_list
      [ Edge.make 0 1; Edge.make 1 2; Edge.make 0 3; Edge.make 3 2 ]
  in
  check_int "two middles" 2 (C.Fault_tolerant.middle_count ~n:4 s (Edge.make 0 2))

(* Brute-force cross-check of the characterization against the ∀F
   definition. *)
let ft_by_definition g ~f s =
  let n = Ugraph.n g in
  let rec subsets k from acc =
    if k = 0 then [ acc ]
    else if from >= n then []
    else subsets (k - 1) (from + 1) (from :: acc) @ subsets k (from + 1) acc
  in
  let fault_sets =
    List.concat_map (fun k -> subsets k 0 []) (List.init (f + 1) (fun i -> i))
  in
  List.for_all
    (fun faults ->
      let dead = Array.make n false in
      List.iter (fun v -> dead.(v) <- true) faults;
      let surviving_edges set =
        Edge.Set.filter
          (fun e ->
            let u, w = Edge.endpoints e in
            (not dead.(u)) && not dead.(w))
          set
      in
      C.Spanner_check.is_spanner_of_targets ~n
        ~targets:(surviving_edges (Ugraph.edge_set g))
        (surviving_edges s) ~k:2)
    fault_sets

let test_ft_characterization_matches_definition () =
  for seed = 0 to 4 do
    let g = Generators.gnp_connected (Rng.create (80 + seed)) 8 0.5 in
    let r = C.Fault_tolerant.greedy g ~f:1 in
    check "characterization" true (C.Fault_tolerant.is_ft_2_spanner g ~f:1 r.spanner);
    check "by definition" true (ft_by_definition g ~f:1 r.spanner)
  done

let test_ft_greedy_valid_across_f () =
  let g = Generators.caveman (Rng.create 9) 4 7 0.05 in
  let prev = ref 0 in
  List.iter
    (fun f ->
      let r = C.Fault_tolerant.greedy g ~f in
      check "valid" true (C.Fault_tolerant.is_ft_2_spanner g ~f r.spanner);
      let size = Edge.Set.cardinal r.spanner in
      check "monotone in f" true (size >= !prev);
      prev := size)
    [ 0; 1; 2; 3 ]

let test_ft_f0_is_plain_spanner () =
  let g = Generators.gnp_connected (Rng.create 10) 25 0.3 in
  let r = C.Fault_tolerant.greedy g ~f:0 in
  check "plain 2-spanner" true (C.Spanner_check.is_spanner g r.spanner ~k:2)

let test_weighted_epsilon () =
  for seed = 0 to 2 do
    let g = Generators.gnp_connected (Rng.create (90 + seed)) 9 0.45 in
    let w = Generators.random_weights (Rng.create seed) g ~max_weight:4 in
    let r = C.Epsilon_spanner.run ~rng:(Rng.create seed) ~weights:w
        ~epsilon:0.25 ~k:2 g
    in
    check "valid" true (C.Spanner_check.is_spanner g r.spanner ~k:2);
    let opt = Weights.cost w (C.Exact.min_weighted_2_spanner g w) in
    check "within (1+eps) of optimum" true (r.cost <= (1.25 *. opt) +. 1e-9)
  done

let test_mds_coin_variant () =
  let g = Generators.gnp_connected (Rng.create 11) 100 0.08 in
  let coin =
    C.Mds.run ~rng:(Rng.create 1) ~selection:(C.Mds.Coin 0.5) g
  in
  check "coin variant dominates" true
    (C.Mds.is_dominating_set g coin.dominating_set);
  check_int "coin congest ok" 0 coin.metrics.congest_violations

let prop_ft_greedy_valid =
  QCheck.Test.make ~name:"FT greedy always valid" ~count:12
    QCheck.(pair (int_range 0 2) (int_range 0 10_000))
    (fun (f, seed) ->
      let g = Generators.gnp_connected (Rng.create seed) 15 0.4 in
      let r = C.Fault_tolerant.greedy g ~f in
      C.Fault_tolerant.is_ft_2_spanner g ~f r.spanner)


(* ------------------------------------------------------------------ *)
(* Golden pins for the LOCAL protocol family: a digest of each run's
   spanner edges and its deterministic engine counts, recorded before
   H_v moved from edge sets to neighbour-position arrays. Weighted runs
   with zero-weight edges exercise the free-neighbour bonus path, the
   CONGEST compilation the chunked transport, [~active] a sparse ball,
   and a drop adversary the case where only one endpoint's [Uncovered]
   report of an H_v edge arrives. *)

let spanner_digest s =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (List.map
             (fun e ->
               let u, v = Edge.endpoints e in
               Printf.sprintf "%d-%d" u v)
             (Edge.Set.elements s))))

(* Spanner size and iterations, then the deterministic engine counts
   in [metrics] field order; and the spanner's digest. *)
let run_line (r : C.Two_spanner_local.result) =
  let m = r.metrics in
  ( Printf.sprintf "%d %d %d %d %d %d %d %d %d %d %d %d"
      (Edge.Set.cardinal r.spanner) r.iterations m.rounds m.messages
      m.total_bits m.max_message_bits m.congest_violations m.steps m.dropped
      m.crashed m.sent_physical m.sent_bits,
    spanner_digest r.spanner )

let golden_runs () =
  let ladder = Generators.clique_ladder (Rng.create 1) 80 in
  let cave = Generators.caveman_n (Rng.create 2) 3000 0.1 in
  let gnp = Generators.gnp_connected (Rng.create 3) 100 0.3 in
  let wg = Generators.gnp_connected (Rng.create 4) 40 0.3 in
  let w =
    Generators.random_weights_with_zeros (Rng.create 5) wg
      ~zero_fraction:0.25 ~max_weight:6
  in
  let small = Generators.gnp_connected (Rng.create 6) 24 0.3 in
  let pa = Generators.preferential_attachment (Rng.create 7) 300 4 in
  let ball = Array.of_list (List.sort compare (Traversal.ball pa 0 2)) in
  let faulty = Generators.caveman_n (Rng.create 8) 200 0.1 in
  let adversary =
    match Distsim.Faults.parse "drop=0.05,seed=9" with
    | Ok s -> Distsim.Faults.compile ~n:(Ugraph.n faulty) s
    | Error e -> failwith e
  in
  [
    ("ladder80", fun () -> C.Two_spanner_local.run ~seed:11 ladder);
    ("caveman3000", fun () -> C.Two_spanner_local.run ~seed:12 cave);
    ("gnp100", fun () -> C.Two_spanner_local.run ~seed:13 gnp);
    ("weighted", fun () -> C.Two_spanner_local.run_weighted ~seed:14 wg w);
    ("congest", fun () -> C.Two_spanner_local.run_congest ~seed:15 small);
    ("active", fun () -> C.Two_spanner_local.run ~seed:16 ~active:ball pa);
    ( "drop",
      fun () -> C.Two_spanner_local.run ~seed:17 ~adversary ~retry:3 faulty );
  ]

let golden_lines =
  [
    ( "ladder80",
      "307 3 48 31405 1411752 242 0 3920 0 0 31405 1411752",
      "2394a6f0280e4148755f33a5b695d5ad" );
    ( "caveman3000",
      "6545 2 36 405945 19125072 220 0 101238 0 0 405945 19125072",
      "61a33a1ca5aac3c70b28672a20d481c5" );
    ( "gnp100",
      "879 2 36 65218 4264593 333 0 3700 0 0 65218 4264593",
      "e2a8fac0c0469fbcce76a81f6ce564db" );
    ( "weighted",
      "194 5 72 20066 701552 136 0 2920 0 0 20066 701552",
      "3a4896658853dabfee38c8ebc879668b" );
    ( "congest",
      "90 2 1080 22301 230537 38 0 25944 0 0 22301 230537",
      "7f15174265a6355f1383c61c58b22c49" );
    ( "active",
      "754 1 24 23320 1289665 445 0 5525 0 0 23320 1289665",
      "d5ab3f9d0160f544efb4b2e541aaa9ee" );
    ( "drop",
      "453 1 24 65457 2665500 132 0 5000 3345 0 65457 2665500",
      "880a62bb133ff5cdb32eb2434950b6d5" );
  ]

let test_local_golden () =
  List.iter2
    (fun (name, run) (name', counts, digest) ->
      let got_counts, got_digest = run_line (run ()) in
      Alcotest.(check string) "pin order" name' name;
      Alcotest.(check string) (name ^ " counts") counts got_counts;
      Alcotest.(check string) (name ^ " spanner") digest got_digest)
    (golden_runs ()) golden_lines

(* Hub degree: the density phase must cost O(entries + deg) per vertex,
   never deg^2. A star K_{1,20000}, whose hub has an empty H_v, and a
   preferential-attachment graph with hubs of degree in the hundreds
   must both bootstrap to valid spanners inside one fixed wall-clock
   budget (with a deg x deg scratch the star's hub alone would need
   4 * 10^8 cells per rebuild). *)
let hub_budget_s = 20.0

let test_hub_degree () =
  let t0 = Unix.gettimeofday () in
  let star = Generators.star 20_001 in
  let r = C.Two_spanner_local.run ~seed:1 ~par:1 star in
  check "star valid" true (C.Spanner_check.is_2_spanner_fast star r.spanner);
  check_int "star keeps every edge" 20_000 (Edge.Set.cardinal r.spanner);
  let pa = Generators.preferential_attachment (Rng.create 1) 20_000 3 in
  check "pa has hubs" true (Ugraph.max_degree pa >= 200);
  let r = C.Two_spanner_local.run ~seed:1 ~par:1 pa in
  check "pa valid" true (C.Spanner_check.is_2_spanner_fast pa r.spanner);
  let spent = Unix.gettimeofday () -. t0 in
  check
    (Printf.sprintf "%.1f s under budget %.0f s" spent hub_budget_s)
    true (spent < hub_budget_s)

(* Allocation guard for the density phase: one sequential LOCAL
   bootstrap of a clique ladder under a fixed minor-words ceiling.
   H_v as edge sets cost ~1.3-1.45 M words here; as position arrays
   built in per-domain scratch, ~0.6 M. *)
let density_gc_minor_words_ceiling = 1_000_000.0

let test_density_gc_guard () =
  let g = Generators.clique_ladder (Rng.create 1) 80 in
  (* Warm-up run so the per-domain scratch reaches capacity. *)
  ignore (C.Two_spanner_local.run ~par:1 g);
  let before = Gc.minor_words () in
  let r = C.Two_spanner_local.run ~par:1 g in
  let spent = Gc.minor_words () -. before in
  check "valid" true (C.Spanner_check.is_2_spanner_fast g r.spanner);
  check
    (Printf.sprintf "minor words %.0f under ceiling %.0f" spent
       density_gc_minor_words_ceiling)
    true
    (spent < density_gc_minor_words_ceiling)

let extra_suites =
    [
      ( "trace",
        [ Alcotest.test_case "rows" `Quick test_trace_rows_consistent ] );
      ( "fault_tolerant",
        [
          Alcotest.test_case "checker" `Quick test_ft_checker_known;
          Alcotest.test_case "middles" `Quick test_ft_middle_count;
          Alcotest.test_case "matches definition" `Quick
            test_ft_characterization_matches_definition;
          Alcotest.test_case "monotone in f" `Quick
            test_ft_greedy_valid_across_f;
          Alcotest.test_case "f=0 plain" `Quick test_ft_f0_is_plain_spanner;
          QCheck_alcotest.to_alcotest prop_ft_greedy_valid;
        ] );
      ( "weighted_epsilon",
        [ Alcotest.test_case "ratio" `Quick test_weighted_epsilon ] );
      ( "golden",
        [ Alcotest.test_case "local family" `Quick test_local_golden ] );
      ( "hubs", [ Alcotest.test_case "hub degree" `Quick test_hub_degree ] );
      ( "gc",
        [ Alcotest.test_case "density phase" `Quick test_density_gc_guard ] );
      ( "mds_coin",
        [ Alcotest.test_case "valid" `Quick test_mds_coin_variant ] );
    ]

let () = Alcotest.run "local_protocol" (base_suites @ extra_suites)
