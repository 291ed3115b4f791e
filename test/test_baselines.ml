(* Tests for the baselines: Kortsarz-Peleg sequential greedy and the
   Baswana-Sen (2k-1)-spanner. *)

open Grapho
module C = Spanner_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Kp_greedy *)

let test_greedy_valid_on_families () =
  List.iter
    (fun (name, g) ->
      let r = C.Kp_greedy.run g in
      check (name ^ " valid") true (C.Spanner_check.is_spanner g r.spanner ~k:2))
    [
      ("complete", Generators.complete 20);
      ("bipartite", Generators.complete_bipartite 6 8);
      ("caveman", Generators.caveman (Rng.create 1) 5 6 0.05);
      ("gnp", Generators.gnp_connected (Rng.create 2) 50 0.2);
      ("tree", Generators.random_tree (Rng.create 3) 30);
    ]

let test_greedy_complete_graph_optimal () =
  (* One full star is the optimal 2-spanner of K_n; greedy finds it. *)
  let g = Generators.complete 20 in
  let r = C.Kp_greedy.run g in
  check_int "single star" 19 (Edge.Set.cardinal r.spanner);
  check_int "one star added" 1 r.stars_added

let test_greedy_near_optimal_small () =
  for seed = 0 to 6 do
    let g = Generators.gnp_connected (Rng.create (10 + seed)) 9 0.45 in
    let r = C.Kp_greedy.run g in
    let opt = C.Exact.min_2_spanner_size g in
    check "within log factor" true
      (float_of_int (Edge.Set.cardinal r.spanner)
      <= C.Two_spanner.ratio_bound g *. float_of_int opt)
  done

let test_greedy_weighted () =
  for seed = 0 to 3 do
    let g = Generators.gnp_connected (Rng.create (20 + seed)) 25 0.25 in
    let w =
      Generators.random_weights_with_zeros (Rng.create seed) g
        ~zero_fraction:0.2 ~max_weight:6
    in
    let r = C.Kp_greedy.run ~weights:w g in
    check "valid" true (C.Spanner_check.is_spanner g r.spanner ~k:2);
    check "cost consistent" true
      (Float.abs (r.cost -. Weights.cost w r.spanner) < 1e-9)
  done

let test_greedy_weighted_beats_paying () =
  (* Free edges should be used: spanner cost must ignore zero edges. *)
  let g = Generators.complete 8 in
  let w = Weights.of_list ~default:1.0 (List.init 7 (fun i -> (0, i + 1, 0.0))) in
  let r = C.Kp_greedy.run ~weights:w g in
  check "zero cost solution" true (r.cost = 0.0)

let test_greedy_client_server () =
  let g = Generators.gnp_connected (Rng.create 30) 30 0.25 in
  let clients, servers =
    Generators.random_client_server (Rng.create 31) g ~client_fraction:0.6
      ~server_fraction:0.7
  in
  let r = C.Kp_greedy.run ~targets:clients ~usable:servers g in
  check "spanner within servers" true (Edge.Set.subset r.spanner servers);
  check "coverable covered" true
    (C.Spanner_check.is_spanner_of_targets ~n:(Ugraph.n g)
       ~targets:(Edge.Set.diff clients r.uncoverable)
       r.spanner ~k:2)

let test_greedy_vs_distributed_consistency () =
  (* Both are O(log)-approximations: sizes within a moderate factor on
     a compressible family. *)
  let g = Generators.caveman (Rng.create 5) 6 7 0.02 in
  let greedy = Edge.Set.cardinal (C.Kp_greedy.run g).spanner in
  let dist =
    Edge.Set.cardinal (C.Two_spanner.run ~rng:(Rng.create 6) g).spanner
  in
  check "same ballpark" true (dist <= 6 * greedy && greedy <= dist * 6 + 10)

let prop_greedy_always_valid =
  QCheck.Test.make ~name:"greedy always yields a 2-spanner" ~count:20
    QCheck.(
      set_shrink Shrink.nil (pair (int_range 2 25) (int_range 0 10_000)))
    (fun (n, seed) ->
      let g = Generators.gnp_connected (Rng.create seed) n 0.3 in
      let r = C.Kp_greedy.run g in
      C.Spanner_check.is_spanner g r.spanner ~k:2)

let prop_greedy_no_worse_than_all_edges =
  QCheck.Test.make ~name:"greedy never larger than the graph" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = Generators.gnp_connected (Rng.create seed) 20 0.4 in
      Edge.Set.cardinal (C.Kp_greedy.run g).spanner <= Ugraph.m g)

(* ------------------------------------------------------------------ *)
(* Baswana-Sen *)

let test_bs_stretch_always_holds () =
  List.iter
    (fun k ->
      for seed = 0 to 4 do
        let g = Generators.gnp_connected (Rng.create (seed * 7 + k)) 60 0.2 in
        let r = C.Baswana_sen.run ~rng:(Rng.create seed) ~k g in
        let stretch = C.Spanner_check.stretch g r.spanner in
        check "stretch <= 2k-1" true (stretch <= (2 * k) - 1)
      done)
    [ 1; 2; 3; 4 ]

let test_bs_k1_takes_everything () =
  let g = Generators.gnp_connected (Rng.create 3) 30 0.2 in
  let r = C.Baswana_sen.run ~rng:(Rng.create 4) ~k:1 g in
  check_int "all edges" (Ugraph.m g) (Edge.Set.cardinal r.spanner)

let test_bs_sparsifies_dense_graphs () =
  let g = Generators.gnp_connected (Rng.create 5) 120 0.4 in
  let r = C.Baswana_sen.run ~rng:(Rng.create 6) ~k:3 g in
  check "sparser than input" true
    (Edge.Set.cardinal r.spanner < Ugraph.m g / 2)

let test_bs_size_within_expectation_slack () =
  (* Expected size O(k n^{1+1/k}); allow factor 4 slack on one run. *)
  for seed = 0 to 4 do
    let g = Generators.gnp_connected (Rng.create (40 + seed)) 100 0.3 in
    let r = C.Baswana_sen.run ~rng:(Rng.create seed) ~k:2 g in
    check "size sane" true
      (float_of_int (Edge.Set.cardinal r.spanner)
      <= 4.0 *. C.Baswana_sen.expected_size_bound ~n:100 ~k:2)
  done

let test_bs_connected_preserved () =
  let g = Generators.gnp_connected (Rng.create 7) 50 0.15 in
  let r = C.Baswana_sen.run ~rng:(Rng.create 8) ~k:3 g in
  let sub = Ugraph.of_edge_set ~n:50 r.spanner in
  check "spanner connected" true (Traversal.is_connected sub)

let test_bs_rounds_is_k () =
  let g = Generators.cycle 10 in
  let r = C.Baswana_sen.run ~k:3 g in
  check_int "k rounds" 3 r.rounds

let prop_bs_stretch =
  QCheck.Test.make ~name:"Baswana-Sen stretch bound is never violated"
    ~count:25
    QCheck.(
      set_shrink Shrink.nil (pair (int_range 1 4) (int_range 0 10_000)))
    (fun (k, seed) ->
      let g = Generators.gnp_connected (Rng.create seed) 30 0.25 in
      let r = C.Baswana_sen.run ~rng:(Rng.create (seed + 1)) ~k g in
      C.Spanner_check.stretch g r.spanner <= (2 * k) - 1)

let prop_bs_subset =
  QCheck.Test.make ~name:"Baswana-Sen spanner is a subgraph" ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = Generators.gnp_connected (Rng.create seed) 25 0.3 in
      let r = C.Baswana_sen.run ~rng:(Rng.create (seed + 1)) ~k:2 g in
      Edge.Set.subset r.spanner (Ugraph.edge_set g))

(* ------------------------------------------------------------------ *)
(* Elkin-Neiman *)

let test_en_stretch_always_holds () =
  List.iter
    (fun k ->
      for seed = 0 to 4 do
        let g = Generators.gnp_connected (Rng.create (seed * 11 + k)) 60 0.2 in
        let r = C.Elkin_neiman.run ~seed ~k g in
        check "stretch" true (C.Spanner_check.stretch g r.spanner <= (2 * k) - 1)
      done)
    [ 2; 3; 4 ]

let test_en_rounds_at_most_k () =
  let g = Generators.gnp_connected (Rng.create 3) 100 0.15 in
  let r = C.Elkin_neiman.run ~seed:1 ~k:4 g in
  (* Values go negative beyond distance r_u < k, so the flooding
     settles within k rounds (plus the final silent one). *)
  check "rounds <= k+1" true (r.rounds <= 5)

let test_en_sparsifies () =
  let g = Generators.gnp_connected (Rng.create 4) 150 0.3 in
  let r = C.Elkin_neiman.run ~seed:2 ~k:3 g in
  check "sparser" true (Edge.Set.cardinal r.spanner < Ugraph.m g / 2);
  check "subset" true (Edge.Set.subset r.spanner (Ugraph.edge_set g))

let prop_en_stretch =
  QCheck.Test.make ~name:"Elkin-Neiman stretch never violated" ~count:20
    QCheck.(
      set_shrink Shrink.nil (pair (int_range 2 4) (int_range 0 10_000)))
    (fun (k, seed) ->
      let g = Generators.gnp_connected (Rng.create seed) 25 0.3 in
      let r = C.Elkin_neiman.run ~seed:(seed + 1) ~k g in
      C.Spanner_check.stretch g r.spanner <= (2 * k) - 1)

let () =
  Alcotest.run "baselines"
    [
      ( "kp_greedy",
        [
          Alcotest.test_case "valid" `Quick test_greedy_valid_on_families;
          Alcotest.test_case "complete optimal" `Quick
            test_greedy_complete_graph_optimal;
          Alcotest.test_case "near optimal" `Quick test_greedy_near_optimal_small;
          Alcotest.test_case "weighted" `Quick test_greedy_weighted;
          Alcotest.test_case "free edges" `Quick test_greedy_weighted_beats_paying;
          Alcotest.test_case "client-server" `Quick test_greedy_client_server;
          Alcotest.test_case "vs distributed" `Quick
            test_greedy_vs_distributed_consistency;
          QCheck_alcotest.to_alcotest prop_greedy_always_valid;
          QCheck_alcotest.to_alcotest prop_greedy_no_worse_than_all_edges;
        ] );
      ( "baswana_sen",
        [
          Alcotest.test_case "stretch" `Quick test_bs_stretch_always_holds;
          Alcotest.test_case "k=1" `Quick test_bs_k1_takes_everything;
          Alcotest.test_case "sparsifies" `Quick test_bs_sparsifies_dense_graphs;
          Alcotest.test_case "size" `Quick test_bs_size_within_expectation_slack;
          Alcotest.test_case "connected" `Quick test_bs_connected_preserved;
          Alcotest.test_case "rounds" `Quick test_bs_rounds_is_k;
          QCheck_alcotest.to_alcotest prop_bs_stretch;
          QCheck_alcotest.to_alcotest prop_bs_subset;
        ] );
      ( "elkin_neiman",
        [
          Alcotest.test_case "stretch" `Quick test_en_stretch_always_holds;
          Alcotest.test_case "rounds" `Quick test_en_rounds_at_most_k;
          Alcotest.test_case "sparsifies" `Quick test_en_sparsifies;
          QCheck_alcotest.to_alcotest prop_en_stretch;
        ] );
    ]
