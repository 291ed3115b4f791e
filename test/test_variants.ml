(* Tests for the directed, weighted and client-server 2-spanner
   variants (Theorems 4.9, 4.12, 4.15). *)

open Grapho
module C = Spanner_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Directed *)

let directed_families =
  [
    ("bidirect_K12", Generators.bidirect (Generators.complete 12));
    ( "orient_gnp",
      Generators.random_orientation (Rng.create 1)
        (Generators.gnp_connected (Rng.create 2) 40 0.2) );
    ( "bidirect_gnp",
      Generators.bidirect (Generators.gnp_connected (Rng.create 3) 30 0.25) );
    ( "dag", Generators.random_dag_orientation
        (Generators.gnp_connected (Rng.create 4) 30 0.25) );
    ("single_arc", Dgraph.of_edges ~n:2 [ (0, 1) ]);
  ]

let test_directed_valid () =
  List.iter
    (fun (name, dg) ->
      let r = C.Directed_two_spanner.run ~rng:(Rng.create 7) dg in
      check (name ^ " valid") true
        (C.Spanner_check.is_directed_spanner dg r.spanner ~k:2);
      check (name ^ " subset") true
        (Edge.Directed.Set.subset r.spanner (Dgraph.edge_set dg)))
    directed_families

let test_directed_bidirected_complete_quality () =
  (* Both orientations of a single star 2-span the bidirected clique:
     optimum is 2(n-1). *)
  let dg = Generators.bidirect (Generators.complete 15) in
  let r = C.Directed_two_spanner.run ~rng:(Rng.create 5) dg in
  check "double star found" true
    (Edge.Directed.Set.cardinal r.spanner <= 4 * 14)

let test_directed_antiparallel_pair () =
  let dg = Dgraph.of_edges ~n:2 [ (0, 1); (1, 0) ] in
  let r = C.Directed_two_spanner.run dg in
  check_int "both kept" 2 (Edge.Directed.Set.cardinal r.spanner)

let test_directed_ratio_vs_exact () =
  for seed = 0 to 4 do
    let dg =
      Generators.bidirect (Generators.gnp_connected (Rng.create (30 + seed)) 8 0.5)
    in
    let r = C.Directed_two_spanner.run ~rng:(Rng.create seed) dg in
    let opt =
      Edge.Directed.Set.cardinal (C.Exact.min_directed_k_spanner dg ~k:2)
    in
    let size = Edge.Directed.Set.cardinal r.spanner in
    (* O(log m/n) guarantee with generous explicit constant. *)
    let bound =
      16.0
      *. (Float.log (float_of_int (Dgraph.m dg)) /. Float.log 2.0 +. 2.0)
    in
    check "ratio bounded" true (float_of_int size <= bound *. float_of_int opt)
  done

let prop_directed_always_valid =
  QCheck.Test.make ~name:"directed 2-spanner always valid" ~count:20
    QCheck.(
      set_shrink Shrink.nil (pair (int_range 2 20) (int_range 0 10_000)))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Generators.gnp_connected rng n 0.3 in
      let dg =
        if seed mod 2 = 0 then Generators.bidirect g
        else Generators.random_orientation rng g
      in
      let r = C.Directed_two_spanner.run ~rng:(Rng.create (seed + 1)) dg in
      C.Spanner_check.is_directed_spanner dg r.spanner ~k:2)

(* Golden outputs on instances that take the Section 4 loop through
   more than one iteration (the E3 families all finish in one):
   size, iterations, stars, candidacies and an MD5 of the sorted arcs,
   all fixed by seed 31. *)
let directed_golden =
  [
    ( "clique_ladder 120",
      Generators.bidirect (Generators.clique_ladder (Rng.create 2) 120),
      (954, 3, 19, 104),
      "4e15fcd48ff8a434a1c42c8775ea3654" );
    ( "caveman 8x10",
      Generators.bidirect (Generators.caveman (Rng.create 1) 8 10 0.03),
      (308, 2, 15, 62),
      "ae9c5514a9476a947e8e3cc5542d5aa0" );
    ( "oriented K30",
      Generators.random_orientation (Rng.create 5) (Generators.complete 30),
      (217, 1, 8, 30),
      "d27028f1a9898bcb86ac9a28cc7cfd9b" );
  ]

let arcs_digest s =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (List.map
             (fun (u, v) -> Printf.sprintf "%d>%d" u v)
             (Edge.Directed.Set.elements s))))

let test_directed_golden () =
  List.iter
    (fun (name, dg, (size, iters, stars, cands), digest) ->
      let r = C.Directed_two_spanner.run ~rng:(Rng.create 31) dg in
      Alcotest.(check (list int))
        (name ^ " size/iters/stars/cands")
        [ size; iters; stars; cands ]
        [
          Edge.Directed.Set.cardinal r.spanner;
          r.iterations;
          r.stars_added;
          r.candidate_count;
        ];
      Alcotest.(check string) (name ^ " arcs") digest (arcs_digest r.spanner))
    directed_golden

(* ------------------------------------------------------------------ *)
(* Weighted *)

let test_weighted_valid_and_cost () =
  for seed = 0 to 4 do
    let g = Generators.gnp_connected (Rng.create (40 + seed)) 40 0.2 in
    let w = Generators.random_weights (Rng.create seed) g ~max_weight:8 in
    let r = C.Weighted_two_spanner.run ~rng:(Rng.create seed) g w in
    check "valid" true (C.Spanner_check.is_spanner g r.spanner ~k:2);
    check "cost consistent" true
      (Float.abs (r.cost -. Weights.cost w r.spanner) < 1e-9);
    check "cost at most total" true (r.cost <= Weights.graph_cost w g +. 1e-9)
  done

let test_weighted_zero_edges_free () =
  (* All-zero weights: the spanner costs nothing. *)
  let g = Generators.complete 10 in
  let w = Weights.uniform 0.0 in
  let r = C.Weighted_two_spanner.run ~rng:(Rng.create 2) g w in
  check "zero cost" true (r.cost = 0.0);
  check "valid" true (C.Spanner_check.is_spanner g r.spanner ~k:2)

let test_weighted_prefers_cheap_star () =
  (* Two stars cover K4's edges; center 0's edges are cheap, center 3's
     expensive. The algorithm should not pay for expensive edges. *)
  let g = Generators.complete 4 in
  let w =
    Weights.of_list ~default:100.0
      [ (0, 1, 1.0); (0, 2, 1.0); (0, 3, 1.0) ]
  in
  let r = C.Weighted_two_spanner.run ~rng:(Rng.create 3) g w in
  check "valid" true (C.Spanner_check.is_spanner g r.spanner ~k:2);
  (* optimum: star of 0 (cost 3) + nothing else is NOT a 2-spanner of
     the expensive edges? {1,2} is 2-spanned via 0. cost 3. *)
  check "cheap" true (r.cost <= 303.0)

let test_weighted_zero_mix () =
  for seed = 0 to 4 do
    let g = Generators.gnp_connected (Rng.create (60 + seed)) 30 0.25 in
    let w =
      Generators.random_weights_with_zeros (Rng.create seed)
        g ~zero_fraction:0.3 ~max_weight:5
    in
    let r = C.Weighted_two_spanner.run ~rng:(Rng.create seed) g w in
    check "valid" true (C.Spanner_check.is_spanner g r.spanner ~k:2)
  done

let test_weighted_ratio_vs_exact () =
  for seed = 0 to 4 do
    let g = Generators.gnp_connected (Rng.create (70 + seed)) 8 0.5 in
    let w = Generators.random_weights (Rng.create seed) g ~max_weight:4 in
    let r = C.Weighted_two_spanner.run ~rng:(Rng.create seed) g w in
    let opt = Weights.cost w (C.Exact.min_weighted_2_spanner g w) in
    let delta = float_of_int (Ugraph.max_degree g) in
    let bound = 16.0 *. (Float.log delta /. Float.log 2.0 +. 3.0) in
    check "O(log delta) ratio" true (r.cost <= bound *. opt +. 1e-9)
  done

let test_weighted_unit_weights_match_unweighted_family () =
  (* With unit weights the weighted algorithm is still a valid
     2-spanner builder of comparable size. *)
  let g = Generators.complete 15 in
  let r = C.Weighted_two_spanner.run ~rng:(Rng.create 4) g (Weights.uniform 1.0) in
  check "valid" true (C.Spanner_check.is_spanner g r.spanner ~k:2);
  check "compresses" true (Edge.Set.cardinal r.spanner < Ugraph.m g)

let prop_weighted_always_valid =
  QCheck.Test.make ~name:"weighted 2-spanner always valid" ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Generators.gnp_connected rng 20 0.3 in
      let w =
        Generators.random_weights_with_zeros rng g ~zero_fraction:0.2
          ~max_weight:6
      in
      let r = C.Weighted_two_spanner.run ~rng:(Rng.create (seed + 1)) g w in
      C.Spanner_check.is_spanner g r.spanner ~k:2)

(* ------------------------------------------------------------------ *)
(* Client-server *)

let cs_instance seed n p =
  let rng = Rng.create seed in
  let g = Generators.gnp_connected rng n p in
  let clients, servers =
    Generators.random_client_server rng g ~client_fraction:0.6
      ~server_fraction:0.7
  in
  (g, clients, servers)

let test_cs_covers_coverable () =
  for seed = 0 to 4 do
    let g, clients, servers = cs_instance (80 + seed) 40 0.2 in
    let r = C.Client_server.run ~rng:(Rng.create seed) g ~clients ~servers in
    check "spanner uses servers only" true (Edge.Set.subset r.spanner servers);
    check "covers the coverable" true
      (C.Spanner_check.is_spanner_of_targets ~n:(Ugraph.n g)
         ~targets:(Edge.Set.diff clients r.uncoverable)
         r.spanner ~k:2)
  done

let test_cs_uncoverable_reported_correctly () =
  let g, clients, servers = cs_instance 99 30 0.15 in
  let r = C.Client_server.run ~rng:(Rng.create 1) g ~clients ~servers in
  (* Each reported uncoverable edge really has no server cover. *)
  Edge.Set.iter
    (fun e ->
      check "not in servers" false (Edge.Set.mem e servers);
      check "no server 2-path" false
        (C.Spanner_check.is_spanner_of_targets ~n:(Ugraph.n g)
           ~targets:(Edge.Set.singleton e) servers ~k:2))
    r.uncoverable

let test_cs_all_edges_both_reduces_to_plain () =
  let g = Generators.complete 12 in
  let all = Ugraph.edge_set g in
  let r = C.Client_server.run ~rng:(Rng.create 2) g ~clients:all ~servers:all in
  check_int "no uncoverable" 0 (Edge.Set.cardinal r.uncoverable);
  check "valid plain 2-spanner" true
    (C.Spanner_check.is_spanner g r.spanner ~k:2)

let test_cs_disjoint_clients_servers () =
  (* Clients are a perfect matching; servers form a star that covers
     them all. *)
  let edges = [ (0, 1); (2, 3); (4, 0); (4, 1); (4, 2); (4, 3) ] in
  let g = Ugraph.of_edges ~n:5 edges in
  let clients = Edge.Set.of_list [ Edge.make 0 1; Edge.make 2 3 ] in
  let servers =
    Edge.Set.of_list
      [ Edge.make 4 0; Edge.make 4 1; Edge.make 4 2; Edge.make 4 3 ]
  in
  let r = C.Client_server.run ~rng:(Rng.create 3) g ~clients ~servers in
  check_int "all coverable" 0 (Edge.Set.cardinal r.uncoverable);
  check "covered through the star" true
    (C.Spanner_check.is_spanner_of_targets ~n:5 ~targets:clients r.spanner ~k:2)

let test_cs_edge_in_no_class () =
  (* An edge that is neither client nor server is simply ignored. *)
  let g = Generators.complete 4 in
  let clients = Edge.Set.singleton (Edge.make 0 1) in
  let servers = Edge.Set.of_list [ Edge.make 0 2; Edge.make 1 2 ] in
  let r = C.Client_server.run g ~clients ~servers in
  check "covered" true
    (C.Spanner_check.is_spanner_of_targets ~n:4 ~targets:clients r.spanner ~k:2);
  check "spanner within servers" true (Edge.Set.subset r.spanner servers)

let test_cs_ratio_bound_display () =
  let g, clients, servers = cs_instance 123 30 0.3 in
  check "positive bound" true
    (C.Client_server.ratio_bound g ~clients ~servers > 0.0)

let prop_cs_always_covers_coverable =
  QCheck.Test.make ~name:"client-server covers every coverable client"
    ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g, clients, servers = cs_instance seed 20 0.3 in
      let r = C.Client_server.run ~rng:(Rng.create (seed + 1)) g ~clients ~servers in
      C.Spanner_check.is_spanner_of_targets ~n:(Ugraph.n g)
        ~targets:(Edge.Set.diff clients r.uncoverable)
        r.spanner ~k:2)

let () =
  Alcotest.run "variants"
    [
      ( "directed",
        [
          Alcotest.test_case "valid" `Quick test_directed_valid;
          Alcotest.test_case "bidirected clique" `Quick
            test_directed_bidirected_complete_quality;
          Alcotest.test_case "antiparallel" `Quick
            test_directed_antiparallel_pair;
          Alcotest.test_case "ratio vs exact" `Quick
            test_directed_ratio_vs_exact;
          Alcotest.test_case "golden" `Quick test_directed_golden;
          QCheck_alcotest.to_alcotest prop_directed_always_valid;
        ] );
      ( "weighted",
        [
          Alcotest.test_case "valid and cost" `Quick
            test_weighted_valid_and_cost;
          Alcotest.test_case "all zero" `Quick test_weighted_zero_edges_free;
          Alcotest.test_case "prefers cheap" `Quick
            test_weighted_prefers_cheap_star;
          Alcotest.test_case "zero mix" `Quick test_weighted_zero_mix;
          Alcotest.test_case "ratio vs exact" `Quick
            test_weighted_ratio_vs_exact;
          Alcotest.test_case "unit weights" `Quick
            test_weighted_unit_weights_match_unweighted_family;
          QCheck_alcotest.to_alcotest prop_weighted_always_valid;
        ] );
      ( "client_server",
        [
          Alcotest.test_case "covers coverable" `Quick test_cs_covers_coverable;
          Alcotest.test_case "uncoverable reported" `Quick
            test_cs_uncoverable_reported_correctly;
          Alcotest.test_case "reduces to plain" `Quick
            test_cs_all_edges_both_reduces_to_plain;
          Alcotest.test_case "matching clients" `Quick
            test_cs_disjoint_clients_servers;
          Alcotest.test_case "untyped edges ignored" `Quick
            test_cs_edge_in_no_class;
          Alcotest.test_case "ratio bound" `Quick test_cs_ratio_bound_display;
          QCheck_alcotest.to_alcotest prop_cs_always_covers_coverable;
        ] );
    ]
