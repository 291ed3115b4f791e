(* Tests for the LOCAL-model machinery: network decomposition
   (Linial-Saks) and the (1+eps)-approximation of Section 6
   (Theorem 1.2). *)

open Grapho
module C = Spanner_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Decomposition *)

let test_decomposition_valid_on_families () =
  List.iter
    (fun (name, g) ->
      let d = C.Decomposition.run ~rng:(Rng.create 3) g in
      check (name ^ " valid") true (C.Decomposition.check g d))
    [
      ("path", Generators.path 30);
      ("cycle", Generators.cycle 25);
      ("gnp", Generators.gnp_connected (Rng.create 1) 60 0.08);
      ("grid", Generators.grid 6 6);
      ("complete", Generators.complete 15);
      ("tree", Generators.random_tree (Rng.create 2) 50);
    ]

let test_decomposition_all_clustered () =
  let g = Generators.gnp_connected (Rng.create 4) 70 0.05 in
  let d = C.Decomposition.run ~rng:(Rng.create 5) g in
  Array.iter (fun c -> check "colored" true (c >= 0)) d.color;
  Array.iter (fun l -> check "has leader" true (l >= 0)) d.leader

let test_decomposition_color_count_logarithmic () =
  let g = Generators.gnp_connected (Rng.create 6) 100 0.05 in
  let d = C.Decomposition.run ~rng:(Rng.create 7) g in
  check "few colors" true (d.colors <= 25)

let test_decomposition_same_color_nonadjacent () =
  let g = Generators.gnp_connected (Rng.create 8) 50 0.1 in
  let d = C.Decomposition.run ~rng:(Rng.create 9) g in
  Ugraph.iter_edges
    (fun e ->
      let u, v = Edge.endpoints e in
      if d.color.(u) = d.color.(v) then
        check "same cluster" true (d.leader.(u) = d.leader.(v)))
    g

let test_decomposition_singleton_graph () =
  let g = Ugraph.empty 3 in
  let d = C.Decomposition.run g in
  check "valid" true (C.Decomposition.check g d);
  check "handful of colors" true (d.colors >= 1 && d.colors <= 6)

let test_clusters_of_color_partition () =
  let g = Generators.gnp_connected (Rng.create 10) 40 0.1 in
  let d = C.Decomposition.run ~rng:(Rng.create 11) g in
  let total = ref 0 in
  for c = 0 to d.colors - 1 do
    List.iter
      (fun members -> total := !total + List.length members)
      (C.Decomposition.clusters_of_color d c)
  done;
  check_int "partition" (Ugraph.n g) !total

let test_weak_diameter () =
  let g = Generators.path 10 in
  check_int "path ends" 9 (C.Decomposition.weak_diameter g [ 0; 9 ]);
  check_int "empty" 0 (C.Decomposition.weak_diameter g [])

let prop_decomposition_valid =
  QCheck.Test.make ~name:"decomposition always valid" ~count:15
    QCheck.(
      set_shrink Shrink.nil (pair (int_range 1 40) (int_range 0 10_000)))
    (fun (n, seed) ->
      let g = Generators.gnp (Rng.create seed) n 0.15 in
      let d = C.Decomposition.run ~rng:(Rng.create (seed + 1)) g in
      C.Decomposition.check g d)

let test_decomposition_custom_parameters () =
  let g = Generators.gnp_connected (Rng.create 12) 40 0.1 in
  List.iter
    (fun (p, cap) ->
      let d = C.Decomposition.run ~rng:(Rng.create 13) ~p ~radius_cap:cap g in
      check "valid under params" true (C.Decomposition.check g d))
    [ (0.3, 4); (0.7, 10); (0.5, 2) ]

let test_randomness_deterministic () =
  let a = C.Randomness.vote_value ~seed:5 ~vertex:7 ~iteration:3 ~bound:1000 in
  let b = C.Randomness.vote_value ~seed:5 ~vertex:7 ~iteration:3 ~bound:1000 in
  check_int "reproducible" a b;
  check "in range" true (a >= 1 && a <= 1000);
  let c = C.Randomness.vote_value ~seed:5 ~vertex:8 ~iteration:3 ~bound:1000 in
  let d = C.Randomness.vote_value ~seed:5 ~vertex:7 ~iteration:4 ~bound:1000 in
  (* overwhelmingly distinct across coordinates *)
  check "varies" true (a <> c || a <> d);
  check "bound helper" true (C.Randomness.vote_bound ~n:10 >= 10_000)

(* ------------------------------------------------------------------ *)
(* Epsilon spanner *)

let small_instances =
  [
    ("K7", Generators.complete 7, 2);
    ("gnp10_k2", Generators.gnp_connected (Rng.create 1) 10 0.4, 2);
    ("gnp10_k3", Generators.gnp_connected (Rng.create 2) 10 0.35, 3);
    ("cycle8_k4", Generators.cycle 8, 4);
    ("grid3x3_k2", Generators.grid 3 3, 2);
  ]

let test_eps_valid_spanner () =
  List.iter
    (fun (name, g, k) ->
      let r = C.Epsilon_spanner.run ~rng:(Rng.create 5) ~epsilon:0.5 ~k g in
      check (name ^ " valid") true (C.Spanner_check.is_spanner g r.spanner ~k))
    small_instances

let test_eps_near_optimal () =
  List.iter
    (fun (name, g, k) ->
      let r = C.Epsilon_spanner.run ~rng:(Rng.create 6) ~epsilon:0.25 ~k g in
      let opt =
        match
          C.Exact.min_k_spanner ~targets:(Ugraph.edge_set g)
            ~usable:(Ugraph.edge_set g) ~n:(Ugraph.n g) ~k ()
        with
        | Some s -> Edge.Set.cardinal s
        | None -> Alcotest.fail "spanner must exist"
      in
      check
        (name ^ " within 1+eps")
        true
        (float_of_int (Edge.Set.cardinal r.spanner)
        <= (1.25 *. float_of_int opt) +. 1e-9))
    small_instances

let test_eps_tight_epsilon_is_optimal () =
  (* With eps small enough on a tiny instance, the result is optimal. *)
  let g = Generators.gnp_connected (Rng.create 3) 9 0.5 in
  let r = C.Epsilon_spanner.run ~rng:(Rng.create 7) ~epsilon:0.05 ~k:2 g in
  let opt = C.Exact.min_2_spanner_size g in
  check "optimal" true (Edge.Set.cardinal r.spanner <= opt)

let test_eps_rejects_bad_arguments () =
  let g = Generators.path 3 in
  check "eps<=0" true
    (try ignore (C.Epsilon_spanner.run ~epsilon:0.0 ~k:2 g); false
     with Invalid_argument _ -> true);
  check "k<1" true
    (try ignore (C.Epsilon_spanner.run ~epsilon:0.5 ~k:0 g); false
     with Invalid_argument _ -> true)

let test_eps_rounds_reported () =
  let g = Generators.complete 6 in
  let r = C.Epsilon_spanner.run ~rng:(Rng.create 8) ~epsilon:0.5 ~k:2 g in
  check "positive accounting" true (r.rounds > 0 && r.colors >= 1 && r.r >= 1)

let prop_eps_always_valid =
  QCheck.Test.make ~name:"(1+eps) result is always a k-spanner" ~count:8
    QCheck.(
      set_shrink Shrink.nil (pair (int_range 2 3) (int_range 0 10_000)))
    (fun (k, seed) ->
      let g = Generators.gnp_connected (Rng.create seed) 9 0.4 in
      let r =
        C.Epsilon_spanner.run ~rng:(Rng.create (seed + 1)) ~epsilon:0.5 ~k g
      in
      C.Spanner_check.is_spanner g r.spanner ~k)

let () =
  Alcotest.run "local_model"
    [
      ( "decomposition",
        [
          Alcotest.test_case "valid" `Quick test_decomposition_valid_on_families;
          Alcotest.test_case "all clustered" `Quick
            test_decomposition_all_clustered;
          Alcotest.test_case "few colors" `Quick
            test_decomposition_color_count_logarithmic;
          Alcotest.test_case "same color nonadjacent" `Quick
            test_decomposition_same_color_nonadjacent;
          Alcotest.test_case "no edges" `Quick test_decomposition_singleton_graph;
          Alcotest.test_case "partition" `Quick test_clusters_of_color_partition;
          Alcotest.test_case "weak diameter" `Quick test_weak_diameter;
          QCheck_alcotest.to_alcotest prop_decomposition_valid;
          Alcotest.test_case "custom parameters" `Quick
            test_decomposition_custom_parameters;
          Alcotest.test_case "shared randomness" `Quick
            test_randomness_deterministic;
        ] );
      ( "epsilon",
        [
          Alcotest.test_case "valid" `Quick test_eps_valid_spanner;
          Alcotest.test_case "near optimal" `Quick test_eps_near_optimal;
          Alcotest.test_case "tight epsilon" `Quick
            test_eps_tight_epsilon_is_optimal;
          Alcotest.test_case "bad arguments" `Quick test_eps_rejects_bad_arguments;
          Alcotest.test_case "rounds reported" `Quick test_eps_rounds_reported;
          QCheck_alcotest.to_alcotest prop_eps_always_valid;
        ] );
    ]
