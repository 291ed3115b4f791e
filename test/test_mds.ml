(* Tests for the CONGEST minimum dominating set algorithm of Section 5
   (Theorem 5.1). *)

open Grapho
module C = Spanner_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let families =
  [
    ("path_25", Generators.path 25);
    ("cycle_24", Generators.cycle 24);
    ("star_40", Generators.star 40);
    ("complete_20", Generators.complete 20);
    ("grid_7x7", Generators.grid 7 7);
    ("gnp_80", Generators.gnp_connected (Rng.create 2) 80 0.08);
    ("pa_100", Generators.preferential_attachment (Rng.create 3) 100 3);
    ("tree_60", Generators.random_tree (Rng.create 4) 60);
  ]

let test_dominates_on_families () =
  List.iter
    (fun (name, g) ->
      let r = C.Mds.run ~rng:(Rng.create 7) g in
      check (name ^ " dominates") true
        (C.Mds.is_dominating_set g r.dominating_set))
    families

let test_star_optimal () =
  let g = Generators.star 30 in
  let r = C.Mds.run ~rng:(Rng.create 1) g in
  check_int "single center" 1 (List.length r.dominating_set);
  check_int "center is 0" 0 (List.hd r.dominating_set)

let test_complete_small () =
  let g = Generators.complete 25 in
  let r = C.Mds.run ~rng:(Rng.create 2) g in
  check "at most a few" true (List.length r.dominating_set <= 3)

let test_isolated_vertices_self_dominate () =
  let g = Ugraph.empty 6 in
  let r = C.Mds.run g in
  check_int "everyone joins" 6 (List.length r.dominating_set)

let test_congest_compliance () =
  let g = Generators.gnp_connected (Rng.create 5) 120 0.06 in
  let r = C.Mds.run ~rng:(Rng.create 6) g in
  check_int "no oversized messages" 0 r.metrics.congest_violations;
  (match Distsim.Model.bandwidth (Distsim.Model.congest ~n:120 ~c:8 ()) with
  | Some limit -> check "max bits within budget" true
      (r.metrics.max_message_bits <= limit)
  | None -> Alcotest.fail "congest model must bound bandwidth")

let test_round_bound_plausible () =
  (* O(log n log Delta) with a generous constant. *)
  List.iter
    (fun (_, g) ->
      let r = C.Mds.run ~rng:(Rng.create 8) g in
      let log2 x = Float.log (float_of_int (max 2 x)) /. Float.log 2.0 in
      let bound =
        60.0 *. (log2 (Ugraph.n g) +. 2.0)
        *. (log2 (Ugraph.max_degree g) +. 2.0)
      in
      check "rounds bounded" true (float_of_int r.metrics.rounds <= bound))
    families

let test_ratio_vs_exact_small () =
  for seed = 0 to 5 do
    let g = Generators.gnp_connected (Rng.create (20 + seed)) 14 0.25 in
    let r = C.Mds.run ~rng:(Rng.create seed) g in
    let opt = List.length (C.Exact.min_dominating_set g) in
    let delta = Ugraph.max_degree g in
    let bound =
      16.0 *. (Float.log (float_of_int (delta + 2)) /. Float.log 2.0 +. 1.0)
    in
    check "O(log delta) vs optimum" true
      (float_of_int (List.length r.dominating_set)
      <= bound *. float_of_int opt)
  done

let test_greedy_baseline () =
  List.iter
    (fun (name, g) ->
      let d = C.Mds.greedy g in
      check (name ^ " greedy dominates") true (C.Mds.is_dominating_set g d))
    families;
  check_int "greedy star" 1 (List.length (C.Mds.greedy (Generators.star 20)))

let test_deterministic_with_seed () =
  let g = Generators.gnp_connected (Rng.create 9) 50 0.1 in
  let a = C.Mds.run ~rng:(Rng.create 3) g in
  let b = C.Mds.run ~rng:(Rng.create 3) g in
  check "same set" true (a.dominating_set = b.dominating_set)

let test_is_dominating_set_detects_gap () =
  let g = Generators.path 5 in
  check "partial set rejected" false (C.Mds.is_dominating_set g [ 0 ]);
  check "full check passes" true (C.Mds.is_dominating_set g [ 1; 3 ])

let test_reference_mirror_equal () =
  (* Section 5 analogue of the E13 validation: the centralized mirror
     consumes the same randomness and must elect the same set. *)
  List.iter
    (fun (name, g) ->
      List.iter
        (fun seed ->
          let a = (C.Mds.run ~rng:(Rng.create seed) g).dominating_set in
          let b = C.Mds.reference ~rng:(Rng.create seed) g in
          check (Printf.sprintf "%s seed %d" name seed) true (a = b))
        [ 1; 2 ])
    families

let prop_reference_mirror =
  QCheck.Test.make ~name:"MDS protocol = centralized mirror" ~count:15
    QCheck.(
      set_shrink Shrink.nil (pair (int_range 1 30) (int_range 0 10_000)))
    (fun (n, seed) ->
      let g = Generators.gnp (Rng.create seed) n 0.2 in
      (C.Mds.run ~rng:(Rng.create seed) g).dominating_set
      = C.Mds.reference ~rng:(Rng.create seed) g)

let prop_mds_always_dominates =
  QCheck.Test.make ~name:"MDS output always dominates" ~count:25
    QCheck.(
      set_shrink Shrink.nil (pair (int_range 1 40) (int_range 0 10_000)))
    (fun (n, seed) ->
      let g = Generators.gnp (Rng.create seed) n 0.15 in
      let r = C.Mds.run ~rng:(Rng.create (seed + 1)) g in
      C.Mds.is_dominating_set g r.dominating_set)

let prop_mds_never_larger_than_n =
  QCheck.Test.make ~name:"MDS is at most greedy times O(log)" ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = Generators.gnp_connected (Rng.create seed) 30 0.15 in
      let r = C.Mds.run ~rng:(Rng.create (seed + 1)) g in
      List.length r.dominating_set <= Ugraph.n g)

let () =
  Alcotest.run "mds"
    [
      ( "correctness",
        [
          Alcotest.test_case "families" `Quick test_dominates_on_families;
          Alcotest.test_case "star optimal" `Quick test_star_optimal;
          Alcotest.test_case "complete" `Quick test_complete_small;
          Alcotest.test_case "isolated" `Quick
            test_isolated_vertices_self_dominate;
          Alcotest.test_case "detects gap" `Quick
            test_is_dominating_set_detects_gap;
        ] );
      ( "model",
        [
          Alcotest.test_case "congest compliant" `Quick test_congest_compliance;
          Alcotest.test_case "round bound" `Quick test_round_bound_plausible;
          Alcotest.test_case "deterministic" `Quick test_deterministic_with_seed;
        ] );
      ( "quality",
        [
          Alcotest.test_case "ratio vs exact" `Quick test_ratio_vs_exact_small;
          Alcotest.test_case "greedy baseline" `Quick test_greedy_baseline;
          Alcotest.test_case "mirror equality" `Quick
            test_reference_mirror_equal;
          QCheck_alcotest.to_alcotest prop_reference_mirror;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_mds_always_dominates; prop_mds_never_larger_than_n ] );
    ]
