(* Experiment harness.

   The paper (Censor-Hillel & Dory, PODC 2018) is a theory paper: its
   "evaluation" is a set of theorems and three constructions (Figures
   1-3). Each experiment below regenerates the quantitative content of
   one of them -- measured approximation ratios and round counts for
   the algorithmic theorems, machine-checked construction properties
   and bound curves for the hardness theorems. EXPERIMENTS.md records
   paper-vs-measured for each. Run with a list of experiment ids
   (e.g. `dune exec bench/main.exe -- e1 e8`) or nothing for all;
   `micro` appends the Bechamel micro-benchmarks. *)

(* Report formatting, graph families, anchors, timing helpers and the
   --json/--trace writer live in Harness (bench/harness.ml). *)
open Grapho
open Harness
module C = Spanner_core
module L = Lowerbound

(* ------------------------------------------------------------------ *)

let e1 () =
  section "E1" "Theorem 1.3: 2-spanner approximation ratio vs O(log m/n)";
  printf "%-18s %5s %6s %6s %7s %7s %9s %8s\n" "family" "n" "m" "dist"
    "greedy" "d/g" "log2(m/n)" "bound";
  List.iter
    (fun (name, g) ->
      let d = C.Two_spanner.run ~rng:(rng 11) g in
      let gr = C.Kp_greedy.run g in
      let ds = Edge.Set.cardinal d.spanner
      and gs = Edge.Set.cardinal gr.spanner in
      assert (C.Spanner_check.is_spanner g d.spanner ~k:2);
      printf "%-18s %5d %6d %6d %7d %7.2f %9.2f %8.1f\n" name (Ugraph.n g)
        (Ugraph.m g) ds gs
        (float_of_int ds /. float_of_int (max 1 gs))
        (log2 (float_of_int (Ugraph.m g) /. float_of_int (Ugraph.n g)))
        (C.Two_spanner.ratio_bound g))
    (ratio_families ());
  printf "\nsmall instances vs exact optimum:\n";
  printf "%-10s %3s %4s %5s %6s %6s %7s\n" "instance" "n" "m" "opt" "dist"
    "greedy" "ratio";
  for seed = 0 to 4 do
    let g = Generators.gnp_connected (rng (100 + seed)) 10 0.45 in
    let opt = C.Exact.min_2_spanner_size g in
    let d = Edge.Set.cardinal (C.Two_spanner.run ~rng:(rng seed) g).spanner in
    let gr = Edge.Set.cardinal (C.Kp_greedy.run g).spanner in
    printf "%-10s %3d %4d %5d %6d %6d %7.2f\n"
      (Printf.sprintf "gnp#%d" seed)
      (Ugraph.n g) (Ugraph.m g) opt d gr
      (float_of_int d /. float_of_int opt)
  done

let e2 () =
  section "E2" "Theorem 1.3: rounds vs O(log n log Delta)";
  printf "%-16s %5s %6s %6s %6s %7s %17s\n" "family" "n" "m" "Delta" "iters"
    "rounds" "log2(n)*log2(D)";
  let sweep =
    List.concat_map
      (fun n ->
        [
          ( Printf.sprintf "gnp_dense_%d" n,
            Generators.gnp_connected (rng n) n (40.0 /. float_of_int n) );
          ( Printf.sprintf "ladder_%d" n,
            Generators.clique_ladder (rng (n + 1)) n );
          ( Printf.sprintf "pa_%d" n,
            Generators.preferential_attachment (rng (n + 2)) n 15 );
        ])
      [ 100; 200; 400; 800 ]
  in
  List.iter
    (fun (name, g) ->
      let d = C.Two_spanner.run ~rng:(rng 21) g in
      printf "%-16s %5d %6d %6d %6d %7d %17.1f\n" name (Ugraph.n g)
        (Ugraph.m g) (Ugraph.max_degree g) d.iterations d.rounds
        (flog2 (Ugraph.n g) *. flog2 (Ugraph.max_degree g)))
    sweep

let e3 () =
  section "E3" "Theorem 4.9: directed 2-spanner (2-approx densest star)";
  printf "%-18s %5s %6s %6s %6s %7s\n" "family" "n" "m" "size" "iters" "valid";
  List.iter
    (fun (name, dg) ->
      let r = C.Directed_two_spanner.run ~rng:(rng 31) dg in
      printf "%-18s %5d %6d %6d %6d %7b\n" name (Dgraph.n dg) (Dgraph.m dg)
        (Edge.Directed.Set.cardinal r.spanner)
        r.iterations
        (C.Spanner_check.is_directed_spanner dg r.spanner ~k:2))
    [
      ("bidirect_K25", Generators.bidirect (Generators.complete 25));
      ( "bidirect_caveman",
        Generators.bidirect (Generators.caveman (rng 1) 6 7 0.03) );
      ( "orient_gnp_120",
        Generators.random_orientation (rng 2)
          (Generators.gnp_connected (rng 3) 120 0.1) );
      ( "dag_gnp_100",
        Generators.random_dag_orientation
          (Generators.gnp_connected (rng 4) 100 0.12) );
    ];
  printf "\nsmall instances vs exact optimum:\n";
  printf "%-10s %4s %5s %6s %7s\n" "instance" "m" "opt" "dist" "ratio";
  for seed = 0 to 4 do
    let dg =
      Generators.bidirect (Generators.gnp_connected (rng (40 + seed)) 8 0.5)
    in
    let opt =
      Edge.Directed.Set.cardinal (C.Exact.min_directed_k_spanner dg ~k:2)
    in
    let d =
      Edge.Directed.Set.cardinal
        (C.Directed_two_spanner.run ~rng:(rng seed) dg).spanner
    in
    printf "%-10s %4d %5d %6d %7.2f\n"
      (Printf.sprintf "bidir#%d" seed)
      (Dgraph.m dg) opt d
      (float_of_int d /. float_of_int opt)
  done

let e4 () =
  section "E4" "Theorem 4.12: weighted 2-spanner, O(log Delta) ratio";
  printf "%-16s %5s %6s %3s %9s %9s %7s %10s\n" "family" "n" "W" "D"
    "dist-cost" "greedy" "d/g" "8(log2D+3)";
  List.iter
    (fun (name, g, max_weight, zero_fraction) ->
      let w =
        Generators.random_weights_with_zeros (rng 41) g ~zero_fraction
          ~max_weight
      in
      let d = C.Weighted_two_spanner.run ~rng:(rng 42) g w in
      let gr = C.Kp_greedy.run ~weights:w g in
      assert (C.Spanner_check.is_spanner g d.spanner ~k:2);
      let delta = Ugraph.max_degree g in
      printf "%-16s %5d %6.0f %3d %9.0f %9.0f %7.2f %10.1f\n" name
        (Ugraph.n g) (Weights.ratio w g) delta d.cost gr.cost
        (d.cost /. Float.max 1.0 gr.cost)
        (8.0 *. (flog2 delta +. 3.0)))
    [
      ("complete_30", Generators.complete 30, 16, 0.0);
      ("caveman", Generators.caveman (rng 5) 7 7 0.03, 8, 0.1);
      ("gnp_100", Generators.gnp_connected (rng 6) 100 0.2, 32, 0.2);
      ("pa_150", Generators.preferential_attachment (rng 7) 150 8, 64, 0.0);
    ];
  printf "\nrounds vs O(log n log (Delta W)) as W grows (gnp_100):\n";
  printf "%6s %6s %7s %20s\n" "W" "iters" "rounds" "log2(n)*log2(D*W)";
  let g = Generators.gnp_connected (rng 8) 100 0.2 in
  List.iter
    (fun max_weight ->
      let w = Generators.random_weights (rng 43) g ~max_weight in
      let d = C.Weighted_two_spanner.run ~rng:(rng 44) g w in
      printf "%6d %6d %7d %20.1f\n" max_weight d.iterations d.rounds
        (flog2 100 *. flog2 (Ugraph.max_degree g * max_weight)))
    [ 1; 4; 16; 64; 256 ]

let e5 () =
  section "E5" "Theorem 4.15: client-server 2-spanner";
  printf "%-12s %5s %5s %5s %6s %7s %7s %12s %8s\n" "family" "|C|" "|S|"
    "unc" "dist" "greedy" "d/g" "log|C|/|VC|" "log2 Ds";
  for seed = 0 to 4 do
    let g = Generators.gnp_connected (rng (50 + seed)) 80 0.15 in
    let clients, servers =
      Generators.random_client_server (rng (60 + seed)) g
        ~client_fraction:0.6 ~server_fraction:0.7
    in
    let d = C.Client_server.run ~rng:(rng seed) g ~clients ~servers in
    let gr = C.Kp_greedy.run ~targets:clients ~usable:servers g in
    let module Iset = Set.Make (Int) in
    let vc =
      Edge.Set.fold
        (fun e acc ->
          let u, v = Edge.endpoints e in
          Iset.add u (Iset.add v acc))
        clients Iset.empty
    in
    let delta_s =
      Ugraph.fold_vertices
        (fun v acc ->
          let deg =
            Ugraph.fold_neighbors
              (fun a u ->
                if Edge.Set.mem (Edge.make v u) servers then a + 1 else a)
              g v 0
          in
          max acc deg)
        g 0
    in
    printf "%-12s %5d %5d %5d %6d %7d %7.2f %12.2f %8.2f\n"
      (Printf.sprintf "gnp80#%d" seed)
      (Edge.Set.cardinal clients) (Edge.Set.cardinal servers)
      (Edge.Set.cardinal d.uncoverable)
      (Edge.Set.cardinal d.spanner)
      (Edge.Set.cardinal gr.spanner)
      (float_of_int (Edge.Set.cardinal d.spanner)
      /. float_of_int (max 1 (Edge.Set.cardinal gr.spanner)))
      (log2
         (float_of_int (Edge.Set.cardinal clients)
         /. float_of_int (max 1 (Iset.cardinal vc))))
      (flog2 delta_s)
  done

let e6 () =
  section "E6" "Theorem 5.1: CONGEST MDS, guaranteed O(log Delta)";
  printf "%-14s %5s %4s %5s %7s %6s %7s %8s %6s\n" "family" "n" "D" "|DS|"
    "greedy" "iters" "rounds" "max-bits" "B(n)";
  List.iter
    (fun (name, g) ->
      let r = C.Mds.run ~rng:(rng 61) g in
      let greedy = C.Mds.greedy g in
      assert (C.Mds.is_dominating_set g r.dominating_set);
      assert (r.metrics.congest_violations = 0);
      let budget =
        match
          Distsim.Model.bandwidth
            (Distsim.Model.congest ~n:(max 2 (Ugraph.n g)) ~c:8 ())
        with
        | Some b -> b
        | None -> -1
      in
      printf "%-14s %5d %4d %5d %7d %6d %7d %8d %6d\n" name (Ugraph.n g)
        (Ugraph.max_degree g)
        (List.length r.dominating_set)
        (List.length greedy) r.iterations r.metrics.rounds
        r.metrics.max_message_bits budget)
    [
      ("path_200", Generators.path 200);
      ("grid_15x15", Generators.grid 15 15);
      ("gnp_300", Generators.gnp_connected (rng 1) 300 0.03);
      ("pa_400_5", Generators.preferential_attachment (rng 2) 400 5);
      ("caveman", Generators.caveman (rng 3) 10 8 0.05);
      ("star_300", Generators.star 300);
    ];
  printf "\nsmall instances vs exact optimum:\n";
  printf "%-8s %4s %5s %6s %7s\n" "inst" "opt" "dist" "greedy" "ratio";
  for seed = 0 to 4 do
    let g = Generators.gnp_connected (rng (70 + seed)) 14 0.25 in
    let opt = List.length (C.Exact.min_dominating_set g) in
    let d = List.length (C.Mds.run ~rng:(rng seed) g).dominating_set in
    let gr = List.length (C.Mds.greedy g) in
    printf "%-8s %4d %5d %6d %7.2f\n"
      (Printf.sprintf "gnp#%d" seed)
      opt d gr
      (float_of_int d /. float_of_int opt)
  done;
  (* Mirror validation, asserted silently here (tested at length in
     the suite). *)
  let gm = Generators.gnp_connected (rng 64) 60 0.1 in
  assert (
    (C.Mds.run ~rng:(rng 65) gm).dominating_set
    = C.Mds.reference ~rng:(rng 65) gm);
  printf
    "\nvoting (guaranteed, Section 5) vs Jia-et-al coin (expected, [43]):\n";
  printf "%-12s %7s %7s %11s %11s\n" "family" "votes" "coin" "votes-iters"
    "coin-iters";
  List.iter
    (fun (name, g) ->
      let a = C.Mds.run ~rng:(rng 62) g in
      let b = C.Mds.run ~rng:(rng 63) ~selection:(C.Mds.Coin 0.5) g in
      assert (C.Mds.is_dominating_set g b.dominating_set);
      printf "%-12s %7d %7d %11d %11d\n" name
        (List.length a.dominating_set)
        (List.length b.dominating_set)
        a.iterations b.iterations)
    [
      ("grid_12x12", Generators.grid 12 12);
      ("gnp_200", Generators.gnp_connected (rng 4) 200 0.05);
      ("pa_300_4", Generators.preferential_attachment (rng 5) 300 4);
    ]

let e7 () =
  section "E7" "Theorem 1.2: (1+eps)-approximate k-spanner in LOCAL";
  printf "%-12s %2s %5s %4s %6s %9s %6s %6s\n" "instance" "k" "eps" "opt"
    "result" "(1+e)*opt" "colors" "balls";
  List.iter
    (fun (name, g, k) ->
      List.iter
        (fun epsilon ->
          let r = C.Epsilon_spanner.run ~rng:(rng 71) ~epsilon ~k g in
          let opt =
            match
              C.Exact.min_k_spanner ~targets:(Ugraph.edge_set g)
                ~usable:(Ugraph.edge_set g) ~n:(Ugraph.n g) ~k ()
            with
            | Some s -> Edge.Set.cardinal s
            | None -> -1
          in
          assert (C.Spanner_check.is_spanner g r.spanner ~k);
          printf "%-12s %2d %5.2f %4d %6d %9.1f %6d %6d\n" name k epsilon opt
            (Edge.Set.cardinal r.spanner)
            ((1.0 +. epsilon) *. float_of_int opt)
            r.colors r.balls_processed)
        [ 0.5; 0.25 ])
    [
      ("K8", Generators.complete 8, 2);
      ("gnp11_k2", Generators.gnp_connected (rng 1) 11 0.4, 2);
      ("gnp11_k3", Generators.gnp_connected (rng 2) 11 0.35, 3);
      ("cycle9_k4", Generators.cycle 9, 4);
    ];
  printf "\nweighted variant (closing remark of Section 6):\n";
  printf "%-10s %5s %8s %8s %10s\n" "instance" "eps" "opt" "result"
    "(1+e)*opt";
  for seed = 0 to 2 do
    let g = Generators.gnp_connected (rng (72 + seed)) 9 0.45 in
    let w = Generators.random_weights (rng seed) g ~max_weight:4 in
    let r = C.Epsilon_spanner.run ~rng:(rng 73) ~weights:w ~epsilon:0.25 ~k:2 g in
    let opt = Weights.cost w (C.Exact.min_weighted_2_spanner g w) in
    assert (r.cost <= (1.25 *. opt) +. 1e-9);
    printf "%-10s %5.2f %8.0f %8.0f %10.1f\n"
      (Printf.sprintf "wgnp#%d" seed)
      0.25 opt r.cost (1.25 *. opt)
  done

let e8 () =
  section "E8"
    "Figure 1 / Thms 1.1 & 2.8: directed k>=5 hardness construction";
  printf "checked on random inputs (disjoint / single-intersection / far):\n";
  printf "%-4s %-4s %6s %4s %8s %7s %8s %9s %7s\n" "l" "b" "n" "cut"
    "claim2.2" "nonD" "<=7lb" "forcedD" "b^2";
  List.iter
    (fun (ell, beta, kind, seed) ->
      let inputs =
        match kind with
        | `Disjoint ->
            L.Disjointness.random_disjoint (rng seed) ~n:(ell * ell)
              ~density:0.5
        | `Intersecting -> L.Disjointness.random_intersecting (rng seed) ~n:(ell * ell)
        | `Far -> L.Disjointness.random_far (rng seed) ~n:(ell * ell)
      in
      let t = L.Construction_g.build ~ell ~beta inputs in
      let claim = ref true in
      for i = 0 to ell - 1 do
        for r = 0 to ell - 1 do
          if not (L.Construction_g.check_claim_2_2 t ~i ~r) then claim := false
        done
      done;
      let non_d = L.Construction_g.non_d_edges t in
      assert (
        C.Spanner_check.is_directed_spanner t.graph
          (L.Construction_g.oracle_spanner t)
          ~k:5);
      printf "%-4d %-4d %6d %4d %8b %7d %8d %9d %7d\n" ell beta
        (L.Construction_g.n t)
        (List.length (L.Construction_g.cut_edges t))
        !claim
        (Edge.Directed.Set.cardinal non_d)
        (7 * ell * beta)
        (Edge.Directed.Set.cardinal (L.Construction_g.forced_d_edges t))
        (beta * beta))
    [
      (3, 4, `Disjoint, 1); (3, 4, `Intersecting, 2); (4, 3, `Far, 3);
      (4, 8, `Disjoint, 4); (4, 8, `Intersecting, 5); (5, 5, `Far, 6);
    ];
  printf "\nLemma 2.4 protocol executed end to end (parameters per Thm 1.1):\n";
  printf "%-6s %-5s %-5s %7s %9s %10s %8s\n" "alpha" "l" "b" "n" "spanner"
    "D-edges" "verdict";
  List.iter
    (fun (n', alpha, kind) ->
      let ell, beta = L.Construction_g.params_randomized ~n' ~alpha in
      let inputs =
        match kind with
        | `Disjoint ->
            L.Disjointness.random_disjoint (rng 7) ~n:(ell * ell) ~density:0.5
        | `Intersecting ->
            L.Disjointness.random_intersecting (rng 8) ~n:(ell * ell)
      in
      let t = L.Construction_g.build ~ell ~beta inputs in
      let spanner = L.Construction_g.oracle_spanner t in
      let verdict = L.Construction_g.decide_disjointness t ~spanner ~alpha in
      assert (verdict = L.Disjointness.is_disjoint inputs);
      printf "%-6.1f %-5d %-5d %7d %9d %10d %8s\n" alpha ell beta
        (L.Construction_g.n t)
        (Edge.Directed.Set.cardinal spanner)
        (Edge.Directed.Set.cardinal
           (Edge.Directed.Set.inter spanner t.d_edges))
        (if verdict then "disjoint" else "intersect"))
    [
      (300, 1.0, `Disjoint); (300, 1.0, `Intersecting);
      (800, 2.0, `Disjoint); (800, 2.0, `Intersecting);
    ];
  printf "\nround lower-bound curves (rows the theorems tabulate):\n";
  printf "%9s %8s | %14s %14s\n" "n" "alpha" "Thm1.1(rand)" "Thm2.8(det)";
  List.iter
    (fun n ->
      List.iter
        (fun alpha ->
          printf "%9d %8.0f | %14.1f %14.1f\n" n alpha
            (L.Bounds.thm_1_1_randomized ~n ~alpha)
            (L.Bounds.thm_2_8_deterministic ~n ~alpha))
        [ 1.0; 16.0; 256.0 ])
    [ 10_000; 100_000; 1_000_000 ]

let e9 () =
  section "E9" "Figure 2 / Thms 2.9 & 2.10: weighted hardness construction";
  printf "%-4s %-12s %5s %4s %17s %9s\n" "l" "inputs" "n" "cut"
    "zero-cost-4span" "disjoint";
  List.iter
    (fun (ell, kind, seed) ->
      let inputs =
        match kind with
        | `Disjoint ->
            L.Disjointness.random_disjoint (rng seed) ~n:(ell * ell)
              ~density:0.5
        | `Intersecting ->
            L.Disjointness.random_intersecting (rng seed) ~n:(ell * ell)
      in
      let t = L.Construction_gw.build ~ell inputs in
      let zc = L.Construction_gw.has_zero_cost_spanner t ~k:4 in
      assert (zc = L.Disjointness.is_disjoint inputs);
      printf "%-4d %-12s %5d %4d %17b %9b\n" ell
        (match kind with `Disjoint -> "disjoint" | _ -> "intersecting")
        (L.Construction_gw.n t)
        (List.length (L.Construction_gw.cut_edges t))
        zc
        (L.Disjointness.is_disjoint inputs))
    [
      (4, `Disjoint, 1); (4, `Intersecting, 2); (8, `Disjoint, 3);
      (8, `Intersecting, 4); (16, `Disjoint, 5); (16, `Intersecting, 6);
    ];
  printf "\nundirected variant (path padding, n = 6l + (k-4)l):\n";
  printf "%-3s %-4s %5s %17s\n" "k" "l" "n" "zero-cost-kspan";
  List.iter
    (fun (k, ell) ->
      let inputs =
        L.Disjointness.random_intersecting (rng (k + ell)) ~n:(ell * ell)
      in
      let u = L.Construction_gw.build_undirected ~ell ~k inputs in
      printf "%-3d %-4d %5d %17b\n" k ell (Ugraph.n u.u_graph)
        (L.Construction_gw.undirected_has_zero_cost_spanner u))
    [ (4, 6); (5, 6); (6, 6); (8, 6) ];
  printf "\nround lower-bound curves:\n";
  printf "%9s | %14s %14s %14s\n" "n" "Thm2.9(dir)" "Thm2.10(k=4)"
    "Thm2.10(k=8)";
  List.iter
    (fun n ->
      printf "%9d | %14.1f %14.1f %14.1f\n" n
        (L.Bounds.thm_2_9_weighted_directed ~n)
        (L.Bounds.thm_2_10_weighted_undirected ~n ~k:4)
        (L.Bounds.thm_2_10_weighted_undirected ~n ~k:8))
    [ 1_000; 100_000; 10_000_000 ]

let e10 () =
  section "E10" "Figure 3 / Claim 3.1 & Thms 3.3-3.5: MVC reduction";
  printf "exact check of Claim 3.1 (min 2-spanner cost = min VC):\n";
  printf "%-10s %3s %4s %6s %9s\n" "base" "n" "m" "VC" "verified";
  List.iter
    (fun (name, g) ->
      let ok = L.Mvc_reduction.check_claim_3_1 g in
      printf "%-10s %3d %4d %6d %9b\n" name (Ugraph.n g) (Ugraph.m g)
        (List.length (C.Exact.min_vertex_cover g))
        ok)
    [
      ("path5", Generators.path 5);
      ("C6", Generators.cycle 6);
      ("K5", Generators.complete 5);
      ("star7", Generators.star 7);
      ("gnp8", Generators.gnp_connected (rng 1) 8 0.4);
    ];
  printf "\nLemma 3.2 pipeline: weighted 2-spanner algorithm => MVC:\n";
  printf "%-10s %4s %5s %9s %8s %8s %7s\n" "base" "n" "opt" "from-span"
    "2approx" "greedy" "valid";
  for seed = 0 to 4 do
    let g = Generators.gnp_connected (rng (20 + seed)) 16 0.25 in
    let t = L.Mvc_reduction.build g in
    let r = C.Weighted_two_spanner.run ~rng:(rng seed) t.graph t.weights in
    let vc = L.Mvc_reduction.spanner_to_vc t r.spanner in
    let opt = List.length (C.Exact.min_vertex_cover g) in
    printf "%-10s %4d %5d %9d %8d %8d %7b\n"
      (Printf.sprintf "gnp16#%d" seed)
      (Ugraph.n g) opt (List.length vc)
      (List.length (L.Mvc.two_approx g))
      (List.length (L.Mvc.greedy g))
      (L.Mvc.is_vertex_cover g vc)
  done;
  printf "\nimported lower-bound curves for weighted 2-spanner:\n";
  printf "%9s %6s | %11s %11s %14s\n" "n" "Delta" "Thm3.3(D)" "Thm3.3(n)"
    "Thm3.5(exact)";
  List.iter
    (fun (n, delta) ->
      printf "%9d %6d | %11.2f %11.2f %14.0f\n" n delta
        (L.Bounds.thm_3_3_local_by_degree ~delta)
        (L.Bounds.thm_3_3_local_by_n ~n)
        (L.Bounds.thm_3_5_exact_congest ~n))
    [ (1_000, 32); (100_000, 256); (10_000_000, 4096) ];
  printf "\nThm 3.4 ratio/time trade-off (LOCAL, k rounds):\n";
  printf "%6s | %14s %14s\n" "rounds" "ratio>=f(n)" "ratio>=f(Delta)";
  List.iter
    (fun k ->
      printf "%6d | %14.3f %14.3f\n" k
        (L.Bounds.thm_3_4_ratio_by_n ~n:1_000_000 ~rounds:k)
        (L.Bounds.thm_3_4_ratio_by_delta ~delta:4096 ~rounds:k))
    [ 1; 2; 3; 5 ]

let e11 () =
  section "E11"
    "Separation: undirected CONGEST upper bound vs directed hardness";
  printf
    "Baswana-Sen [7] and Elkin-Neiman [28] (2k-1)-spanners (k rounds,\n\
     CONGEST, undirected):\n";
  printf "%-3s %6s %7s %8s %8s %10s %8s %8s %11s\n" "k" "n" "m" "BS-size"
    "EN-size" "k*n^1+1/k" "BS-str" "EN-str" "<=n^{1/k}";
  let g = Generators.gnp_connected (rng 1) 400 0.12 in
  List.iter
    (fun k ->
      let r = C.Baswana_sen.run ~rng:(rng k) ~k g in
      let en = C.Elkin_neiman.run ~seed:k ~k g in
      let stretch = C.Spanner_check.stretch g r.spanner in
      let en_stretch = C.Spanner_check.stretch g en.spanner in
      assert (stretch <= (2 * k) - 1);
      assert (en_stretch <= (2 * k) - 1);
      printf "%-3d %6d %7d %8d %8d %10.0f %8d %8d %11.2f\n" k (Ugraph.n g)
        (Ugraph.m g)
        (Edge.Set.cardinal r.spanner)
        (Edge.Set.cardinal en.spanner)
        (C.Baswana_sen.expected_size_bound ~n:400 ~k)
        stretch en_stretch
        (float_of_int 400 ** (1.0 /. float_of_int k)))
    [ 2; 3; 4; 5 ];
  printf
    "\ndirected (2k-1)-spanner at the same O(n^{1/k}) ratio needs (Thms 1.1/2.8):\n";
  printf "%-3s %9s %16s %16s\n" "k" "n" "rand rounds >=" "det rounds >=";
  List.iter
    (fun k ->
      let n = 100_000 in
      let alpha = float_of_int n ** (1.0 /. float_of_int k) in
      printf "%-3d %9d %16.1f %16.1f\n" k n
        (L.Bounds.thm_1_1_randomized ~n ~alpha)
        (L.Bounds.thm_2_8_deterministic ~n ~alpha))
    [ 2; 3; 4; 5 ];
  printf
    "\nLOCAL side of the separation: constant-round O(n)-approx [5] and\n\
     polylog (1+eps) (Section 6 / E7) both apply to directed k-spanner,\n\
     while CONGEST needs the polynomial round counts above.\n"

let e12 () =
  section "E12" "Lemma 2.4: two-party simulation metered on G(l,b)";
  printf "%-6s %-6s %7s %5s %7s %10s %12s %11s\n" "l" "b" "n" "cut" "rounds"
    "cut-bits" "budget*T" "DISJ-rounds";
  List.iter
    (fun (ell, beta) ->
      let inputs =
        L.Disjointness.random_disjoint (rng (ell * beta)) ~n:(ell * ell)
          ~density:0.5
      in
      let t = L.Construction_g.build ~ell ~beta inputs in
      let g = Dgraph.underlying t.graph in
      let rep = L.Two_party.meter_flood ~graph:g ~bob:t.bob_vertices () in
      assert (rep.bits_across_cut <= rep.rounds * rep.bound_per_round);
      (* Rounds any algorithm needs to move Omega(l^2) disjointness
         bits across this cut. *)
      let disj_bits = L.Disjointness.communication_lower_bound ~n:(ell * ell) in
      printf "%-6d %-6d %7d %5d %7d %10d %12d %11.2f\n" ell beta
        (L.Construction_g.n t) rep.cut_edge_count rep.rounds
        rep.bits_across_cut
        (rep.rounds * rep.bound_per_round)
        (L.Bounds.simulation_rounds ~bits:disj_bits ~cut:rep.cut_edge_count
           ~bandwidth:(rep.bound_per_round / (2 * max 1 rep.cut_edge_count))))
    [ (3, 4); (4, 8); (8, 16); (12, 24); (16, 32) ]

let e13 () =
  section "E13"
    "Protocol validation: message-passing LOCAL run vs round engine";
  printf "%-12s %5s %6s %7s %7s %6s %12s %10s\n" "family" "n" "size" "eng-it"
    "loc-it" "equal" "loc-rounds" "loc-msgs";
  List.iter
    (fun (name, g) ->
      let a = C.Two_spanner.run ~seed:5 g in
      let b = C.Two_spanner_local.run ~seed:5 g in
      printf "%-12s %5d %6d %7d %7d %6b %12d %10d\n" name (Ugraph.n g)
        (Edge.Set.cardinal b.spanner)
        a.iterations b.iterations
        (Edge.Set.equal a.spanner b.spanner)
        b.metrics.rounds b.metrics.messages)
    [
      ("K20", Generators.complete 20);
      ("caveman", Generators.caveman (rng 1) 6 7 0.03);
      ("ladder_120", Generators.clique_ladder (rng 2) 120);
      ("gnp_80", Generators.gnp_connected (rng 3) 80 0.3);
      ("pa_100", Generators.preferential_attachment (rng 4) 100 10);
    ];
  printf "\nweighted variant (zero-weight bootstrap included):\n";
  printf "%-12s %6s %7s %7s %6s\n" "family" "cost" "eng-it" "loc-it" "equal";
  List.iter
    (fun (name, g, zf, mw) ->
      let w =
        Generators.random_weights_with_zeros (rng 8) g ~zero_fraction:zf
          ~max_weight:mw
      in
      let a = C.Weighted_two_spanner.run ~seed:5 g w in
      let b = C.Two_spanner_local.run_weighted ~seed:5 g w in
      printf "%-12s %6.0f %7d %7d %6b\n" name a.cost a.iterations
        b.iterations
        (Edge.Set.equal a.spanner b.spanner))
    [
      ("caveman", Generators.caveman (rng 5) 5 7 0.03, 0.2, 5);
      ("gnp_60", Generators.gnp_connected (rng 6) 60 0.2, 0.3, 16);
      ("ladder_100", Generators.clique_ladder (rng 7) 100, 0.1, 4);
    ]

let e15 () =
  section "E15"
    "Section 1.3: direct CONGEST port of the 2-spanner (O(Delta) overhead)";
  printf "%-12s %4s %7s %12s %12s %9s %6s %6s\n" "family" "D" "LOCAL-r"
    "CONGEST-r" "slowdown" "max-bits" "B(n)" "equal";
  List.iter
    (fun (name, g) ->
      let a = C.Two_spanner.run ~seed:5 g in
      let l = C.Two_spanner_local.run ~seed:5 g in
      let c = C.Two_spanner_local.run_congest ~seed:5 g in
      assert (c.metrics.congest_violations = 0);
      let budget =
        match
          Distsim.Model.bandwidth
            (Distsim.Model.congest ~n:(max 2 (Ugraph.n g)) ~c:16 ())
        with
        | Some b -> b
        | None -> -1
      in
      printf "%-12s %4d %7d %12d %12.1f %9d %6d %6b\n" name
        (Ugraph.max_degree g) l.metrics.rounds c.metrics.rounds
        (float_of_int c.metrics.rounds /. float_of_int l.metrics.rounds)
        c.metrics.max_message_bits budget
        (Edge.Set.equal a.spanner c.spanner))
    [
      ("K12", Generators.complete 12);
      ("caveman", Generators.caveman (rng 1) 5 6 0.05);
      ("ladder_80", Generators.clique_ladder (rng 2) 80);
      ("gnp_50", Generators.gnp_connected (rng 3) 50 0.25);
    ]

let e16 () =
  section "E16"
    "Guaranteed vs in-expectation: ratio stability across 20 seeds";
  let g = Generators.caveman (rng 9) 10 8 0.03 in
  let greedy = Edge.Set.cardinal (C.Kp_greedy.run g).spanner in
  printf "caveman n=%d m=%d; greedy (reference) = %d edges\n" (Ugraph.n g)
    (Ugraph.m g) greedy;
  printf "%-12s %6s %6s %6s %8s\n" "rule" "min" "mean" "max" "max/min";
  let stats selection =
    let sizes =
      List.init 20 (fun seed ->
          Edge.Set.cardinal (C.Two_spanner.run ~seed ~selection g).spanner)
    in
    let mn = List.fold_left min max_int sizes in
    let mx = List.fold_left max 0 sizes in
    let mean =
      float_of_int (List.fold_left ( + ) 0 sizes) /. 20.0
    in
    (mn, mean, mx)
  in
  List.iter
    (fun (name, selection) ->
      let mn, mean, mx = stats selection in
      printf "%-12s %6d %6.1f %6d %8.2f\n" name mn mean mx
        (float_of_int mx /. float_of_int mn))
    [
      ("votes(1/8)", C.Two_spanner_engine.Votes 0.125);
      ("coin(1/2)", C.Two_spanner_engine.Coin 0.5);
      ("coin(1/8)", C.Two_spanner_engine.Coin 0.125);
    ];
  printf
    "\nthe voting rule's spread is the paper's point: its O(log m/n) ratio\n\
     holds on every run, not merely in expectation (Section 1.1.2).\n"

let e17 () =
  section "E17"
    "Fault injection: survivor quality under message loss and crashes";
  printf "%-32s %6s %6s %7s %9s %8s %7s %6s %7s\n" "anchor" "drop" "retry"
    "rounds" "messages" "dropped" "crashed" "valid" "stretch";
  List.iter
    (fun (name, fields) ->
      let f k = List.assoc k fields in
      printf "%-32s %6g %6.0f %7.0f %9.0f %8.0f %7.0f %6.0f %7.0f\n" name
        (f "drop_p") (f "retry") (f "rounds") (f "messages") (f "dropped")
        (f "crashed") (f "valid") (f "stretch"))
    (fault_rows ~selected:[ "e17" ]);
  printf
    "\nretransmit wrapper: every message sent retry times, receivers keep\n\
     the first copy per source; a drop-p adversary then loses a message\n\
     with probability p^retry. valid=1 means the surviving output still\n\
     2-spans (resp. dominates) the surviving subgraph (Resilience.run).\n"

let e18 () =
  section "E18" "CSR scale: streaming build, BFS and flood at large n";
  printf "%-14s %8s %9s %12s %9s %8s %10s %10s %5s\n" "anchor" "n" "m"
    "bytes" "build_ms" "bfs_ms" "flood_seq" "flood_par" "same";
  List.iter
    (fun (name, fields) ->
      let f k = List.assoc k fields in
      printf "%-14s %8.0f %9.0f %12.0f %9.1f %8.1f %10.1f %10.1f %5.0f\n"
        name (f "n") (f "m") (f "resident_bytes") (f "build_ms") (f "bfs_ms")
        (f "flood_seq_ms") (f "flood_par_ms") (f "flood_identical"))
    (csr_rows ~par:2 ~selected:[ "e18" ]);
  printf
    "\nthe CSR row is the whole graph: resident_bytes = 8*(n+1+2m) of\n\
     off-heap Bigarray, zero GC-traced words per edge. flood runs the\n\
     distributed engine end to end; par=2 must produce bit-identical\n\
     output (same=1). the 10^5/10^6 anchors (csr_gnp_100k, csr_pa_1e6)\n\
     run in the full --json sweep under the e18big family.\n"

let e18big () =
  section "E18BIG" "CSR scale: the 10^5- and 10^6-vertex anchors";
  printf "%-14s %8s %9s %12s %9s %8s %10s %10s %5s\n" "anchor" "n" "m"
    "bytes" "build_ms" "bfs_ms" "flood_seq" "flood_par" "same";
  List.iter
    (fun (name, fields) ->
      let f k = List.assoc k fields in
      printf "%-14s %8.0f %9.0f %12.0f %9.1f %8.1f %10.1f %10.1f %5.0f\n"
        name (f "n") (f "m") (f "resident_bytes") (f "build_ms") (f "bfs_ms")
        (f "flood_seq_ms") (f "flood_par_ms") (f "flood_identical"))
    (csr_rows ~par:2 ~selected:[ "e18big" ]);
  printf
    "\nsingle timed runs; flood at n=10^6 runs the full distributed\n\
     engine (one mailbox per vertex) and dominates the row — the CSR\n\
     build + BFS share is under 1.5 s.\n"

let e19 () =
  section "E19"
    "Message frugality: silence-as-information + collection trees";
  printf "%-24s %7s %9s %9s %7s %9s %8s %5s\n" "anchor" "rounds" "logical"
    "physical" "reduce" "suppress" "markers" "same";
  List.iter
    (fun (name, fields) ->
      let f k = List.assoc k fields in
      printf "%-24s %7.0f %9.0f %9.0f %6.2fx %9.0f %8.0f %5.0f\n" name
        (f "rounds") (f "logical_messages") (f "physical_messages")
        (f "message_reduction") (f "suppressed") (f "markers") (f "identical"))
    (frugal_rows ~reps:3 ~selected:[ "e19" ]);
  printf
    "\nboth columns describe the same execution: the frugality layer\n\
     re-derives every logical delivery on the receiver side, so the\n\
     spanner, the round count and all logical metrics are bit-identical\n\
     (same=1, asserted) — only the physical wire stream shrinks. the\n\
     flood A/B on the 10^5/10^6 CSR anchors rides the e18/e18big\n\
     families in the full --json sweep (fr_flood_* rows).\n"

let e14 () =
  section "E14" "Lemma 4.5 in action: per-iteration convergence trace";
  let g = Generators.clique_ladder (rng 7) 300 in
  printf "clique ladder, n=%d m=%d Delta=%d\n" (Ugraph.n g) (Ugraph.m g)
    (Ugraph.max_degree g);
  printf "%5s %10s %12s %11s %7s %11s\n" "iter" "uncovered" "max-density"
    "candidates" "stars" "terminated";
  let r =
    C.Two_spanner.run ~seed:5
      ~trace:(fun row ->
        printf "%5d %10d %12.2f %11d %7d %11d\n"
          row.C.Two_spanner_engine.iteration
          row.C.Two_spanner_engine.uncovered_before
          row.C.Two_spanner_engine.max_density
          row.C.Two_spanner_engine.candidates
          row.C.Two_spanner_engine.stars_accepted
          row.C.Two_spanner_engine.terminated_now)
      g
  in
  printf "final spanner: %d edges\n" (Edge.Set.cardinal r.spanner)

(* ------------------------------------------------------------------ *)
(* Ablations *)

let a1 () =
  section "A1" "Ablation: voting threshold (paper: 1/8)";
  let g = Generators.caveman (rng 1) 10 8 0.03 in
  printf "%-10s %6s %6s %6s\n" "threshold" "size" "iters" "stars";
  List.iter
    (fun fraction ->
      let r =
        C.Two_spanner.run ~rng:(rng 2)
          ~selection:(C.Two_spanner_engine.Votes fraction) g
      in
      assert (C.Spanner_check.is_spanner g r.spanner ~k:2);
      printf "%-10.4f %6d %6d %6d\n" fraction
        (Edge.Set.cardinal r.spanner)
        r.iterations r.stars_added)
    [ 0.03125; 0.0625; 0.125; 0.25; 0.5; 1.0 ]

let a2 () =
  section "A2" "Ablation: symmetry-breaking rule (votes vs coin vs all)";
  let g = Generators.caveman (rng 3) 10 8 0.03 in
  printf "%-14s %6s %6s %6s\n" "rule" "size" "iters" "stars";
  List.iter
    (fun (name, selection) ->
      let r = C.Two_spanner.run ~rng:(rng 4) ~selection g in
      assert (C.Spanner_check.is_spanner g r.spanner ~k:2);
      printf "%-14s %6d %6d %6d\n" name
        (Edge.Set.cardinal r.spanner)
        r.iterations r.stars_added)
    [
      ("votes(1/8)", C.Two_spanner_engine.Votes 0.125);
      ("coin(1/2)", C.Two_spanner_engine.Coin 0.5);
      ("coin(1/8)", C.Two_spanner_engine.Coin 0.125);
      ("all", C.Two_spanner_engine.All);
    ]

let a3 () =
  section "A3" "Extension: fault-tolerant 2-spanners (size vs f)";
  printf "%-12s %5s | %6s %6s %6s %6s | %5s\n" "family" "m" "f=0" "f=1"
    "f=2" "f=3" "valid";
  List.iter
    (fun (name, g) ->
      let sizes =
        List.map
          (fun f ->
            let r = C.Fault_tolerant.greedy g ~f in
            assert (C.Fault_tolerant.is_ft_2_spanner g ~f r.spanner);
            Edge.Set.cardinal r.spanner)
          [ 0; 1; 2; 3 ]
      in
      match sizes with
      | [ a; b; c; d ] ->
          printf "%-12s %5d | %6d %6d %6d %6d | %5b\n" name (Ugraph.m g) a b
            c d true
      | _ -> assert false)
    [
      ("K25", Generators.complete 25);
      ("caveman", Generators.caveman (rng 6) 5 8 0.03);
      ("gnp_60", Generators.gnp_connected (rng 7) 60 0.3);
    ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per experiment. *)

let micro () =
  section "MICRO" "Bechamel timings (one test per experiment)";
  let open Bechamel in
  let g80 = Generators.gnp_connected (rng 1) 80 0.15 in
  let w80 = Generators.random_weights (rng 2) g80 ~max_weight:8 in
  let clients, servers =
    Generators.random_client_server (rng 3) g80 ~client_fraction:0.6
      ~server_fraction:0.7
  in
  let dg = Generators.bidirect (Generators.gnp_connected (rng 4) 50 0.2) in
  let g_small = Generators.gnp_connected (rng 5) 9 0.4 in
  let inputs = L.Disjointness.random_disjoint (rng 6) ~n:16 ~density:0.5 in
  let inputs_small =
    L.Disjointness.random_disjoint (rng 9) ~n:9 ~density:0.5
  in
  let mvc_base = Generators.gnp_connected (rng 7) 12 0.3 in
  let star_edges =
    let prob_rng = rng 8 in
    let edges = ref [] in
    for u = 0 to 13 do
      for v = u + 1 to 13 do
        if Rng.float prob_rng 1.0 < 0.4 then edges := (u, v) :: !edges
      done
    done;
    Array.of_list !edges
  in
  let tests =
    Test.make_grouped ~name:"spanner"
      [
        Test.make ~name:"e1_ratio_2spanner"
          (Staged.stage (fun () -> C.Two_spanner.run ~rng:(rng 10) g80));
        Test.make ~name:"e2_rounds_2spanner"
          (Staged.stage (fun () ->
               C.Two_spanner.run ~rng:(rng 11)
                 (Generators.caveman (rng 12) 6 6 0.03)));
        Test.make ~name:"e3_directed"
          (Staged.stage (fun () -> C.Directed_two_spanner.run ~rng:(rng 13) dg));
        Test.make ~name:"e4_weighted"
          (Staged.stage (fun () ->
               C.Weighted_two_spanner.run ~rng:(rng 14) g80 w80));
        Test.make ~name:"e5_client_server"
          (Staged.stage (fun () ->
               C.Client_server.run ~rng:(rng 15) g80 ~clients ~servers));
        Test.make ~name:"e6_mds"
          (Staged.stage (fun () -> C.Mds.run ~rng:(rng 16) g80));
        Test.make ~name:"e7_eps"
          (Staged.stage (fun () ->
               C.Epsilon_spanner.run ~rng:(rng 17) ~epsilon:0.5 ~k:2 g_small));
        Test.make ~name:"e8_lb_directed"
          (Staged.stage (fun () ->
               L.Construction_g.build ~ell:4 ~beta:6 inputs));
        Test.make ~name:"e9_lb_weighted"
          (Staged.stage (fun () ->
               let t = L.Construction_gw.build ~ell:4 inputs in
               L.Construction_gw.has_zero_cost_spanner t ~k:4));
        Test.make ~name:"e10_lb_mvc"
          (Staged.stage (fun () ->
               let t = L.Mvc_reduction.build mvc_base in
               L.Mvc_reduction.spanner_to_vc t
                 (L.Mvc_reduction.vc_to_spanner t (L.Mvc.two_approx mvc_base))));
        Test.make ~name:"e11_separation"
          (Staged.stage (fun () -> C.Baswana_sen.run ~rng:(rng 18) ~k:3 g80));
        Test.make ~name:"e12_two_party"
          (Staged.stage (fun () ->
               let t = L.Construction_g.build ~ell:3 ~beta:4 inputs_small in
               L.Two_party.meter_flood
                 ~graph:(Dgraph.underlying t.graph)
                 ~bob:t.bob_vertices ()));
        Test.make ~name:"e13_local_protocol"
          (Staged.stage (fun () ->
               C.Two_spanner_local.run ~seed:3
                 (Generators.caveman (rng 19) 4 6 0.05)));
        Test.make ~name:"e14_trace"
          (Staged.stage (fun () ->
               C.Two_spanner.run ~seed:3 ~trace:(fun _ -> ())
                 (Generators.clique_ladder (rng 20) 60)));
        Test.make ~name:"e15_congest_port"
          (Staged.stage (fun () ->
               C.Two_spanner_local.run_congest ~seed:3
                 (Generators.caveman (rng 21) 4 6 0.05)));
        (* Larger protocol workloads: the perf-trajectory anchors that
           BENCH_PR*.json tracks across PRs. *)
        Test.make ~name:"e8_local_caveman"
          (Staged.stage (fun () ->
               C.Two_spanner_local.run ~seed:3
                 (Generators.caveman (rng 23) 8 8 0.03)));
        Test.make ~name:"e15_congest"
          (Staged.stage (fun () ->
               C.Two_spanner_local.run_congest ~seed:3
                 (Generators.caveman (rng 24) 6 6 0.04)));
        Test.make ~name:"e16_stability"
          (Staged.stage (fun () ->
               C.Two_spanner.run ~seed:9
                 ~selection:(C.Two_spanner_engine.Coin 0.5)
                 (Generators.caveman (rng 22) 4 6 0.05)));
        Test.make ~name:"a4_densest_flow"
          (Staged.stage (fun () ->
               Netflow.Densest.densest_subset ~n:14 ~edges:star_edges ()));
        Test.make ~name:"a4_densest_brute"
          (Staged.stage (fun () ->
               Netflow.Densest.brute_force ~n:14 ~edges:star_edges ()));
      ]
  in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.4) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) -> rows := (name, est) :: !rows
      | _ -> ())
    results;
  let rows = List.sort compare !rows in
  printf "%-32s %14s\n" "benchmark" "ns/run";
  List.iter (fun (name, est) -> printf "%-32s %14.0f\n" name est) rows;
  rows

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11);
    ("e12", e12); ("e13", e13); ("e14", e14); ("e15", e15); ("e16", e16);
    ("e17", e17); ("e18", e18); ("e18big", e18big); ("e19", e19);
    ("a1", a1); ("a2", a2); ("a3", a3);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec extract_flag flag acc = function
    | f :: path :: rest when f = flag ->
        (Some path, List.rev_append acc rest)
    | [ f ] when f = flag ->
        Printf.eprintf "bench: %s requires a file argument\n" flag;
        exit 2
    | x :: rest -> extract_flag flag (x :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let json_path, args = extract_flag "--json" [] args in
  let trace_path, args = extract_flag "--trace" [] args in
  let par_arg, args = extract_flag "--par" [] args in
  let par =
    match par_arg with
    | None -> 4
    | Some s -> (
        match int_of_string_opt s with
        | Some p when p >= 1 -> p
        | _ ->
            Printf.eprintf "bench: --par requires a positive integer\n";
            exit 2)
  in
  let t0 = Unix.gettimeofday () in
  let wanted, with_micro =
    match args with
    | [] -> (List.map fst experiments, true)
    | _ -> (List.filter (fun a -> a <> "micro") args, List.mem "micro" args)
  in
  List.iter
    (fun id ->
      match List.assoc_opt id experiments with
      | Some f -> f ()
      | None -> printf "unknown experiment %s\n" id)
    wanted;
  let micro_rows = if with_micro then Some (micro ()) else None in
  (match (json_path, trace_path) with
  | None, None -> ()
  | _ -> perf_json ~json_path ~trace_path ~selected:args ~micro_rows ~par);
  printf "\ntotal time: %.1fs\n" (Unix.gettimeofday () -. t0)
