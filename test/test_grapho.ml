(* Tests for the graph substrate: edges, graphs, traversal, powers,
   generators, serialization, and the deterministic RNG. *)

open Grapho

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let child = Rng.split a in
  let x = Rng.int child 1_000_000 and y = Rng.int a 1_000_000 in
  (* Not a statistical test; just pins that both streams advance. *)
  check "streams usable" true (x >= 0 && y >= 0)

let test_rng_int_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    check "in range" true (v >= 0 && v < 17)
  done

let test_rng_geometric_positive () =
  let rng = Rng.create 5 in
  for _ = 1 to 200 do
    check "non-negative" true (Rng.geometric rng 0.5 >= 0)
  done;
  check_int "p=1 is zero" 0 (Rng.geometric rng 1.0)

let test_rng_permutation () =
  let rng = Rng.create 11 in
  let p = Rng.permutation rng 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  check "is permutation" true (sorted = Array.init 50 (fun i -> i))

(* ------------------------------------------------------------------ *)
(* Edge *)

let test_edge_normalization () =
  let e = Edge.make 5 2 in
  Alcotest.(check (pair int int)) "normalized" (2, 5) (Edge.endpoints e);
  check "equal both ways" true (Edge.equal (Edge.make 2 5) (Edge.make 5 2))

let test_edge_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Edge.make: self-loop")
    (fun () -> ignore (Edge.make 3 3))

let test_edge_other () =
  let e = Edge.make 1 9 in
  check_int "other of 1" 9 (Edge.other e 1);
  check_int "other of 9" 1 (Edge.other e 9)

let test_directed_edge () =
  let e = Edge.Directed.make 4 1 in
  check_int "src" 4 (Edge.Directed.src e);
  check_int "dst" 1 (Edge.Directed.dst e);
  check "rev" true (Edge.Directed.equal (1, 4) (Edge.Directed.rev e))

(* ------------------------------------------------------------------ *)
(* Ugraph *)

let test_ugraph_basic () =
  let g = Ugraph.of_edges ~n:4 [ (0, 1); (1, 2); (1, 0) ] in
  check_int "n" 4 (Ugraph.n g);
  check_int "m dedup" 2 (Ugraph.m g);
  check "mem" true (Ugraph.mem_edge g 0 1);
  check "mem sym" true (Ugraph.mem_edge g 1 0);
  check "not mem" false (Ugraph.mem_edge g 0 2);
  check_int "deg 1" 2 (Ugraph.degree g 1);
  check_int "max deg" 2 (Ugraph.max_degree g)

let test_ugraph_neighbors_sorted () =
  let g = Ugraph.of_edges ~n:5 [ (2, 4); (2, 0); (2, 3) ] in
  Alcotest.(check (array int)) "sorted" [| 0; 3; 4 |] (Ugraph.neighbors g 2)

let test_ugraph_edge_set_roundtrip () =
  let g = Generators.gnp (Rng.create 1) 20 0.3 in
  let g' = Ugraph.of_edge_set ~n:20 (Ugraph.edge_set g) in
  check "equal" true (Ugraph.equal g g')

let test_ugraph_induced () =
  let g = Generators.complete 4 in
  let sub =
    Ugraph.induced_by_edges g (Edge.Set.of_list [ Edge.make 0 1; Edge.make 2 3 ])
  in
  check_int "m" 2 (Ugraph.m sub);
  check_int "same n" 4 (Ugraph.n sub)

let test_ugraph_out_of_range () =
  Alcotest.check_raises "bad vertex"
    (Invalid_argument "Ugraph: vertex 7 out of range [0,5)") (fun () ->
      ignore (Ugraph.of_edges ~n:5 [ (0, 7) ]))

(* ------------------------------------------------------------------ *)
(* Dgraph *)

let test_dgraph_basic () =
  let g = Dgraph.of_edges ~n:3 [ (0, 1); (1, 0); (1, 2) ] in
  check_int "m keeps antiparallel" 3 (Dgraph.m g);
  check "directed mem" true (Dgraph.mem_edge g 1 2);
  check "no reverse" false (Dgraph.mem_edge g 2 1);
  check_int "out deg 1" 2 (Dgraph.out_degree g 1);
  check_int "in deg 1" 1 (Dgraph.in_degree g 1);
  Alcotest.(check (array int)) "undirected nbrs" [| 0; 2 |]
    (Dgraph.undirected_neighbors g 1)

let test_dgraph_underlying () =
  let g = Dgraph.of_edges ~n:3 [ (0, 1); (1, 0); (1, 2) ] in
  check_int "underlying collapses" 2 (Ugraph.m (Dgraph.underlying g))

let test_bidirect () =
  let u = Generators.cycle 5 in
  let d = Generators.bidirect u in
  check_int "double edges" (2 * Ugraph.m u) (Dgraph.m d)

(* ------------------------------------------------------------------ *)
(* Weights *)

let test_weights_default () =
  let w = Weights.of_list ~default:1.0 [ (0, 1, 3.0) ] in
  Alcotest.(check (float 1e-9)) "explicit" 3.0 (Weights.get w (Edge.make 0 1));
  Alcotest.(check (float 1e-9)) "default" 1.0 (Weights.get w (Edge.make 1 2))

let test_weights_cost_and_ratio () =
  let g = Generators.path 4 in
  let w = Weights.of_list ~default:0.0 [ (0, 1, 2.0); (1, 2, 8.0) ] in
  Alcotest.(check (float 1e-9)) "cost" 10.0 (Weights.graph_cost w g);
  Alcotest.(check (float 1e-9)) "ratio" 4.0 (Weights.ratio w g);
  Alcotest.(check (float 1e-9)) "min positive" 2.0 (Weights.min_positive w g)

let test_weights_negative_rejected () =
  Alcotest.check_raises "negative" (Invalid_argument "Weights: negative weight")
    (fun () -> ignore (Weights.of_list [ (0, 1, -1.0) ]))

let test_directed_weights () =
  let w = Weights.Directed.of_list ~default:2.0 [ (0, 1, 5.0); (1, 0, 0.0) ] in
  Alcotest.(check (float 1e-9)) "forward" 5.0 (Weights.Directed.get w (0, 1));
  Alcotest.(check (float 1e-9)) "reverse distinct" 0.0
    (Weights.Directed.get w (1, 0));
  Alcotest.(check (float 1e-9)) "default" 2.0 (Weights.Directed.get w (2, 3));
  Alcotest.(check (float 1e-9)) "cost" 5.0
    (Weights.Directed.cost w (Edge.Directed.Set.of_list [ (0, 1); (1, 0) ]))

(* ------------------------------------------------------------------ *)
(* Traversal *)

let test_bfs_path () =
  let g = Generators.path 6 in
  let dist = Traversal.bfs_distances g 0 in
  check_int "end" 5 dist.(5);
  check_int "diameter" 5 (Traversal.diameter g)

let test_disconnected () =
  let g = Ugraph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  check "not connected" false (Traversal.is_connected g);
  check_int "components" 2 (Traversal.component_count g);
  check_int "unreachable" max_int (Traversal.distance g 0 3);
  check_int "diameter infinite" max_int (Traversal.diameter g)

let test_girth () =
  check_int "C5" 5 (Traversal.girth (Generators.cycle 5));
  check_int "K4" 3 (Traversal.girth (Generators.complete 4));
  check_int "tree" max_int (Traversal.girth (Generators.path 5));
  check_int "hypercube" 4 (Traversal.girth (Generators.hypercube 3))

let test_ball () =
  let g = Generators.path 5 in
  Alcotest.(check (list int)) "ball r=1 around 2" [ 2; 1; 3 ]
    (Traversal.ball g 2 1)

let test_set_distance_bounded () =
  let sg = Ugraph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  let sc = Traversal.scratch () and w = Traversal.ugraph sg in
  check_int "within bound" 3
    (Traversal.distance_within sc w ~bound:3 0 3);
  check_int "over bound" max_int
    (Traversal.distance_within sc w ~bound:2 0 3);
  (* The scratch is reused: the previous search leaves no stamps. *)
  check_int "again within bound" 3
    (Traversal.distance_within sc w ~bound:3 0 3);
  check_int "bound 1 is adjacency" max_int
    (Traversal.distance_within sc w ~bound:1 0 2);
  check_int "depth of an unreached vertex" max_int (Traversal.depth sc 3);
  check_int "same vertex" 0
    (Traversal.distance_within sc w ~bound:0 2 2)

let test_directed_distance () =
  let dg = Dgraph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let sc = Traversal.scratch () and w = Traversal.out_edges dg in
  check_int "forward" 2
    (Traversal.distance_within sc w ~bound:5 0 2);
  check_int "no backward" max_int
    (Traversal.distance_within sc w ~bound:5 2 0);
  check "path" true (Traversal.path sc 0 = None);
  ignore (Traversal.distance_within sc w ~bound:5 0 2);
  check "path" true (Traversal.path sc 2 = Some [ 0; 1; 2 ])

(* ------------------------------------------------------------------ *)
(* Power *)

let test_power_path () =
  let g = Generators.path 5 in
  let g2 = Power.power g 2 in
  check "0-2 adjacent in square" true (Ugraph.mem_edge g2 0 2);
  check "0-3 not adjacent" false (Ugraph.mem_edge g2 0 3);
  check_int "m of path^2" 7 (Ugraph.m g2)

let test_power_large_r_is_component_clique () =
  let g = Generators.path 4 in
  let gk = Power.power g 10 in
  check_int "clique" 6 (Ugraph.m gk)

(* ------------------------------------------------------------------ *)
(* Generators *)

let test_structured_families () =
  check_int "path m" 7 (Ugraph.m (Generators.path 8));
  check_int "cycle m" 8 (Ugraph.m (Generators.cycle 8));
  check_int "star m" 7 (Ugraph.m (Generators.star 8));
  check_int "complete m" 28 (Ugraph.m (Generators.complete 8));
  check_int "bipartite m" 12 (Ugraph.m (Generators.complete_bipartite 3 4));
  check_int "grid m" 12 (Ugraph.m (Generators.grid 3 3));
  check_int "hypercube m" 32 (Ugraph.m (Generators.hypercube 4));
  check_int "hypercube deg" 4 (Ugraph.max_degree (Generators.hypercube 4))

let test_gnp_connected_is_connected () =
  for seed = 0 to 9 do
    let g = Generators.gnp_connected (Rng.create seed) 40 0.05 in
    check "connected" true (Traversal.is_connected g)
  done

let test_random_tree () =
  for seed = 0 to 9 do
    let g = Generators.random_tree (Rng.create seed) 30 in
    check_int "tree edges" 29 (Ugraph.m g);
    check "tree connected" true (Traversal.is_connected g)
  done

let test_preferential_attachment () =
  let g = Generators.preferential_attachment (Rng.create 2) 100 3 in
  check "connected" true (Traversal.is_connected g);
  check "m close to 3n" true (Ugraph.m g <= 3 * 100 && Ugraph.m g >= 100)

let test_regular_ish () =
  let g = Generators.random_regular_ish (Rng.create 4) 30 4 in
  check "connected" true (Traversal.is_connected g);
  check "degrees near 4" true (Ugraph.max_degree g <= 8)

let test_client_server_covers_all () =
  let g = Generators.gnp_connected (Rng.create 5) 30 0.2 in
  let clients, servers =
    Generators.random_client_server (Rng.create 6) g ~client_fraction:0.5
      ~server_fraction:0.5
  in
  Ugraph.iter_edges
    (fun e ->
      check "typed" true (Edge.Set.mem e clients || Edge.Set.mem e servers))
    g

(* ------------------------------------------------------------------ *)
(* Graph_io *)

let test_io_roundtrip () =
  let g = Generators.gnp (Rng.create 7) 15 0.3 in
  let g' = Graph_io.of_edge_list (Graph_io.to_edge_list g) in
  check "roundtrip" true (Ugraph.equal g g')

let test_io_directed_roundtrip () =
  let d = Generators.random_orientation (Rng.create 8) (Generators.cycle 9) in
  let d' = Graph_io.directed_of_edge_list (Graph_io.directed_to_edge_list d) in
  check "roundtrip" true
    (Edge.Directed.Set.equal (Dgraph.edge_set d) (Dgraph.edge_set d'))

let test_io_weighted_roundtrip () =
  let g = Generators.gnp (Rng.create 9) 12 0.4 in
  let w = Generators.random_weights (Rng.create 10) g ~max_weight:7 in
  let g', w' = Graph_io.weighted_of_edge_list (Graph_io.weighted_to_edge_list g w) in
  check "graph" true (Ugraph.equal g g');
  Ugraph.iter_edges
    (fun e ->
      Alcotest.(check (float 1e-9)) "weight" (Weights.get w e) (Weights.get w' e))
    g

let test_io_malformed_rejected () =
  check "garbage" true
    (try ignore (Graph_io.of_edge_list "nonsense"); false
     with Failure _ -> true);
  check "count mismatch" true
    (try ignore (Graph_io.of_edge_list "3 5\n0 1\n"); false
     with Failure _ -> true);
  check "empty" true
    (try ignore (Graph_io.of_edge_list "   \n"); false
     with Failure _ -> true)

(* The parser rejects bad edges at parse time, naming the 1-based
   input line (comments and blanks counted) that carries them. *)
let test_io_line_numbered_rejection () =
  let contains msg needle =
    let nl = String.length needle and ml = String.length msg in
    let rec go i =
      if i + nl > ml then false
      else String.sub msg i nl = needle || go (i + 1)
    in
    go 0
  in
  let rejects name needle reader input =
    check name true
      (try
         ignore (reader input);
         false
       with Failure msg ->
         if contains msg needle then true
         else Alcotest.failf "%s: expected %S in %S" name needle msg)
  in
  let undirected s = Graph_io.of_edge_list s in
  rejects "self-loop" "line 3: self-loop at vertex 1" undirected
    "3 2\n0 1\n1 1\n";
  rejects "duplicate" "line 4: duplicate edge (1, 0), first seen on line 2"
    undirected "3 3\n0 1\n1 2\n1 0\n";
  rejects "duplicate after comment" "line 5: duplicate edge" undirected
    "3 2\n0 1\n# a comment\n\n0 1\n";
  rejects "out of range" "line 3: edge (1, 7) out of range for n = 3"
    undirected "3 2\n0 1\n1 7\n";
  rejects "non-integer" "line 2: \"x\" is not an integer" undirected
    "2 1\n0 x\n";
  (* Directed: an antiparallel pair is two distinct edges... *)
  let d = Graph_io.directed_of_edge_list "2 2\n0 1\n1 0\n" in
  check "antiparallel ok" true (Dgraph.m d = 2);
  (* ...but a repeated ordered pair is not. *)
  rejects "directed duplicate" "line 3: duplicate edge (0, 1)"
    (fun s -> ignore (Graph_io.directed_of_edge_list s))
    "2 2\n0 1\n0 1\n";
  (* The weighted reader shares the validation. *)
  rejects "weighted self-loop" "line 2: self-loop at vertex 1"
    (fun s -> ignore (Graph_io.weighted_of_edge_list s))
    "2 1\n1 1 2.5\n";
  rejects "weighted bad weight" "line 2: \"heavy\" is not a weight"
    (fun s -> ignore (Graph_io.weighted_of_edge_list s))
    "2 1\n0 1 heavy\n"

let test_dot_mentions_highlight () =
  let g = Generators.path 3 in
  let dot = Graph_io.to_dot ~highlight:(Edge.Set.singleton (Edge.make 0 1)) g in
  check "has color" true
    (String.length dot > 0
    && String.split_on_char '\n' dot
       |> List.exists (fun l ->
              String.length l > 0
              && String.trim l = "0 -- 1 [color=red, penwidth=2.0];"))

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_gnp_edge_bounds =
  QCheck.Test.make ~name:"gnp within bounds" ~count:30
    QCheck.(
      set_shrink Shrink.nil (pair (int_range 2 25) (int_range 0 100)))
    (fun (n, seed) ->
      let g = Generators.gnp (Rng.create seed) n 0.5 in
      Ugraph.m g <= n * (n - 1) / 2)

let prop_power_monotone =
  QCheck.Test.make ~name:"G^r grows with r" ~count:20
    QCheck.(int_range 0 1000)
    (fun seed ->
      let g = Generators.gnp_connected (Rng.create seed) 12 0.2 in
      Ugraph.m (Power.power g 1) <= Ugraph.m (Power.power g 2)
      && Ugraph.m (Power.power g 2) <= Ugraph.m (Power.power g 3))

let prop_bfs_triangle_inequality =
  QCheck.Test.make ~name:"bfs distances obey triangle inequality" ~count:20
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Generators.gnp_connected rng 15 0.3 in
      let d0 = Traversal.bfs_distances g 0 in
      Ugraph.fold_edges
        (fun e acc ->
          let u, v = Edge.endpoints e in
          acc && abs (d0.(u) - d0.(v)) <= 1)
        g true)

let prop_tree_acyclic =
  QCheck.Test.make ~name:"random tree has girth infinity" ~count:20
    QCheck.(int_range 0 1000)
    (fun seed ->
      let g = Generators.random_tree (Rng.create seed) 12 in
      Traversal.girth g = max_int)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest
      [ prop_gnp_edge_bounds; prop_power_monotone;
        prop_bfs_triangle_inequality; prop_tree_acyclic ]
  in
  Alcotest.run "grapho"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "geometric" `Quick test_rng_geometric_positive;
          Alcotest.test_case "permutation" `Quick test_rng_permutation;
        ] );
      ( "edge",
        [
          Alcotest.test_case "normalization" `Quick test_edge_normalization;
          Alcotest.test_case "self loop" `Quick test_edge_self_loop;
          Alcotest.test_case "other" `Quick test_edge_other;
          Alcotest.test_case "directed" `Quick test_directed_edge;
        ] );
      ( "ugraph",
        [
          Alcotest.test_case "basic" `Quick test_ugraph_basic;
          Alcotest.test_case "sorted neighbors" `Quick
            test_ugraph_neighbors_sorted;
          Alcotest.test_case "edge set roundtrip" `Quick
            test_ugraph_edge_set_roundtrip;
          Alcotest.test_case "induced" `Quick test_ugraph_induced;
          Alcotest.test_case "out of range" `Quick test_ugraph_out_of_range;
        ] );
      ( "dgraph",
        [
          Alcotest.test_case "basic" `Quick test_dgraph_basic;
          Alcotest.test_case "underlying" `Quick test_dgraph_underlying;
          Alcotest.test_case "bidirect" `Quick test_bidirect;
        ] );
      ( "weights",
        [
          Alcotest.test_case "default" `Quick test_weights_default;
          Alcotest.test_case "cost and ratio" `Quick
            test_weights_cost_and_ratio;
          Alcotest.test_case "negative rejected" `Quick
            test_weights_negative_rejected;
          Alcotest.test_case "directed weights" `Quick test_directed_weights;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "bfs path" `Quick test_bfs_path;
          Alcotest.test_case "disconnected" `Quick test_disconnected;
          Alcotest.test_case "girth" `Quick test_girth;
          Alcotest.test_case "ball" `Quick test_ball;
          Alcotest.test_case "set distance" `Quick test_set_distance_bounded;
          Alcotest.test_case "directed distance" `Quick
            test_directed_distance;
        ] );
      ( "power",
        [
          Alcotest.test_case "path square" `Quick test_power_path;
          Alcotest.test_case "component clique" `Quick
            test_power_large_r_is_component_clique;
        ] );
      ( "generators",
        [
          Alcotest.test_case "structured" `Quick test_structured_families;
          Alcotest.test_case "gnp connected" `Quick
            test_gnp_connected_is_connected;
          Alcotest.test_case "random tree" `Quick test_random_tree;
          Alcotest.test_case "preferential attachment" `Quick
            test_preferential_attachment;
          Alcotest.test_case "regular-ish" `Quick test_regular_ish;
          Alcotest.test_case "client-server typing" `Quick
            test_client_server_covers_all;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "directed roundtrip" `Quick
            test_io_directed_roundtrip;
          Alcotest.test_case "weighted roundtrip" `Quick
            test_io_weighted_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick
            test_io_malformed_rejected;
          Alcotest.test_case "line-numbered rejection" `Quick
            test_io_line_numbered_rejection;
          Alcotest.test_case "dot highlight" `Quick test_dot_mentions_highlight;
        ] );
      ("properties", qsuite);
    ]
