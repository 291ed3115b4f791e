(* Tests for the core contribution: spanner checkers, coverage
   bookkeeping, star choice, and the distributed 2-spanner algorithm
   of Section 4 (Theorem 1.3). *)

open Grapho
module C = Spanner_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Spanner_check *)

let test_whole_graph_is_spanner () =
  let g = Generators.gnp_connected (Rng.create 1) 20 0.2 in
  check "identity" true (C.Spanner_check.is_spanner g (Ugraph.edge_set g) ~k:1)

let test_two_path_covers () =
  let g = Generators.complete 3 in
  let s = Edge.Set.of_list [ Edge.make 0 1; Edge.make 1 2 ] in
  check "2-path" true (C.Spanner_check.is_spanner g s ~k:2);
  check "not a 1-spanner" false (C.Spanner_check.is_spanner g s ~k:1)

let test_uncovered_listed () =
  let g = Generators.cycle 5 in
  let s = Edge.Set.of_list [ Edge.make 0 1 ] in
  check_int "four uncovered" 4
    (List.length (C.Spanner_check.uncovered_edges g s ~k:2))

let test_stretch () =
  let g = Generators.cycle 6 in
  let s = Edge.Set.remove (Edge.make 0 5) (Ugraph.edge_set g) in
  check_int "cycle minus edge" 5 (C.Spanner_check.stretch g s);
  check_int "full graph" 1 (C.Spanner_check.stretch g (Ugraph.edge_set g))

let test_spanner_edge_must_exist () =
  let g = Generators.path 3 in
  check "foreign edge rejected" true
    (try
       ignore
         (C.Spanner_check.is_spanner g
            (Edge.Set.singleton (Edge.make 0 2)) ~k:2);
       false
     with Invalid_argument _ -> true)

let test_directed_check () =
  let dg = Dgraph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
  let s = Edge.Directed.Set.of_list [ (0, 1); (1, 2) ] in
  check "directed 2-path" true (C.Spanner_check.is_directed_spanner dg s ~k:2);
  let dg2 = Dgraph.of_edges ~n:3 [ (0, 1); (2, 1); (0, 2) ] in
  let s2 = Edge.Directed.Set.of_list [ (0, 1); (2, 1) ] in
  check "orientation matters" false
    (C.Spanner_check.is_directed_spanner dg2 s2 ~k:2)

(* ------------------------------------------------------------------ *)
(* Cover2 *)

let test_cover2_initial_hv () =
  let g = Generators.complete 4 in
  let all = Ugraph.edge_set g in
  let t = C.Cover2.create ~n:4 ~targets:all ~usable:all in
  check_int "all uncovered" 6 (C.Cover2.uncovered_count t);
  (* H_v of any vertex of K4: the 3 edges among its 3 neighbors. *)
  check_int "hv size" 3 (Edge.Set.cardinal (C.Cover2.hv t 0))

let test_cover2_star_add_covers () =
  let g = Generators.complete 4 in
  let all = Ugraph.edge_set g in
  let t = C.Cover2.create ~n:4 ~targets:all ~usable:all in
  let dirtied = ref [] in
  (* Add the full star of 0: everything becomes covered. *)
  C.Cover2.add t
    (Edge.Set.of_list [ Edge.make 0 1; Edge.make 0 2; Edge.make 0 3 ])
    ~dirty:(fun v -> dirtied := v :: !dirtied);
  check "all covered" true (C.Cover2.all_covered t);
  check "dirty notified" true (!dirtied <> [])

let test_cover2_incremental_hv () =
  let g = Generators.complete 4 in
  let all = Ugraph.edge_set g in
  let t = C.Cover2.create ~n:4 ~targets:all ~usable:all in
  C.Cover2.add t (Edge.Set.of_list [ Edge.make 1 2 ]) ~dirty:(fun _ -> ());
  (* The target {1,2} is covered (it is in the spanner) and must have
     left H_0, H_3. *)
  check "left hv0" false (Edge.Set.mem (Edge.make 1 2) (C.Cover2.hv t 0));
  check "left hv3" false (Edge.Set.mem (Edge.make 1 2) (C.Cover2.hv t 3));
  check_int "five uncovered" 5 (C.Cover2.uncovered_count t)

let test_cover2_two_path_coverage () =
  let g = Generators.path 3 in
  (* no targets between neighbors; add the two path edges: the target
     set {0,1},{1,2} gets covered by membership *)
  let all = Ugraph.edge_set g in
  let t = C.Cover2.create ~n:3 ~targets:all ~usable:all in
  C.Cover2.add t all ~dirty:(fun _ -> ());
  check "all covered" true (C.Cover2.all_covered t)

let test_cover2_client_server_uncoverable () =
  (* target {0,1}; servers only {1,2}: uncoverable. *)
  let targets = Edge.Set.singleton (Edge.make 0 1) in
  let usable = Edge.Set.singleton (Edge.make 1 2) in
  let t = C.Cover2.create ~n:3 ~targets ~usable in
  check_int "uncoverable" 1
    (Edge.Set.cardinal (C.Cover2.uncoverable_targets t))

let test_cover2_rejects_non_usable () =
  let targets = Edge.Set.singleton (Edge.make 0 1) in
  let t = C.Cover2.create ~n:2 ~targets ~usable:Edge.Set.empty in
  check "raises" true
    (try
       C.Cover2.add t targets ~dirty:(fun _ -> ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Star_pick *)

(* H_v in [make]'s frame: each pair (lo, hi) of positions in the
   neighbor row, packed as lo * d + hi. *)
let hv_of_pairs ~d pairs =
  Array.of_list (List.map (fun (lo, hi) -> (lo * d) + hi) pairs)

let star_problem () =
  (* Center 0 of K5: neighbors 1..4, H_v = all 6 edges among them. *)
  let hv =
    hv_of_pairs ~d:4 [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ]
  in
  let neighbors = [| 1; 2; 3; 4 |] in
  C.Star_pick.make ~center:0 ~neighbors ~nodes:neighbors ~hv ()

let test_star_density () =
  let p = star_problem () in
  check_float "full star" 1.5 (C.Star_pick.density p [ 1; 2; 3; 4 ]);
  check_float "pair" 0.5 (C.Star_pick.density p [ 1; 2 ]);
  check_float "empty" 0.0 (C.Star_pick.density p [])

let test_star_densest () =
  let p = star_problem () in
  match C.Star_pick.densest p with
  | Some (sel, d) ->
      check_int "picks all" 4 (List.length sel);
      check_float "density" 1.5 d
  | None -> Alcotest.fail "expected star"

let test_star_spanned () =
  let p = star_problem () in
  check_int "spanned by pair" 1
    (Edge.Set.cardinal (C.Star_pick.spanned p [ 1; 2 ]));
  check_int "spanned by triple" 3
    (Edge.Set.cardinal (C.Star_pick.spanned p [ 1; 2; 3 ]));
  check_int "counted by pair" 1 (C.Star_pick.spanned_count p [ 1; 2 ]);
  check_int "counted by triple" 3 (C.Star_pick.spanned_count p [ 1; 2; 3 ])

let test_star_extend_grows () =
  let p = star_problem () in
  let sel = C.Star_pick.extend p ~start:[ 1; 2 ] ~allowed:[ 1; 2; 3; 4 ]
      ~threshold:0.5
  in
  check "extends to all" true (List.length sel = 4)

let test_star_extend_respects_allowed () =
  let p = star_problem () in
  let sel =
    C.Star_pick.extend p ~start:[ 1 ] ~allowed:[ 1; 2 ] ~threshold:0.1
  in
  check "stays within allowed" true (List.for_all (fun v -> v <= 2) sel)

let test_star_free_nodes () =
  (* Neighbor 2 is free (weight 0 edge); H_v edge {1,2} comes at the
     price of selecting only node 1. *)
  let hv = hv_of_pairs ~d:2 [ (0, 1) ] in
  let p =
    C.Star_pick.make ~center:0 ~neighbors:[| 1; 2 |] ~nodes:[| 1 |]
      ~free:[| 2 |] ~hv ()
  in
  check_float "bonus density" 1.0 (C.Star_pick.density p [ 1 ]);
  check_int "spanned includes free edge" 1
    (Edge.Set.cardinal (C.Star_pick.spanned p [ 1 ]));
  check_int "counted with free edge" 1 (C.Star_pick.spanned_count p [ 1 ])

let test_star_hv_frame () =
  (* [hv_of_edges] drops edges leaving the row and packs the rest in
     ascending order; [make] rejects unsorted or repeated pairs. *)
  let neighbors = [| 2; 5; 7; 9 |] in
  let edges =
    Edge.Set.of_list [ Edge.make 5 9; Edge.make 2 7; Edge.make 7 8 ]
  in
  Alcotest.(check (array int))
    "packed" (hv_of_pairs ~d:4 [ (0, 2); (1, 3) ])
    (C.Star_pick.hv_of_edges ~neighbors edges);
  let rejects hv =
    try
      ignore (C.Star_pick.make ~center:0 ~neighbors ~nodes:neighbors ~hv ());
      false
    with Invalid_argument _ -> true
  in
  check "unsorted" true (rejects (hv_of_pairs ~d:4 [ (1, 3); (0, 2) ]));
  check "repeated" true (rejects (hv_of_pairs ~d:4 [ (0, 2); (0, 2) ]));
  check "reversed pair" true (rejects (hv_of_pairs ~d:4 [ (2, 0) ]))

(* On a random row with random paying/free/ineligible roles, a random
   H_v and a random selection, [spanned_count] and [spanned] both agree
   with the 2-spanned set computed from the definition. *)
let prop_star_spanned_count =
  QCheck.Test.make ~name:"spanned_count = |independent spanned set|"
    ~count:200
    QCheck.(
      set_shrink Shrink.nil (pair (int_range 1 9) (int_range 0 1_000_000)))
    (fun (d, seed) ->
      let rng = Random.State.make [| seed |] in
      let neighbors = Array.init d (fun i -> (3 * i) + 1) in
      let role = Array.init d (fun _ -> Random.State.int rng 3) in
      let with_role r =
        List.filter (fun p -> role.(p) = r) (List.init d Fun.id)
      in
      let paying = with_role 0 and free = with_role 1 in
      let pairs =
        List.concat_map
          (fun lo ->
            List.filter_map
              (fun hi -> if Random.State.bool rng then Some (lo, hi) else None)
              (List.init (d - lo - 1) (fun k -> lo + k + 1)))
          (List.init d Fun.id)
      in
      let selected = List.filter (fun _ -> Random.State.bool rng) paying in
      let vertex p = neighbors.(p) in
      let p =
        C.Star_pick.make ~center:0 ~neighbors
          ~nodes:(Array.of_list (List.map vertex paying))
          ~free:(Array.of_list (List.map vertex free))
          ~hv:(hv_of_pairs ~d pairs) ()
      in
      let picked x = List.mem x selected in
      let expected =
        List.fold_left
          (fun acc (lo, hi) ->
            if
              (picked lo && (picked hi || role.(hi) = 1))
              || (picked hi && role.(lo) = 1)
            then Edge.Set.add (Edge.make (vertex lo) (vertex hi)) acc
            else acc)
          Edge.Set.empty pairs
      in
      let selection = List.map vertex selected in
      C.Star_pick.spanned_count p selection = Edge.Set.cardinal expected
      && Edge.Set.equal (C.Star_pick.spanned p selection) expected)

let test_rounded_exponent () =
  check "zero" true (C.Star_pick.rounded_exponent 0.0 = None);
  check "one" true (C.Star_pick.rounded_exponent 1.0 = Some 1);
  check "1.5" true (C.Star_pick.rounded_exponent 1.5 = Some 1);
  check "2" true (C.Star_pick.rounded_exponent 2.0 = Some 2);
  check "0.5" true (C.Star_pick.rounded_exponent 0.5 = Some 0);
  check "0.3" true (C.Star_pick.rounded_exponent 0.3 = Some (-1));
  check_float "pow2" 0.25 (C.Star_pick.pow2 (-2))

(* ------------------------------------------------------------------ *)
(* Two_spanner: validity, quality, structure *)

let families =
  [
    ("complete_20", Generators.complete 20);
    ("bipartite_8_8", Generators.complete_bipartite 8 8);
    ("caveman", Generators.caveman (Rng.create 2) 6 6 0.05);
    ("gnp_60", Generators.gnp_connected (Rng.create 3) 60 0.15);
    ("grid_6x6", Generators.grid 6 6);
    ("pa_80", Generators.preferential_attachment (Rng.create 4) 80 5);
    ("tree_40", Generators.random_tree (Rng.create 5) 40);
    ("path_10", Generators.path 10);
    ("star_30", Generators.star 30);
  ]

let test_two_spanner_valid_on_families () =
  List.iter
    (fun (name, g) ->
      let r = C.Two_spanner.run ~rng:(Rng.create 7) g in
      check (name ^ " valid") true (C.Spanner_check.is_spanner g r.spanner ~k:2))
    families

let test_two_spanner_complete_graph_quality () =
  (* K_n has a 2-spanner of n-1 edges (one full star); the algorithm
     should find something close. *)
  let g = Generators.complete 25 in
  let r = C.Two_spanner.run ~rng:(Rng.create 11) g in
  check "near star" true (Edge.Set.cardinal r.spanner <= 3 * 24)

let test_two_spanner_triangle_free_takes_all () =
  (* In a triangle-free graph no edge can be 2-spanned: the minimum
     2-spanner is the whole edge set (the paper's K_{n,n} worst case). *)
  let g = Generators.complete_bipartite 6 7 in
  let r = C.Two_spanner.run ~rng:(Rng.create 12) g in
  check_int "all edges" (Ugraph.m g) (Edge.Set.cardinal r.spanner);
  let h = Generators.hypercube 4 in
  let rh = C.Two_spanner.run ~rng:(Rng.create 13) h in
  check_int "hypercube all edges" (Ugraph.m h) (Edge.Set.cardinal rh.spanner)

let test_two_spanner_ratio_bound_on_small () =
  (* Guaranteed O(log m/n) ratio against the exact optimum. *)
  for seed = 0 to 7 do
    let g = Generators.gnp_connected (Rng.create (50 + seed)) 10 0.4 in
    let r = C.Two_spanner.run ~rng:(Rng.create seed) g in
    let opt = C.Exact.min_2_spanner_size g in
    let ratio = float_of_int (Edge.Set.cardinal r.spanner) /. float_of_int opt in
    check "within guarantee" true (ratio <= C.Two_spanner.ratio_bound g)
  done

let test_two_spanner_deterministic_given_seed () =
  let g = Generators.gnp_connected (Rng.create 21) 40 0.2 in
  let a = C.Two_spanner.run ~rng:(Rng.create 5) g in
  let b = C.Two_spanner.run ~rng:(Rng.create 5) g in
  check "same spanner" true (Edge.Set.equal a.spanner b.spanner);
  check_int "same iterations" a.iterations b.iterations

let test_two_spanner_rounds_accounting () =
  let g = Generators.complete 12 in
  let r = C.Two_spanner.run ~rng:(Rng.create 3) g in
  check_int "rounds = c * iterations"
    (C.Two_spanner_engine.rounds_per_iteration * r.iterations)
    r.rounds

let test_two_spanner_empty_and_single () =
  let r = C.Two_spanner.run (Ugraph.empty 5) in
  check_int "no edges" 0 (Edge.Set.cardinal r.spanner);
  let g1 = Generators.path 2 in
  let r1 = C.Two_spanner.run g1 in
  check_int "single edge kept" 1 (Edge.Set.cardinal r1.spanner)

let test_two_spanner_disconnected () =
  let g =
    Ugraph.of_edges ~n:8
      [ (0, 1); (1, 2); (0, 2); (4, 5); (5, 6); (4, 6); (6, 7) ]
  in
  let r = C.Two_spanner.run ~rng:(Rng.create 9) g in
  check "valid on disconnected" true
    (C.Spanner_check.is_spanner g r.spanner ~k:2)

let test_selection_rules_all_valid () =
  let g = Generators.gnp_connected (Rng.create 31) 40 0.25 in
  List.iter
    (fun selection ->
      let r = C.Two_spanner.run ~rng:(Rng.create 1) ~selection g in
      check "valid" true (C.Spanner_check.is_spanner g r.spanner ~k:2))
    [ C.Two_spanner_engine.Votes 0.125; C.Two_spanner_engine.Votes 0.5;
      C.Two_spanner_engine.Coin 0.5; C.Two_spanner_engine.All ]

let test_iteration_guard_raises () =
  let g = Generators.complete 10 in
  check "guard" true
    (try
       ignore (C.Two_spanner.run ~max_iterations:0 g);
       false
     with Failure _ -> true)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_always_valid =
  QCheck.Test.make ~name:"2-spanner always valid" ~count:25
    QCheck.(
      set_shrink Shrink.nil (pair (int_range 2 30) (int_range 0 10_000)))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Generators.gnp_connected rng n 0.3 in
      let r = C.Two_spanner.run ~rng:(Rng.create (seed + 1)) g in
      C.Spanner_check.is_spanner g r.spanner ~k:2)

let prop_spanner_at_most_all_edges =
  QCheck.Test.make ~name:"2-spanner never exceeds the graph" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = Generators.gnp_connected (Rng.create seed) 25 0.3 in
      let r = C.Two_spanner.run ~rng:(Rng.create (seed * 3 + 1)) g in
      Edge.Set.cardinal r.spanner <= Ugraph.m g
      && Edge.Set.subset r.spanner (Ugraph.edge_set g))

let prop_tree_keeps_all_edges =
  QCheck.Test.make ~name:"trees have no redundant edges" ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = Generators.random_tree (Rng.create seed) 20 in
      let r = C.Two_spanner.run ~rng:(Rng.create (seed + 7)) g in
      Edge.Set.cardinal r.spanner = Ugraph.m g)

let prop_ratio_within_bound_vs_exact =
  QCheck.Test.make ~name:"ratio within the proven bound (vs exact)" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = Generators.gnp_connected (Rng.create seed) 9 0.45 in
      let r = C.Two_spanner.run ~rng:(Rng.create (seed + 1)) g in
      let opt = C.Exact.min_2_spanner_size g in
      float_of_int (Edge.Set.cardinal r.spanner)
      <= C.Two_spanner.ratio_bound g *. float_of_int opt)

(* ------------------------------------------------------------------ *)
(* Differential invariants: the incremental Cover2 bookkeeping must
   agree with a from-scratch recomputation after arbitrary random
   addition sequences. *)

let covers_edge ~n spanner e =
  C.Spanner_check.is_spanner_of_targets ~n ~targets:(Edge.Set.singleton e)
    spanner ~k:2

let naive_uncovered ~n ~targets spanner =
  Edge.Set.filter (fun e -> not (covers_edge ~n spanner e)) targets

let naive_hv ~n ~targets ~usable spanner v =
  let nbrs =
    Edge.Set.fold
      (fun e acc ->
        if Edge.mem_endpoint e v then Edge.other e v :: acc else acc)
      usable []
  in
  Edge.Set.filter
    (fun e ->
      let u, w = Edge.endpoints e in
      List.mem u nbrs && List.mem w nbrs
      && not (covers_edge ~n spanner e))
    targets

let prop_cover2_matches_naive =
  QCheck.Test.make ~name:"Cover2 incremental = naive recomputation" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Generators.gnp_connected rng 14 0.4 in
      let n = Ugraph.n g in
      let all = Ugraph.edge_set g in
      let t = C.Cover2.create ~n ~targets:all ~usable:all in
      let added = ref Edge.Set.empty in
      let edges = Array.of_list (Edge.Set.elements all) in
      let ok = ref true in
      for _ = 1 to 6 do
        (* add a random batch *)
        let batch = ref Edge.Set.empty in
        for _ = 1 to 1 + Rng.int rng 4 do
          batch := Edge.Set.add edges.(Rng.int rng (Array.length edges)) !batch
        done;
        C.Cover2.add t !batch ~dirty:(fun _ -> ());
        added := Edge.Set.union !added !batch;
        let expected = naive_uncovered ~n ~targets:all !added in
        if not (Edge.Set.equal expected (C.Cover2.uncovered t)) then ok := false;
        let v = Rng.int rng n in
        let expected_hv = naive_hv ~n ~targets:all ~usable:all !added v in
        if not (Edge.Set.equal expected_hv (C.Cover2.hv t v)) then ok := false
      done;
      !ok)

let prop_cover2_client_server_matches_naive =
  QCheck.Test.make
    ~name:"Cover2 client-server bookkeeping = naive" ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Generators.gnp_connected rng 12 0.45 in
      let n = Ugraph.n g in
      let clients, servers =
        Generators.random_client_server rng g ~client_fraction:0.6
          ~server_fraction:0.7
      in
      let t = C.Cover2.create ~n ~targets:clients ~usable:servers in
      let server_edges = Array.of_list (Edge.Set.elements servers) in
      let added = ref Edge.Set.empty in
      let ok = ref (Array.length server_edges > 0) in
      if !ok then
        for _ = 1 to 5 do
          let e = server_edges.(Rng.int rng (Array.length server_edges)) in
          C.Cover2.add t (Edge.Set.singleton e) ~dirty:(fun _ -> ());
          added := Edge.Set.add e !added;
          let expected = naive_uncovered ~n ~targets:clients !added in
          if not (Edge.Set.equal expected (C.Cover2.uncovered t)) then
            ok := false
        done;
      !ok)

(* ------------------------------------------------------------------ *)
(* query_path: the daemon's QUERY kernel. One scratch is reused across
   every query of a run; the contracts are (a) each returned sequence
   is a real path of the spanner CSR, (b) its hop count is at most
   2 · dist_G(u, v) — a 2-spanner's edge-stretch bound extends to all
   pairs by concatenating the per-edge detours — and (c) reusing the
   scratch never changes an answer (the epoch reset is exact). *)

let bfs_dist g src =
  let n = Ugraph.n g in
  let dist = Array.make n (-1) in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.add src q;
  while not (Queue.is_empty q) do
    let x = Queue.pop q in
    Ugraph.iter_neighbors
      (fun y ->
        if dist.(y) = -1 then begin
          dist.(y) <- dist.(x) + 1;
          Queue.add y q
        end)
      g x
  done;
  dist

let check_is_path sg name p ~u ~v =
  (match p with
  | [] -> Alcotest.fail (name ^ ": empty path")
  | x :: _ -> check_int (name ^ ": starts at u") u x);
  check_int (name ^ ": ends at v") v (List.nth p (List.length p - 1));
  let rec edges = function
    | x :: (y :: _ as rest) ->
        check (name ^ ": consecutive vertices adjacent") true
          (Ugraph.mem_edge sg x y);
        edges rest
    | _ -> ()
  in
  edges p

let test_query_path_stretch_on_anchors () =
  List.iter
    (fun (name, g) ->
      let r = C.Two_spanner_local.run ~seed:9 g in
      let n = Ugraph.n g in
      let sg = C.Spanner_check.spanner_csr ~n r.spanner in
      let q = C.Spanner_check.query_create ~n () in
      (* Every graph edge: covered in <= 2 hops. *)
      Ugraph.iter_edges_uv
        (fun u v ->
          match C.Spanner_check.query_path q sg ~u ~v with
          | None -> Alcotest.fail (Printf.sprintf "%s: edge %d-%d unspanned" name u v)
          | Some p ->
              check_is_path sg name p ~u ~v;
              check (name ^ ": edge stretch <= 2") true (List.length p <= 3))
        g;
      (* Random pairs: stretch <= 2 * dist_G. *)
      let rng = Rng.create 31 in
      for _ = 1 to 50 do
        let u = Rng.int rng n and v = Rng.int rng n in
        let dg = (bfs_dist g u).(v) in
        match C.Spanner_check.query_path q sg ~u ~v with
        | None ->
            check (name ^ ": None only when G disconnects them") true (dg = -1)
        | Some p ->
            check_is_path sg name p ~u ~v;
            check (name ^ ": pair stretch <= 2*distG") true
              (dg >= 0 && List.length p - 1 <= 2 * dg)
      done)
    families

let test_query_path_edge_cases () =
  let g = Generators.path 4 in
  (* spanner = the graph itself *)
  let sg = C.Spanner_check.spanner_csr ~n:6 (Ugraph.edge_set g) in
  let q = C.Spanner_check.query_create () in
  (match C.Spanner_check.query_path q sg ~u:2 ~v:2 with
  | Some [ 2 ] -> ()
  | _ -> Alcotest.fail "u = v must be Some [u]");
  (* vertices 4 and 5 exist but are isolated in the CSR *)
  check "disconnected" true (C.Spanner_check.query_path q sg ~u:0 ~v:5 = None);
  check "out of range raises" true
    (try
       ignore (C.Spanner_check.query_path q sg ~u:0 ~v:6);
       false
     with Invalid_argument _ -> true);
  (* Scratch reuse across graphs of different sizes (the daemon
     reloads): answers match a fresh scratch, query by query. *)
  let g2 = Generators.cycle 40 in
  let sg2 = C.Spanner_check.spanner_csr ~n:40 (Ugraph.edge_set g2) in
  let rng = Rng.create 77 in
  for _ = 1 to 200 do
    let u = Rng.int rng 40 and v = Rng.int rng 40 in
    let fresh = C.Spanner_check.query_create () in
    check "reused scratch = fresh scratch" true
      (C.Spanner_check.query_path q sg2 ~u ~v
      = C.Spanner_check.query_path fresh sg2 ~u ~v)
  done

let prop_stretch_consistent_with_is_spanner =
  QCheck.Test.make ~name:"stretch <= k iff is_spanner" ~count:25
    QCheck.(
      set_shrink Shrink.nil (pair (int_range 1 4) (int_range 0 10_000)))
    (fun (k, seed) ->
      let rng = Rng.create seed in
      let g = Generators.gnp_connected rng 12 0.3 in
      (* random subset *)
      let s = Edge.Set.filter (fun _ -> Rng.bool rng) (Ugraph.edge_set g) in
      C.Spanner_check.is_spanner g s ~k = (C.Spanner_check.stretch g s <= k))

let () =
  Alcotest.run "spanner"
    [
      ( "check",
        [
          Alcotest.test_case "whole graph" `Quick test_whole_graph_is_spanner;
          Alcotest.test_case "2-path" `Quick test_two_path_covers;
          Alcotest.test_case "uncovered" `Quick test_uncovered_listed;
          Alcotest.test_case "stretch" `Quick test_stretch;
          Alcotest.test_case "foreign edge" `Quick test_spanner_edge_must_exist;
          Alcotest.test_case "directed" `Quick test_directed_check;
          Alcotest.test_case "query_path stretch" `Quick
            test_query_path_stretch_on_anchors;
          Alcotest.test_case "query_path edge cases" `Quick
            test_query_path_edge_cases;
        ] );
      ( "cover2",
        [
          Alcotest.test_case "initial hv" `Quick test_cover2_initial_hv;
          Alcotest.test_case "star add" `Quick test_cover2_star_add_covers;
          Alcotest.test_case "incremental hv" `Quick test_cover2_incremental_hv;
          Alcotest.test_case "membership coverage" `Quick
            test_cover2_two_path_coverage;
          Alcotest.test_case "uncoverable" `Quick
            test_cover2_client_server_uncoverable;
          Alcotest.test_case "non-usable rejected" `Quick
            test_cover2_rejects_non_usable;
        ] );
      ( "star_pick",
        [
          Alcotest.test_case "density" `Quick test_star_density;
          Alcotest.test_case "densest" `Quick test_star_densest;
          Alcotest.test_case "spanned" `Quick test_star_spanned;
          Alcotest.test_case "extend grows" `Quick test_star_extend_grows;
          Alcotest.test_case "extend allowed" `Quick
            test_star_extend_respects_allowed;
          Alcotest.test_case "free nodes" `Quick test_star_free_nodes;
          Alcotest.test_case "hv frame" `Quick test_star_hv_frame;
          QCheck_alcotest.to_alcotest prop_star_spanned_count;
          Alcotest.test_case "rounded exponent" `Quick test_rounded_exponent;
        ] );
      ( "two_spanner",
        [
          Alcotest.test_case "valid on families" `Quick
            test_two_spanner_valid_on_families;
          Alcotest.test_case "complete graph quality" `Quick
            test_two_spanner_complete_graph_quality;
          Alcotest.test_case "triangle-free takes all" `Quick
            test_two_spanner_triangle_free_takes_all;
          Alcotest.test_case "ratio vs exact" `Quick
            test_two_spanner_ratio_bound_on_small;
          Alcotest.test_case "deterministic" `Quick
            test_two_spanner_deterministic_given_seed;
          Alcotest.test_case "round accounting" `Quick
            test_two_spanner_rounds_accounting;
          Alcotest.test_case "degenerate graphs" `Quick
            test_two_spanner_empty_and_single;
          Alcotest.test_case "disconnected" `Quick test_two_spanner_disconnected;
          Alcotest.test_case "selection rules" `Quick
            test_selection_rules_all_valid;
          Alcotest.test_case "iteration guard" `Quick
            test_iteration_guard_raises;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_always_valid; prop_spanner_at_most_all_edges;
            prop_tree_keeps_all_edges; prop_ratio_within_bound_vs_exact;
            prop_cover2_matches_naive;
            prop_cover2_client_server_matches_naive;
            prop_stretch_consistent_with_is_spanner;
          ] );
    ]
