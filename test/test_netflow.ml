(* Tests for Dinic max-flow and Goldberg maximum-density subgraph. *)

let check = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Maxflow *)

let test_single_edge () =
  let net = Netflow.Maxflow.create 2 in
  Netflow.Maxflow.add_edge net ~src:0 ~dst:1 ~cap:3.5;
  check_float "flow" 3.5 (Netflow.Maxflow.max_flow net ~s:0 ~t:1)

let test_series_bottleneck () =
  let net = Netflow.Maxflow.create 3 in
  Netflow.Maxflow.add_edge net ~src:0 ~dst:1 ~cap:5.0;
  Netflow.Maxflow.add_edge net ~src:1 ~dst:2 ~cap:2.0;
  check_float "bottleneck" 2.0 (Netflow.Maxflow.max_flow net ~s:0 ~t:2)

let test_parallel_paths () =
  let net = Netflow.Maxflow.create 4 in
  Netflow.Maxflow.add_edge net ~src:0 ~dst:1 ~cap:3.0;
  Netflow.Maxflow.add_edge net ~src:1 ~dst:3 ~cap:3.0;
  Netflow.Maxflow.add_edge net ~src:0 ~dst:2 ~cap:4.0;
  Netflow.Maxflow.add_edge net ~src:2 ~dst:3 ~cap:1.0;
  check_float "sum of paths" 4.0 (Netflow.Maxflow.max_flow net ~s:0 ~t:3)

let test_classic_network () =
  (* CLRS figure: max flow 23. *)
  let net = Netflow.Maxflow.create 6 in
  let edges =
    [ (0, 1, 16.); (0, 2, 13.); (1, 2, 10.); (2, 1, 4.); (1, 3, 12.);
      (3, 2, 9.); (2, 4, 14.); (4, 3, 7.); (3, 5, 20.); (4, 5, 4.) ]
  in
  List.iter
    (fun (src, dst, cap) -> Netflow.Maxflow.add_edge net ~src ~dst ~cap)
    edges;
  check_float "CLRS" 23.0 (Netflow.Maxflow.max_flow net ~s:0 ~t:5)

let test_min_cut_side () =
  let net = Netflow.Maxflow.create 3 in
  Netflow.Maxflow.add_edge net ~src:0 ~dst:1 ~cap:1.0;
  Netflow.Maxflow.add_edge net ~src:1 ~dst:2 ~cap:100.0;
  ignore (Netflow.Maxflow.max_flow net ~s:0 ~t:2);
  let side = Netflow.Maxflow.min_cut_side net ~s:0 in
  check "s side" true side.(0);
  check "cut after bottleneck" false side.(1);
  check "t side" false side.(2)

let test_disconnected_flow () =
  let net = Netflow.Maxflow.create 3 in
  Netflow.Maxflow.add_edge net ~src:0 ~dst:1 ~cap:5.0;
  check_float "no path" 0.0 (Netflow.Maxflow.max_flow net ~s:0 ~t:2)

let test_negative_capacity_rejected () =
  let net = Netflow.Maxflow.create 2 in
  check "raises" true
    (try
       Netflow.Maxflow.add_edge net ~src:0 ~dst:1 ~cap:(-1.0);
       false
     with Invalid_argument _ -> true)

(* One network reset and refilled across growing and shrinking sizes
   must behave exactly like a fresh one: same flow value, bit for bit,
   and the same minimum-cut side. *)
let test_reset_reuse () =
  let rng = Grapho.Rng.create 5 in
  let net = Netflow.Maxflow.create 0 in
  List.iter
    (fun n ->
      let fresh = Netflow.Maxflow.create n in
      Netflow.Maxflow.reset net n;
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v && Grapho.Rng.float rng 1.0 < 0.3 then begin
            let cap = Grapho.Rng.float rng 10.0 in
            Netflow.Maxflow.add_edge fresh ~src:u ~dst:v ~cap;
            Netflow.Maxflow.add_edge net ~src:u ~dst:v ~cap
          end
        done
      done;
      let t = n - 1 in
      let expected = Netflow.Maxflow.max_flow fresh ~s:0 ~t in
      let got = Netflow.Maxflow.max_flow net ~s:0 ~t in
      check (Printf.sprintf "flow n=%d" n) true (Float.equal expected got);
      check (Printf.sprintf "cut n=%d" n) true
        (Netflow.Maxflow.min_cut_side fresh ~s:0
        = Netflow.Maxflow.min_cut_side net ~s:0))
    [ 6; 20; 3; 40; 40; 10; 2; 25 ]

(* ------------------------------------------------------------------ *)
(* Densest subgraph *)

let test_densest_triangle_plus_pendant () =
  (* Triangle 0-1-2 with pendant 3: both the triangle and the whole
     graph achieve the maximum density 1. *)
  let edges = [| (0, 1); (1, 2); (0, 2); (2, 3) |] in
  match Netflow.Densest.densest_subset ~n:4 ~edges () with
  | Some (subset, d) ->
      check "contains triangle" true
        (List.for_all (fun v -> List.mem v subset) [ 0; 1; 2 ]);
      check_float "density 1" 1.0 d
  | None -> Alcotest.fail "expected a subset"

let test_densest_empty () =
  check "no edges -> none" true
    (Netflow.Densest.densest_subset ~n:5 ~edges:[||] () = None)

let test_densest_clique_inside_sparse () =
  (* K4 on 0..3 (density 1.5) dangling path 4-5-6. *)
  let edges =
    [| (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3); (3, 4); (4, 5); (5, 6) |]
  in
  match Netflow.Densest.densest_subset ~n:7 ~edges () with
  | Some (subset, d) ->
      Alcotest.(check (list int)) "K4" [ 0; 1; 2; 3 ] subset;
      check_float "density" 1.5 d
  | None -> Alcotest.fail "expected a subset"

let test_densest_with_weights () =
  (* One heavy node makes the pair (0,1) denser than the triangle. *)
  let edges = [| (0, 1); (1, 2); (0, 2) |] in
  let weights = [| 1.0; 1.0; 10.0 |] in
  match Netflow.Densest.densest_subset ~weights ~n:3 ~edges () with
  | Some (subset, d) ->
      Alcotest.(check (list int)) "skip heavy" [ 0; 1 ] subset;
      check_float "density" 0.5 d
  | None -> Alcotest.fail "expected a subset"

let test_densest_with_bonuses () =
  (* No edges, but node 2 has a bonus. *)
  let bonuses = [| 0.0; 0.0; 4.0 |] in
  match Netflow.Densest.densest_subset ~bonuses ~n:3 ~edges:[||] () with
  | Some (subset, d) ->
      Alcotest.(check (list int)) "bonus node" [ 2 ] subset;
      check_float "density" 4.0 d
  | None -> Alcotest.fail "expected a subset"

let test_density_of () =
  let edges = [| (0, 1); (1, 2); (0, 2) |] in
  check_float "triangle" 1.0 (Netflow.Densest.density_of ~edges [ 0; 1; 2 ]);
  check_float "pair" 0.5 (Netflow.Densest.density_of ~edges [ 0; 1 ])

let random_instance seed =
  let rng = Grapho.Rng.create seed in
  let n = 2 + Grapho.Rng.int rng 8 in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Grapho.Rng.float rng 1.0 < 0.45 then edges := (u, v) :: !edges
    done
  done;
  (n, Array.of_list !edges, rng)

let prop_flow_matches_brute_density =
  QCheck.Test.make ~name:"flow densest = brute force (unit weights)"
    ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let n, edges, _ = random_instance seed in
      match
        ( Netflow.Densest.densest_subset ~n ~edges (),
          Netflow.Densest.brute_force ~n ~edges () )
      with
      | None, None -> true
      | Some (_, d1), Some (_, d2) -> Float.abs (d1 -. d2) < 1e-9
      | _ -> false)

let prop_flow_matches_brute_weighted =
  QCheck.Test.make ~name:"flow densest = brute force (weights + bonuses)"
    ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let n, edges, rng = random_instance seed in
      let weights =
        Array.init n (fun _ -> 0.5 +. Grapho.Rng.float rng 3.0)
      in
      let bonuses =
        Array.init n (fun _ -> float_of_int (Grapho.Rng.int rng 3))
      in
      match
        ( Netflow.Densest.densest_subset ~weights ~bonuses ~n ~edges (),
          Netflow.Densest.brute_force ~weights ~bonuses ~n ~edges () )
      with
      | None, None -> true
      | Some (_, d1), Some (_, d2) -> Float.abs (d1 -. d2) < 1e-6
      | _ -> false)

(* Flow-path instances: n >= 13 is past the bitmask solver's limit, so
   every call below goes through the min-cut search. A third of them
   plant two disjoint equal cliques, so the densest set is tied and the
   canonical choice matters. Edges come in shuffled order: the first
   one is the search's seed. *)
let flow_instance seed =
  let rng = Grapho.Rng.create seed in
  let n = 13 + Grapho.Rng.int rng 8 in
  let label = Array.init n (fun i -> i) in
  Grapho.Rng.shuffle rng label;
  let edges = ref [] in
  let add u v = edges := (label.(u), label.(v)) :: !edges in
  (if seed mod 3 = 0 then begin
     (* Two K_k on [0, 2k); every other vertex hangs off at most one
        clique vertex and sparse noise, so neither beats (k-1)/2. *)
     let k = 5 + Grapho.Rng.int rng 2 in
     for u = 0 to (2 * k) - 1 do
       for v = u + 1 to (2 * k) - 1 do
         if u / k = v / k then add u v
       done
     done;
     for w = 2 * k to n - 1 do
       if Grapho.Rng.bool rng then add (Grapho.Rng.int rng (2 * k)) w;
       for x = w + 1 to n - 1 do
         if Grapho.Rng.float rng 1.0 < 0.15 then add w x
       done
     done
   end
   else begin
     let p = 0.2 +. Grapho.Rng.float rng 0.4 in
     for u = 0 to n - 1 do
       for v = u + 1 to n - 1 do
         if Grapho.Rng.float rng 1.0 < p then add u v
       done
     done
   end);
  let edges = Array.of_list !edges in
  Grapho.Rng.shuffle rng edges;
  (n, edges, rng)

let prop_flow_path_unit =
  QCheck.Test.make ~name:"flow path (n 13-20) = brute force (unit weights)"
    ~count:12
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let n, edges, _ = flow_instance seed in
      match
        ( Netflow.Densest.densest_subset ~n ~edges (),
          Netflow.Densest.brute_force ~n ~edges () )
      with
      | None, None -> true
      | Some (s, d1), Some (_, d2) ->
          Float.abs (d1 -. d2) < 1e-9
          && Netflow.Densest.density_of ~edges s = d1
      | _ -> false)

let prop_flow_path_weighted =
  QCheck.Test.make
    ~name:"flow path (n 13-20) = brute force (weights + bonuses)" ~count:12
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let n, edges, rng = flow_instance seed in
      let weights =
        Array.init n (fun _ -> 0.5 +. Grapho.Rng.float rng 3.0)
      in
      let bonuses =
        Array.init n (fun _ -> float_of_int (Grapho.Rng.int rng 3))
      in
      match
        ( Netflow.Densest.densest_subset ~weights ~bonuses ~n ~edges (),
          Netflow.Densest.brute_force ~weights ~bonuses ~n ~edges () )
      with
      | None, None -> true
      | Some (s, d1), Some (_, d2) ->
          Float.abs (d1 -. d2) < 1e-6
          && Netflow.Densest.density_of ~weights ~bonuses ~edges s = d1
      | _ -> false)

(* The unit-weight answer is canonical: the densest sets are closed
   under union, and the solver returns their union (the inclusion-
   maximal densest set), unless the seed edge is already densest, in
   which case it returns the seed. Densities are compared exactly as
   the rationals e(S)/|S|, enumerating all 2^n subsets. *)
let prop_flow_path_canonical =
  QCheck.Test.make
    ~name:"flow path (n 13-20) returns the inclusion-maximal densest set"
    ~count:12
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let n, edges, _ = flow_instance seed in
      let adj = Array.make n 0 in
      Array.iter
        (fun (u, v) ->
          adj.(u) <- adj.(u) lor (1 lsl v);
          adj.(v) <- adj.(v) lor (1 lsl u))
        edges;
      let rec popcount x =
        if x = 0 then 0 else 1 + popcount (x land (x - 1))
      in
      let inside mask =
        let e = ref 0 in
        for v = 0 to n - 1 do
          if mask land (1 lsl v) <> 0 then
            e := !e + popcount (adj.(v) land mask)
        done;
        !e / 2
      in
      (* Best density e/k so far and the union of the sets attaining it. *)
      let be = ref 0 and bk = ref 1 and union = ref 0 in
      for mask = 1 to (1 lsl n) - 1 do
        let e = inside mask and k = popcount mask in
        let c = compare (e * !bk) (!be * k) in
        if c > 0 then begin
          be := e;
          bk := k;
          union := mask
        end
        else if c = 0 then union := !union lor mask
      done;
      let as_list mask =
        List.filter (fun v -> mask land (1 lsl v) <> 0) (List.init n Fun.id)
      in
      let expected =
        if Array.length edges = 0 then None
        else
          let u0, v0 = edges.(0) in
          if 2 * !be = !bk then Some (List.sort compare [ u0; v0 ])
          else Some (as_list !union)
      in
      match (Netflow.Densest.densest_subset ~n ~edges (), expected) with
      | None, None -> true
      | Some (s, _), Some x -> s = x
      | _ -> false)

let prop_returned_subset_has_returned_density =
  QCheck.Test.make ~name:"reported density is exact for reported subset"
    ~count:50
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let n, edges, _ = random_instance seed in
      match Netflow.Densest.densest_subset ~n ~edges () with
      | None -> edges = [||]
      | Some (subset, d) ->
          Float.abs (Netflow.Densest.density_of ~edges subset -. d) < 1e-9)

let () =
  Alcotest.run "netflow"
    [
      ( "maxflow",
        [
          Alcotest.test_case "single edge" `Quick test_single_edge;
          Alcotest.test_case "series" `Quick test_series_bottleneck;
          Alcotest.test_case "parallel" `Quick test_parallel_paths;
          Alcotest.test_case "classic" `Quick test_classic_network;
          Alcotest.test_case "min cut side" `Quick test_min_cut_side;
          Alcotest.test_case "disconnected" `Quick test_disconnected_flow;
          Alcotest.test_case "negative rejected" `Quick
            test_negative_capacity_rejected;
          Alcotest.test_case "reset reuse" `Quick test_reset_reuse;
        ] );
      ( "densest",
        [
          Alcotest.test_case "triangle" `Quick
            test_densest_triangle_plus_pendant;
          Alcotest.test_case "empty" `Quick test_densest_empty;
          Alcotest.test_case "clique inside sparse" `Quick
            test_densest_clique_inside_sparse;
          Alcotest.test_case "weights" `Quick test_densest_with_weights;
          Alcotest.test_case "bonuses" `Quick test_densest_with_bonuses;
          Alcotest.test_case "density_of" `Quick test_density_of;
          QCheck_alcotest.to_alcotest prop_flow_matches_brute_density;
          QCheck_alcotest.to_alcotest prop_flow_matches_brute_weighted;
          QCheck_alcotest.to_alcotest prop_returned_subset_has_returned_density;
          QCheck_alcotest.to_alcotest prop_flow_path_unit;
          QCheck_alcotest.to_alcotest prop_flow_path_weighted;
          QCheck_alcotest.to_alcotest prop_flow_path_canonical;
        ] );
    ]
