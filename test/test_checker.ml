(* The checker kernel against the checkers it replaced.

   Every coverage, stretch and distance question in the library runs
   on one bounded BFS (Traversal.search over a CSR). The reference
   module below transcribes the per-edge BFS checkers that came
   before it — list adjacency, a fresh O(n) distance array and a
   Queue per edge — and the properties require the kernel to give the
   same verdicts, the same uncovered lists in the same order, the same
   stretch, the same Spanner_stats records, the same directed
   distances and the same QUERY paths. The "gc" suite then pins the
   kernel's allocation on a 3000-vertex spanner under a fixed words
   ceiling. *)

open Grapho
module C = Spanner_core
module L = Lowerbound
module Dset = Edge.Directed.Set

let check = Alcotest.(check bool)

module Ref = struct
  let adjacency_of_set ~n set =
    let adj = Array.make n [] in
    Edge.Set.iter
      (fun e ->
        let u, v = Edge.endpoints e in
        adj.(u) <- v :: adj.(u);
        adj.(v) <- u :: adj.(v))
      set;
    adj

  let directed_adjacency_of_set ~n set =
    let adj = Array.make n [] in
    Dset.iter (fun (u, v) -> adj.(u) <- v :: adj.(u)) set;
    adj

  let bounded_reach adj n src dst bound =
    if src = dst then true
    else begin
      let dist = Array.make n (-1) in
      let q = Queue.create () in
      dist.(src) <- 0;
      Queue.add src q;
      let found = ref false in
      (try
         while not (Queue.is_empty q) do
           let x = Queue.pop q in
           if dist.(x) < bound then
             List.iter
               (fun y ->
                 if dist.(y) = -1 then begin
                   dist.(y) <- dist.(x) + 1;
                   if y = dst then begin
                     found := true;
                     raise Exit
                   end;
                   Queue.add y q
                 end)
               adj.(x)
         done
       with Exit -> ());
      !found
    end

  let bounded_bfs ~adj ~n u v ~bound =
    if u = v then 0
    else begin
      let dist = Array.make n max_int in
      let q = Queue.create () in
      dist.(u) <- 0;
      Queue.add u q;
      let answer = ref max_int in
      (try
         while not (Queue.is_empty q) do
           let x = Queue.pop q in
           if dist.(x) < bound then
             List.iter
               (fun y ->
                 if dist.(y) = max_int then begin
                   dist.(y) <- dist.(x) + 1;
                   if y = v then begin
                     answer := dist.(y);
                     raise Exit
                   end;
                   Queue.add y q
                 end)
               adj.(x)
         done
       with Exit -> ());
      !answer
    end

  let directed_set_distance_within ~n set u v ~bound =
    bounded_bfs ~adj:(directed_adjacency_of_set ~n set) ~n u v ~bound

  (* Unbounded BFS from [u], the distance of [v] or -1. *)
  let bfs_dist adj n u v =
    let dist = Array.make n (-1) in
    let q = Queue.create () in
    dist.(u) <- 0;
    Queue.add u q;
    while not (Queue.is_empty q) do
      let x = Queue.pop q in
      List.iter
        (fun y ->
          if dist.(y) = -1 then begin
            dist.(y) <- dist.(x) + 1;
            Queue.add y q
          end)
        adj.(x)
    done;
    dist.(v)

  let uncovered_of_targets ~n ~targets s ~k =
    let adj = adjacency_of_set ~n s in
    Edge.Set.fold
      (fun e acc ->
        let u, v = Edge.endpoints e in
        if bounded_reach adj n u v k then acc else e :: acc)
      targets []

  let uncovered_edges g s ~k =
    uncovered_of_targets ~n:(Ugraph.n g) ~targets:(Ugraph.edge_set g) s ~k

  let is_spanner g s ~k =
    Edge.Set.iter
      (fun e ->
        let u, v = Edge.endpoints e in
        if not (Ugraph.mem_edge g u v) then invalid_arg "foreign edge")
      s;
    uncovered_edges g s ~k = []

  let directed_uncovered_edges g s ~k =
    let n = Dgraph.n g in
    let adj = directed_adjacency_of_set ~n s in
    Dgraph.fold_edges
      (fun (u, v) acc ->
        if bounded_reach adj n u v k then acc else (u, v) :: acc)
      g []

  let stretch g s =
    let n = Ugraph.n g in
    let adj = adjacency_of_set ~n s in
    Ugraph.fold_edges
      (fun e acc ->
        let u, v = Edge.endpoints e in
        if acc = max_int then max_int
        else
          let d = bfs_dist adj n u v in
          if d = -1 then max_int else max acc d)
      g 0

  (* Spanner_stats' streaming accumulator over the per-edge
     distances. *)
  let stats ~edges ~graph_edges dists =
    let histogram = Hashtbl.create 8 in
    let sum = ref 0 and count = ref 0 and worst = ref 0 in
    List.iter
      (fun s ->
        Hashtbl.replace histogram s
          (1 + Option.value ~default:0 (Hashtbl.find_opt histogram s));
        if s < max_int then begin
          sum := !sum + s;
          incr count
        end;
        if s > !worst then worst := s)
      dists;
    {
      C.Spanner_stats.edges;
      graph_edges;
      compression = float_of_int edges /. float_of_int (max 1 graph_edges);
      max_stretch = !worst;
      mean_stretch =
        (if !count = 0 then 0.0
         else float_of_int !sum /. float_of_int !count);
      stretch_histogram =
        List.sort compare
          (Hashtbl.fold (fun s c acc -> (s, c) :: acc) histogram []);
    }

  let finite d = if d = -1 then max_int else d

  let compute g s =
    let n = Ugraph.n g in
    let adj = adjacency_of_set ~n s in
    stats ~edges:(Edge.Set.cardinal s) ~graph_edges:(Ugraph.m g)
      (Ugraph.fold_edges
         (fun e acc ->
           let u, v = Edge.endpoints e in
           finite (bfs_dist adj n u v) :: acc)
         g [])

  let directed_compute g s =
    let n = Dgraph.n g in
    let adj = directed_adjacency_of_set ~n s in
    stats ~edges:(Dset.cardinal s) ~graph_edges:(Dgraph.m g)
      (Dgraph.fold_edges
         (fun (u, v) acc -> finite (bfs_dist adj n u v) :: acc)
         g [])

  (* The daemon's QUERY BFS: CSR neighbor order, parent walk. *)
  let query_path sg ~u ~v =
    let n = Ugraph.n sg in
    if u = v then Some [ u ]
    else begin
      let parent = Array.make n (-1) in
      let q = Queue.create () in
      parent.(u) <- u;
      Queue.add u q;
      (try
         while not (Queue.is_empty q) do
           let x = Queue.pop q in
           Ugraph.iter_neighbors
             (fun y ->
               if parent.(y) = -1 then begin
                 parent.(y) <- x;
                 if y = v then raise Exit;
                 Queue.add y q
               end)
             sg x
         done
       with Exit -> ());
      if parent.(v) = -1 then None
      else
        let rec walk x acc =
          if x = u then u :: acc else walk parent.(x) (x :: acc)
        in
        Some (walk v [])
    end

  let check_claim_2_2 (t : L.Construction_g.t) ~i ~r =
    let nn = L.Construction_g.n t in
    let ell = t.L.Construction_g.ell in
    let open_ =
      (not t.inputs.L.Disjointness.a.((i * ell) + r))
      || not t.inputs.L.Disjointness.b.((i * ell) + r)
    in
    let without_d = L.Construction_g.non_d_edges t in
    let full = Dgraph.edge_set t.graph in
    let ok = ref true in
    for j = 0 to t.beta - 1 do
      for s = 0 to t.beta - 1 do
        let src = L.Construction_g.x2v t i j
        and dst = L.Construction_g.y2v t r s in
        if open_ then begin
          if directed_set_distance_within ~n:nn without_d src dst ~bound:5 > 5
          then ok := false
        end
        else if
          directed_set_distance_within ~n:nn (Dset.remove (src, dst) full) src
            dst ~bound:nn
          <> max_int
        then ok := false
      done
    done;
    !ok

  let min_d_edges_needed (t : L.Construction_gw.t) =
    let nn = L.Construction_gw.n t in
    let zero = L.Construction_gw.zero_weight_edges t in
    Dset.fold
      (fun (u, v) acc ->
        if directed_set_distance_within ~n:nn zero u v ~bound:nn = max_int
        then acc + 1
        else acc)
      t.d_edges 0
end

let subset rng p set = Edge.Set.filter (fun _ -> Rng.float rng 1.0 < p) set

(* Random n-vertex instance: a gnp graph, a candidate subset of its
   edges, and targets mixing graph edges with arbitrary pairs. *)
let undirected_instance seed =
  let rng = Rng.create seed in
  let n = 1 + Rng.int rng 14 in
  let g = Generators.gnp rng n (0.1 +. Rng.float rng 0.6) in
  let s = subset rng (Rng.float rng 1.0) (Ugraph.edge_set g) in
  let targets = ref (subset rng 0.7 (Ugraph.edge_set g)) in
  for _ = 1 to Rng.int rng 6 do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then targets := Edge.Set.add (Edge.make u v) !targets
  done;
  (rng, g, s, !targets)

(* (k, seed) pairs with no shrinker: QCheck shrinks an [int_range]
   toward 0 whatever its lower bound, so a shrunk failure would report
   a k the generator never draws (and a smaller seed is an unrelated
   case, not a simpler one). The property suites draw every
   [int_range a b] with a > 0 this way. *)
let k_and_seed =
  QCheck.(
    set_shrink Shrink.nil (pair (int_range 1 4) (int_range 0 1_000_000)))

let prop_undirected =
  QCheck.Test.make ~name:"undirected checkers = per-edge BFS reference"
    ~count:300 k_and_seed
    (fun (k, seed) ->
      let rng, g, s, targets = undirected_instance seed in
      let n = Ugraph.n g in
      C.Spanner_check.is_spanner g s ~k = Ref.is_spanner g s ~k
      && C.Spanner_check.is_2_spanner_fast g s = Ref.is_spanner g s ~k:2
      && C.Spanner_check.uncovered_edges g s ~k = Ref.uncovered_edges g s ~k
      && C.Spanner_check.uncovered_of_targets ~n ~targets s ~k
         = Ref.uncovered_of_targets ~n ~targets s ~k
      && C.Spanner_check.is_spanner_of_targets ~n ~targets s ~k
         = (Ref.uncovered_of_targets ~n ~targets s ~k = [])
      && C.Spanner_check.stretch g s = Ref.stretch g s
      && C.Spanner_stats.compute g s = Ref.compute g s
      &&
      let q = C.Spanner_check.query_create () in
      let sg = Ugraph.of_edge_set ~n s in
      List.for_all
        (fun _ ->
          let u = Rng.int rng n and v = Rng.int rng n in
          C.Spanner_check.query_path q sg ~u ~v = Ref.query_path sg ~u ~v)
        (List.init 8 Fun.id))

let prop_directed =
  QCheck.Test.make ~name:"directed checkers = per-edge BFS reference"
    ~count:300 k_and_seed
    (fun (k, seed) ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 12 in
      let p = 0.1 +. Rng.float rng 0.4 in
      let pairs = ref [] in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v && Rng.float rng 1.0 < p then pairs := (u, v) :: !pairs
        done
      done;
      let g = Dgraph.of_edges ~n !pairs in
      let q = Rng.float rng 1.0 in
      let s =
        Dset.filter (fun _ -> Rng.float rng 1.0 < q) (Dgraph.edge_set g)
      in
      let sc = Traversal.scratch ()
      and w = Traversal.out_edges (Dgraph.of_edge_set ~n s) in
      C.Spanner_check.directed_uncovered_edges g s ~k
      = Ref.directed_uncovered_edges g s ~k
      && C.Spanner_check.is_directed_spanner g s ~k
         = (Ref.directed_uncovered_edges g s ~k = [])
      && C.Spanner_stats.directed_compute g s = Ref.directed_compute g s
      && List.for_all
           (fun bound ->
             List.for_all
               (fun u ->
                 List.for_all
                   (fun v ->
                     Traversal.distance_within sc w ~bound u v
                     = Ref.directed_set_distance_within ~n s u v ~bound)
                   (List.init n Fun.id))
               (List.init n Fun.id))
           [ k; n ])

(* The lower-bound constructions' distance callers, on random
   (including intersecting) inputs. *)
let prop_constructions =
  QCheck.Test.make ~name:"Construction_g(w) distances = reference" ~count:30
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let ell = 1 + Rng.int rng 3 in
      let inputs =
        L.Disjointness.random rng ~n:(ell * ell) ~density:(Rng.float rng 1.0)
      in
      let t = L.Construction_g.build ~ell ~beta:(ell + Rng.int rng 2) inputs in
      let tw = L.Construction_gw.build ~ell inputs in
      L.Construction_gw.min_d_edges_needed tw = Ref.min_d_edges_needed tw
      && List.for_all
           (fun i ->
             List.for_all
               (fun r ->
                 L.Construction_g.check_claim_2_2 t ~i ~r
                 = Ref.check_claim_2_2 t ~i ~r)
               (List.init ell Fun.id))
           (List.init ell Fun.id))

(* Allocation guard. On the LOCAL 2-spanner of caveman 3000 the
   per-edge BFS checkers allocated 33.9 M (is_spanner ~k:3) and 326 M
   (stretch, Spanner_stats.compute) words: an O(n) array and a Queue
   per edge. On the kernel each call is one O(n) scratch plus a few
   closure words per search, ~0.27 M words at most here. Arrays over
   256 words skip the minor heap, so the count is minor words plus
   words allocated directly in the major heap. *)
let checker_words_ceiling = 2_000_000.0

let words f =
  let mi0, pr0, ma0 = Gc.counters () in
  ignore (Sys.opaque_identity (f ()));
  let mi1, pr1, ma1 = Gc.counters () in
  mi1 -. mi0 +. (ma1 -. ma0) -. (pr1 -. pr0)

let test_checker_gc_guard () =
  let g = Generators.caveman_n (Rng.create 1) 3000 0.1 in
  let s = (C.Two_spanner_local.run ~par:1 g).spanner in
  List.iter
    (fun (name, f) ->
      let spent = words f in
      check
        (Printf.sprintf "%s: %.0f words under ceiling %.0f" name spent
           checker_words_ceiling)
        true
        (spent < checker_words_ceiling))
    [
      ( "is_spanner ~k:3",
        fun () -> Obj.repr (C.Spanner_check.is_spanner g s ~k:3) );
      ("stretch", fun () -> Obj.repr (C.Spanner_check.stretch g s));
      ( "Spanner_stats.compute",
        fun () -> Obj.repr (C.Spanner_stats.compute g s) );
    ]

let () =
  Alcotest.run "checker"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ prop_undirected; prop_directed; prop_constructions ] );
      ( "gc",
        [ Alcotest.test_case "checker words" `Quick test_checker_gc_guard ] );
    ]
