open Grapho

type result = {
  spanner : Edge.Set.t;
  cost : float;
  iterations : int;
  rounds : int;
  stars_added : int;
  candidate_count : int;
}

(* wmax over the closed 2-neighborhood of each vertex: the largest
   weight of an edge adjacent to a vertex at distance at most 2. *)
let wmax_two_hop g w =
  let n = Ugraph.n g in
  let own = Array.make n 0.0 in
  for v = 0 to n - 1 do
    own.(v) <-
      Ugraph.fold_neighbors
        (fun acc u -> Float.max acc (Weights.get_uv w v u))
        g v 0.0
  done;
  let hop array =
    Array.init n (fun v ->
        Ugraph.fold_neighbors (fun acc u -> max acc array.(u)) g v array.(v))
  in
  hop (hop own)

let rules g w =
  let wmax2 = wmax_two_hop g w in
  let floor_of v = if wmax2.(v) > 0.0 then 1.0 /. wmax2.(v) else infinity in
  {
    Two_spanner_engine.weight = Weights.get_uv w;
    (* The weighted variant places no density floor on candidacy
       (stars of density below 1 are expressly allowed, §4.3.2). *)
    candidate_ok = (fun _ rho -> rho > 0.0);
    terminate_ok = (fun v max_rho -> max_rho <= floor_of v);
    dominance_includes_terminated = false;
  }

let run ?rng ?seed ?max_iterations ?(selection = Two_spanner_engine.Votes 0.125) g w =
  let edges = Ugraph.edge_set g in
  let spec =
    {
      Two_spanner_engine.graph = g;
      targets = edges;
      usable = edges;
      finalize = (fun _ -> true);
      rules = rules g w;
      selection;
    }
  in
  let r = Two_spanner_engine.run ?rng ?seed ?max_iterations spec in
  assert (Edge.Set.is_empty r.uncovered);
  {
    spanner = r.spanner;
    cost = Weights.cost w r.spanner;
    iterations = r.iterations;
    rounds = r.rounds;
    stars_added = r.stars_added;
    candidate_count = r.candidate_count;
  }
