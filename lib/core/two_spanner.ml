open Grapho

type result = {
  spanner : Edge.Set.t;
  iterations : int;
  rounds : int;
  stars_added : int;
  candidate_count : int;
}

let run ?rng ?seed ?max_iterations ?(selection = Two_spanner_engine.Votes 0.125)
    ?trace ?sink g =
  let edges = Ugraph.edge_set g in
  let spec =
    {
      Two_spanner_engine.graph = g;
      targets = edges;
      usable = edges;
      finalize = (fun _ -> true);
      rules = Two_spanner_engine.unweighted;
      selection;
    }
  in
  let r = Two_spanner_engine.run ?rng ?seed ?max_iterations ?trace ?sink spec in
  assert (Edge.Set.is_empty r.uncovered);
  {
    spanner = r.spanner;
    iterations = r.iterations;
    rounds = r.rounds;
    stars_added = r.stars_added;
    candidate_count = r.candidate_count;
  }

let ratio_bound g =
  let n = float_of_int (max 1 (Ugraph.n g)) in
  let m = float_of_int (max 1 (Ugraph.m g)) in
  8.0 *. ((Float.log (m /. n) /. Float.log 2.0) +. 2.0)
