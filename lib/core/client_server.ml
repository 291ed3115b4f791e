open Grapho

type result = {
  spanner : Edge.Set.t;
  iterations : int;
  rounds : int;
  stars_added : int;
  candidate_count : int;
  uncoverable : Edge.Set.t;
}

let validate g set name =
  Edge.Set.iter
    (fun e ->
      let u, v = Edge.endpoints e in
      if not (Ugraph.mem_edge g u v) then
        invalid_arg (Printf.sprintf "Client_server.run: %s edge not in graph" name))
    set

let run ?rng ?seed ?max_iterations
    ?(selection = Two_spanner_engine.Votes 0.125) g ~clients ~servers =
  validate g clients "client";
  validate g servers "server";
  let both = Edge.Set.inter clients servers in
  let spec =
    {
      Two_spanner_engine.graph = g;
      targets = clients;
      usable = servers;
      finalize = (fun e -> Edge.Set.mem e both);
      rules =
        {
          Two_spanner_engine.unweighted with
          candidate_ok = (fun _ rho -> rho >= 0.5);
          terminate_ok = (fun _ max_rho -> max_rho < 0.5);
        };
      selection;
    }
  in
  let r = Two_spanner_engine.run ?rng ?seed ?max_iterations spec in
  {
    spanner = r.spanner;
    iterations = r.iterations;
    rounds = r.rounds;
    stars_added = r.stars_added;
    candidate_count = r.candidate_count;
    uncoverable = r.uncovered;
  }

let ratio_bound _g ~clients ~servers =
  let log2 x = Float.log x /. Float.log 2.0 in
  let c = float_of_int (max 1 (Edge.Set.cardinal clients)) in
  let module Iset = Set.Make (Int) in
  let vc =
    Edge.Set.fold
      (fun e acc ->
        let u, v = Edge.endpoints e in
        Iset.add u (Iset.add v acc))
      clients Iset.empty
  in
  let vcount = float_of_int (max 1 (Iset.cardinal vc)) in
  let deg = Hashtbl.create 64 in
  Edge.Set.iter
    (fun e ->
      let u, v = Edge.endpoints e in
      List.iter
        (fun x ->
          Hashtbl.replace deg x
            (1 + Option.value ~default:0 (Hashtbl.find_opt deg x)))
        [ u; v ])
    servers;
  let delta_s = Hashtbl.fold (fun _ d acc -> max d acc) deg 1 in
  8.0 *. (Float.min (log2 (c /. vcount)) (log2 (float_of_int delta_s)) +. 3.0)
