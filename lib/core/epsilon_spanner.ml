open Grapho

type result = {
  spanner : Edge.Set.t;
  cost : float;
  r : int;
  colors : int;
  balls_processed : int;
  rounds : int;
}

let run ?rng ?weights ~epsilon ~k g =
  if epsilon <= 0.0 then invalid_arg "Epsilon_spanner.run: epsilon <= 0";
  if k < 1 then invalid_arg "Epsilon_spanner.run: k < 1";
  let rng = match rng with Some r -> r | None -> Rng.create 0xE9511 in
  let n = Ugraph.n g in
  let m = Ugraph.m g in
  let w = match weights with Some w -> w | None -> Weights.uniform 1.0 in
  (* Failing the stopping rule forces g(v, r + 2k) to grow by (1+ε)
     every 2k radius steps, and g is at most the total cost over the
     smallest positive cost, bounding r_i (the paper's log(nW)/ε). *)
  let cost_span =
    let mn = Weights.min_positive w g in
    if mn = 0.0 then float_of_int (m + 2)
    else (Weights.graph_cost w g /. mn) +. 2.0
  in
  let max_ri =
    (2 * k
    * (int_of_float
         (Float.ceil (Float.log cost_span /. Float.log (1.0 +. epsilon)))
      + 2))
    + 2
  in
  let r = max_ri + (4 * k) + 1 in
  let power = Power.power g r in
  let decomp = Decomposition.run ~rng power in
  (* Process vertices color by color, by id inside a color: exactly the
     (q_v, ID_v) label order of the proof of Theorem 1.2. *)
  let order =
    List.sort
      (fun a b -> compare (decomp.color.(a), a) (decomp.color.(b), b))
      (List.init n (fun i -> i))
  in
  let spanner = ref Edge.Set.empty in
  let uncovered = ref (Ugraph.edge_set g) in
  let refresh_uncovered () =
    uncovered :=
      Edge.Set.of_list
        (Spanner_check.uncovered_of_targets ~n ~targets:!uncovered !spanner ~k)
  in
  let balls = ref 0 in
  List.iter
    (fun v ->
      if not (Edge.Set.is_empty !uncovered) then begin
        let dist = Traversal.bfs_distances g v in
        let ball_edges set d =
          Edge.Set.filter
            (fun e ->
              let a, b = Edge.endpoints e in
              dist.(a) <= d && dist.(b) <= d)
            set
        in
        let g_of d =
          let targets = ball_edges !uncovered d in
          if Edge.Set.is_empty targets then 0.0
          else
            let usable = ball_edges (Ugraph.edge_set g) (d + k) in
            match Exact.min_k_spanner ~weights:w ~targets ~usable ~n ~k () with
            | Some s -> Weights.cost w s
            | None -> assert false
        in
        let rec find_ri ri =
          if ri >= max_ri then ri
          else if g_of (ri + (2 * k)) <= (1.0 +. epsilon) *. g_of ri then ri
          else find_ri (ri + 1)
        in
        let ri = find_ri 0 in
        let targets = ball_edges !uncovered (ri + (2 * k)) in
        if not (Edge.Set.is_empty targets) then begin
          incr balls;
          let usable = ball_edges (Ugraph.edge_set g) (ri + (3 * k)) in
          match Exact.min_k_spanner ~weights:w ~targets ~usable ~n ~k () with
          | Some s ->
              spanner := Edge.Set.union s !spanner;
              refresh_uncovered ()
          | None -> assert false
        end
      end)
    order;
  {
    spanner = !spanner;
    cost = Weights.cost w !spanner;
    r;
    colors = decomp.colors;
    balls_processed = !balls;
    rounds = decomp.colors * 4 * (Star_pick.log2_ceil n + 3) * r;
  }
