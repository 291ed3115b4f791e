open Grapho

type rules = {
  weight : int -> int -> float;
  candidate_ok : int -> float -> bool;
  terminate_ok : int -> float -> bool;
  dominance_includes_terminated : bool;
}

type selection = Votes of float | Coin of float | All

type spec = {
  graph : Ugraph.t;
  targets : Edge.Set.t;
  usable : Edge.Set.t;
  finalize : Edge.t -> bool;
  rules : rules;
  selection : selection;
}

type 'e variant = {
  topology : Ugraph.t;
  rules : rules;
  selection : selection;
  monotone : bool;
  density : int -> float;
  choose : int -> stored:int list * int -> level:int -> int list * 'e list;
  star_edges : int -> int list -> 'e list;
  add : 'e list -> dirty:(int -> unit) -> unit;
  finals : int -> 'e list;
  draw : seed:int -> vertex:int -> iteration:int -> bound:int -> int;
  uncovered_count : unit -> int;
}

type iteration_stats = {
  iteration : int;
  uncovered_before : int;
  max_density : float;
  candidates : int;
  stars_accepted : int;
  terminated_now : int;
}

type tally = {
  iterations : int;
  stars_added : int;
  candidate_count : int;
  votes_cast : int;
}

type result = {
  spanner : Edge.Set.t;
  iterations : int;
  rounds : int;
  stars_added : int;
  candidate_count : int;
  votes_cast : int;
  uncovered : Edge.Set.t;
}

let rounds_per_iteration = 8

let unweighted =
  {
    weight = (fun _ _ -> 1.0);
    candidate_ok = (fun _ rho -> rho >= 1.0);
    terminate_ok = (fun _ max_rho -> max_rho <= 1.0);
    dominance_includes_terminated = true;
  }

type vstate = {
  mutable rho : float;  (* density of the densest star (variant's oracle) *)
  mutable exp : int;  (* rounded exponent; min_int when rho <= 0 *)
  mutable dirty : bool;
  mutable star : int list;  (* stored selection *)
  mutable star_exp : int;  (* level the stored star was chosen at *)
  mutable terminated : bool;
}

let iterate ?rng ?seed ?max_iterations ?trace ?(sink = Distsim.Trace.null)
    (o : _ variant) =
  let tracing = not (Distsim.Trace.is_null sink) in
  let mark vertex name round =
    if tracing then
      Distsim.Trace.emit sink (Distsim.Trace.Phase { vertex; name; round })
  in
  let count name value round =
    if tracing then
      Distsim.Trace.emit sink
        (Distsim.Trace.Counter { name; value = float_of_int value; round })
  in
  let seed =
    match (seed, rng) with
    | Some s, _ -> s
    | None, Some r -> Rng.int r (1 lsl 30)
    | None, None -> 0x2D5F1
  in
  let g = o.topology and rules = o.rules in
  let n = Ugraph.n g in
  let max_iterations =
    match max_iterations with
    | Some m -> m
    | None ->
        (10
        * (Star_pick.log2_ceil (n + 2) + 2)
        * (Star_pick.log2_ceil (Ugraph.max_degree g + 2) + 2))
        + 100
  in
  let st =
    Array.init n (fun _ ->
        {
          rho = 0.0;
          exp = min_int;
          dirty = true;
          star = [];
          star_exp = min_int;
          terminated = false;
        })
  in
  let mark_dirty v = st.(v).dirty <- true in
  let add = function [] -> () | edges -> o.add edges ~dirty:mark_dirty in
  let refresh_densities () =
    for v = 0 to n - 1 do
      let s = st.(v) in
      if s.dirty then begin
        s.dirty <- false;
        s.rho <- o.density v;
        let fresh =
          match Star_pick.rounded_exponent s.rho with
          | None -> min_int
          | Some e -> e
        in
        s.exp <-
          (if o.monotone && s.exp <> min_int then min s.exp fresh else fresh)
      end
    done
  in
  let masked v = st.(v).terminated && not rules.dominance_includes_terminated in
  (* Maximum of a per-vertex value over closed 2-neighborhoods, by two
     rounds of neighbor-max (exactly how the vertices would learn it). *)
  let two_hop_max (value : int -> float) =
    let one = Array.make n neg_infinity in
    for v = 0 to n - 1 do
      one.(v) <-
        Ugraph.fold_neighbors (fun m u -> max m (value u)) g v (value v)
    done;
    let two = Array.make n neg_infinity in
    for v = 0 to n - 1 do
      two.(v) <- Ugraph.fold_neighbors (fun m u -> max m one.(u)) g v one.(v)
    done;
    two
  in
  let iterations = ref 0 in
  let stars_added = ref 0 in
  let candidate_count = ref 0 in
  let votes_cast = ref 0 in
  let n4 = Randomness.vote_bound ~n in
  let all_terminated () = Array.for_all (fun s -> s.terminated) st in
  while not (all_terminated ()) do
    incr iterations;
    if !iterations > max_iterations then
      failwith
        (Printf.sprintf
           "Two_spanner_engine: %d iterations without termination"
           max_iterations);
    (* Step 1: densities and their rounded 2-neighborhood maxima. *)
    refresh_densities ();
    let uncovered_before = o.uncovered_count () in
    let max_density_now =
      Array.fold_left (fun acc s -> Float.max acc s.rho) 0.0 st
    in
    let stars_before = !stars_added and cands_before = !candidate_count in
    count "uncovered" uncovered_before !iterations;
    let max_exp =
      two_hop_max (fun v ->
          if masked v || st.(v).exp = min_int then neg_infinity
          else float_of_int st.(v).exp)
    in
    (* Step 2: candidates choose stars (Section 4.1), in ascending
       vertex order. *)
    let candidates = ref [] in
    for v = 0 to n - 1 do
      let s = st.(v) in
      if
        (not s.terminated)
        && s.exp <> min_int
        && float_of_int s.exp >= max_exp.(v)
        && rules.candidate_ok v s.rho
      then begin
        let level = s.exp in
        let selection, covered =
          o.choose v ~stored:(s.star, s.star_exp) ~level
        in
        if selection <> [] then begin
          s.star <- selection;
          s.star_exp <- level;
          if covered <> [] then begin
            incr candidate_count;
            (* Step 3: the random value r_v in {1..n^4}. *)
            let r =
              o.draw ~seed ~vertex:v ~iteration:!iterations ~bound:n4
            in
            mark v "candidate" !iterations;
            candidates := (v, r, selection, covered) :: !candidates
          end
        end
      end
    done;
    (* Step 4: each uncovered 2-spanned target votes for the first
       candidate in (r, id) order among those 2-spanning it. *)
    let ballot = Hashtbl.create 64 in
    List.iter
      (fun (v, r, _, covered) ->
        List.iter
          (fun e ->
            match Hashtbl.find_opt ballot e with
            | Some (r', v') when (r', v') <= (r, v) -> ()
            | _ -> Hashtbl.replace ballot e (r, v))
          covered)
      !candidates;
    let votes = Hashtbl.create 64 in
    Hashtbl.iter
      (fun _ (_, v) ->
        incr votes_cast;
        Hashtbl.replace votes v
          (1 + Option.value ~default:0 (Hashtbl.find_opt votes v)))
      ballot;
    count "votes" (Hashtbl.length ballot) !iterations;
    (* Step 5: admit candidate stars per the selection rule (the paper:
       at least |C_v| / 8 votes). *)
    let admitted v covered =
      match o.selection with
      | Votes fraction ->
          let received = Option.value ~default:0 (Hashtbl.find_opt votes v) in
          float_of_int received
          >= fraction *. float_of_int (List.length covered)
      | Coin p -> Randomness.coin ~seed ~vertex:v ~iteration:!iterations ~p
      | All -> true
    in
    let additions = ref [] in
    List.iter
      (fun (v, _, selection, covered) ->
        if admitted v covered then begin
          incr stars_added;
          mark v "commit" !iterations;
          additions := o.star_edges v selection @ !additions
        end)
      !candidates;
    add !additions;
    (* Step 6/7: refresh and terminate low-density neighborhoods. *)
    refresh_densities ();
    let max_rho =
      two_hop_max (fun v -> if masked v then 0.0 else st.(v).rho)
    in
    let finals = ref [] in
    let terminated_this_iteration = ref 0 in
    for v = 0 to n - 1 do
      if
        (not st.(v).terminated)
        && rules.terminate_ok v (max max_rho.(v) 0.0)
      then begin
        st.(v).terminated <- true;
        incr terminated_this_iteration;
        mark v "terminate" !iterations;
        finals := o.finals v @ !finals
      end
    done;
    add !finals;
    Option.iter
      (fun f ->
        f
          {
            iteration = !iterations;
            uncovered_before;
            max_density = max_density_now;
            candidates = !candidate_count - cands_before;
            stars_accepted = !stars_added - stars_before;
            terminated_now = !terminated_this_iteration;
          })
      trace
  done;
  ({
     iterations = !iterations;
     stars_added = !stars_added;
     candidate_count = !candidate_count;
     votes_cast = !votes_cast;
   }
    : tally)

(* The undirected coverage relation (Cover2) and star oracle
   (Star_pick's parametric-flow densest star and Section 4.1 choice),
   with weight-zero usable edges in the spanner up front. *)
let of_spec (spec : spec) =
  let weight = spec.rules.weight in
  let n = Ugraph.n spec.graph in
  let cover = Cover2.create ~n ~targets:spec.targets ~usable:spec.usable in
  let zero_edges =
    Edge.Set.filter
      (fun e ->
        let u, v = Edge.endpoints e in
        weight u v = 0.0)
      spec.usable
  in
  if not (Edge.Set.is_empty zero_edges) then
    Cover2.add cover zero_edges ~dirty:ignore;
  (* Split eligible neighbors into paying and free once; weights are
     static. *)
  let paying = Array.make n [||] and free = Array.make n [||] in
  for v = 0 to n - 1 do
    let fr, pay =
      Array.to_list (Cover2.usable_neighbors cover v)
      |> List.partition (fun u -> weight v u = 0.0)
    in
    paying.(v) <- Array.of_list pay;
    free.(v) <- Array.of_list fr
  done;
  let problem v =
    let neighbors = Cover2.usable_neighbors cover v in
    Star_pick.make ~center:v ~neighbors ~nodes:paying.(v) ~free:free.(v)
      ~weight:(fun u -> weight v u)
      ~hv:(Star_pick.hv_of_edges ~neighbors (Cover2.hv cover v)) ()
  in
  ( cover,
    {
      topology = spec.graph;
      rules = spec.rules;
      selection = spec.selection;
      monotone = false;
      density =
        (fun v ->
          if Edge.Set.is_empty (Cover2.hv cover v) then 0.0
          else
            match Star_pick.densest (problem v) with
            | None -> 0.0
            | Some (_, d) -> d);
      choose =
        (fun v ~stored ~level ->
          let prob = problem v in
          let selection =
            Star_pick.section_4_1_choice prob ~stored:(Some stored) ~level
              ~divisor:4.0
          in
          ( selection,
            if selection = [] then []
            else Edge.Set.elements (Star_pick.spanned prob selection) ));
      star_edges = (fun v selection -> List.map (Edge.make v) selection);
      add =
        (fun edges ~dirty -> Cover2.add cover (Edge.Set.of_list edges) ~dirty);
      finals =
        (fun v ->
          Cover2.uncovered_incident cover v
          |> Edge.Set.filter spec.finalize
          |> Edge.Set.elements);
      (* The (seed, vertex, iteration)-keyed stream, shared with
         Two_spanner_local so that both runs coincide. *)
      draw = Randomness.vote_value;
      uncovered_count = (fun () -> Cover2.uncovered_count cover);
    } )

let run ?rng ?seed ?max_iterations ?trace ?sink spec =
  let cover, variant = of_spec spec in
  let t = iterate ?rng ?seed ?max_iterations ?trace ?sink variant in
  {
    spanner = Cover2.spanner cover;
    iterations = t.iterations;
    rounds = rounds_per_iteration * t.iterations;
    stars_added = t.stars_added;
    candidate_count = t.candidate_count;
    votes_cast = t.votes_cast;
    uncovered = Cover2.uncovered cover;
  }
