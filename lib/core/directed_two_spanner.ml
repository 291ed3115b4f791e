open Grapho
module Iset = Set.Make (Int)
module Dset = Edge.Directed.Set

type result = {
  spanner : Dset.t;
  iterations : int;
  rounds : int;
  stars_added : int;
  candidate_count : int;
}

(* ------------------------------------------------------------------ *)
(* Directed coverage tracker: a target (u,w) is covered once it is in
   the spanner or the spanner holds a directed 2-path u -> z -> w.    *)

type cover = {
  g : Dgraph.t;
  mutable spanner : Dset.t;
  out_h : Iset.t array;  (* spanner out-neighbors *)
  in_h : Iset.t array;
  mutable uncovered : Dset.t;
  hv : Dset.t array;  (* uncovered targets 2-spannable by each center *)
  out_un : Dset.t array;  (* uncovered targets by source vertex *)
  in_un : Dset.t array;  (* uncovered targets by destination vertex *)
}

(* Centers able to 2-span (u,w): vertices z with (u,z) and (z,w) in G. *)
let spanning_centers g u w =
  let outs = Dgraph.out_neighbors g u in
  Array.fold_left
    (fun acc z -> if z <> w && Dgraph.mem_edge g z w then z :: acc else acc)
    [] outs

let cover_create g =
  let n = Dgraph.n g in
  let c =
    {
      g;
      spanner = Dset.empty;
      out_h = Array.make n Iset.empty;
      in_h = Array.make n Iset.empty;
      uncovered = Dgraph.edge_set g;
      hv = Array.make n Dset.empty;
      out_un = Array.make n Dset.empty;
      in_un = Array.make n Dset.empty;
    }
  in
  Dset.iter
    (fun (u, w) ->
      c.out_un.(u) <- Dset.add (u, w) c.out_un.(u);
      c.in_un.(w) <- Dset.add (u, w) c.in_un.(w);
      List.iter
        (fun z -> c.hv.(z) <- Dset.add (u, w) c.hv.(z))
        (spanning_centers g u w))
    c.uncovered;
  c

let covered_now c (u, w) =
  Dset.mem (u, w) c.spanner
  ||
  let a, b =
    if Iset.cardinal c.out_h.(u) <= Iset.cardinal c.in_h.(w) then
      (c.out_h.(u), c.in_h.(w))
    else (c.in_h.(w), c.out_h.(u))
  in
  Iset.exists (fun z -> Iset.mem z b) a

let cover_add c edges ~dirty =
  let touched_src = ref Iset.empty and touched_dst = ref Iset.empty in
  Dset.iter
    (fun (a, b) ->
      if not (Dgraph.mem_edge c.g a b) then
        invalid_arg "Directed_two_spanner: edge not in graph";
      if not (Dset.mem (a, b) c.spanner) then begin
        c.spanner <- Dset.add (a, b) c.spanner;
        c.out_h.(a) <- Iset.add b c.out_h.(a);
        c.in_h.(b) <- Iset.add a c.in_h.(b);
        touched_src := Iset.add a !touched_src;
        touched_dst := Iset.add b !touched_dst
      end)
    edges;
  (* A target covered by a brand-new 2-path u -> z -> w uses a new edge
     (u,z) (so u gained an out-edge) or (z,w) (so w gained an in-edge);
     the target itself being added touches both. *)
  let candidates =
    Iset.fold
      (fun v acc -> Dset.union acc c.out_un.(v))
      !touched_src
      (Iset.fold
         (fun v acc -> Dset.union acc c.in_un.(v))
         !touched_dst Dset.empty)
  in
  let dirtied = ref Iset.empty in
  Dset.iter
    (fun (u, w) ->
      if Dset.mem (u, w) c.uncovered && covered_now c (u, w) then begin
        c.uncovered <- Dset.remove (u, w) c.uncovered;
        c.out_un.(u) <- Dset.remove (u, w) c.out_un.(u);
        c.in_un.(w) <- Dset.remove (u, w) c.in_un.(w);
        List.iter
          (fun z ->
            c.hv.(z) <- Dset.remove (u, w) c.hv.(z);
            dirtied := Iset.add z !dirtied)
          (spanning_centers c.g u w)
      end)
    candidates;
  Iset.iter dirty !dirtied

(* ------------------------------------------------------------------ *)
(* Star machinery.                                                    *)

(* Directed density of the star at [v] selecting underlying neighbors
   [sel]: 2-spanned uncovered targets over the number of directed star
   edges (every existing orientation of each chosen edge is taken). *)
let directed_density c v sel =
  if sel = [] then 0.0
  else begin
    let inside = Iset.of_list sel in
    let size =
      List.fold_left
        (fun acc u ->
          acc
          + (if Dgraph.mem_edge c.g u v then 1 else 0)
          + if Dgraph.mem_edge c.g v u then 1 else 0)
        0 sel
    in
    let covered =
      Dset.fold
        (fun (u, w) acc ->
          if Iset.mem u inside && Iset.mem w inside then acc + 1 else acc)
        c.hv.(v) 0
    in
    if size = 0 then 0.0 else float_of_int covered /. float_of_int size
  end

let spanned_targets c v sel =
  let inside = Iset.of_list sel in
  Dset.filter
    (fun (u, w) -> Iset.mem u inside && Iset.mem w inside)
    c.hv.(v)

(* Undirected shadow of the local star problem: eligible neighbors are
   the underlying neighbors, H_v targets collapse to undirected pairs. *)
let shadow_problem c v =
  let nodes = Dgraph.undirected_neighbors c.g v in
  let hv_edges =
    Dset.fold
      (fun (u, w) acc -> Edge.Set.add (Edge.make u w) acc)
      c.hv.(v) Edge.Set.empty
  in
  Star_pick.make ~center:v ~neighbors:nodes ~nodes
    ~hv:(Star_pick.hv_of_edges ~neighbors:nodes hv_edges) ()

(* The Section 4.1 closure, directed flavor: greedily add single
   underlying neighbors while the directed density stays above the
   threshold, then dense disjoint stars found through the shadow. *)
let extend_directed c v ~start ~allowed ~threshold =
  let prob = shadow_problem c v in
  let selection = ref start in
  let member u = List.mem u !selection in
  let progress = ref true in
  while !progress do
    progress := false;
    let best = ref None in
    List.iter
      (fun u ->
        if not (member u) then begin
          let d = directed_density c v (u :: !selection) in
          if d >= threshold then
            match !best with
            | Some (_, d') when d' >= d -> ()
            | _ -> best := Some (u, d)
        end)
      allowed;
    match !best with
    | Some (u, _) ->
        selection := u :: !selection;
        progress := true
    | None -> (
        let remaining = List.filter (fun u -> not (member u)) allowed in
        match Star_pick.densest_within prob ~allowed:remaining with
        | Some (disjoint, _) when disjoint <> [] ->
            let candidate = disjoint @ !selection in
            if directed_density c v candidate >= threshold then begin
              selection := candidate;
              progress := true
            end
        | _ -> ())
  done;
  List.sort_uniq compare !selection

(* ------------------------------------------------------------------ *)
(* The directed variant of the Section 4 loop.                        *)

let run ?rng ?max_iterations g =
  let rng = match rng with Some r -> r | None -> Rng.create 0xD17EC7 in
  let cover = cover_create g in
  (* Every existing orientation of each chosen star edge. *)
  let orientations v u =
    (if Dgraph.mem_edge g v u then [ (v, u) ] else [])
    @ if Dgraph.mem_edge g u v then [ (u, v) ] else []
  in
  (* The Section 4.1 choice at an eighth of the rounded density (the
     shadow density is a 2-approximation). *)
  let choose v ~stored:(star, star_exp) ~level =
    let threshold = Star_pick.pow2 level /. 8.0 in
    let fresh () =
      match Star_pick.densest (shadow_problem cover v) with
      | Some (sel, _) when sel <> [] ->
          extend_directed cover v ~start:sel
            ~allowed:(Array.to_list (Dgraph.undirected_neighbors g v))
            ~threshold
      | _ -> []
    in
    let selection =
      if star_exp = level && star <> [] then
        if directed_density cover v star >= threshold then star
        else
          match
            Star_pick.densest_within (shadow_problem cover v) ~allowed:star
          with
          | Some (inner, _)
            when inner <> [] && directed_density cover v inner >= threshold
            ->
              extend_directed cover v ~start:inner ~allowed:star ~threshold
          | _ -> fresh ()
      else fresh ()
    in
    ( selection,
      if selection = [] then []
      else Dset.elements (spanned_targets cover v selection) )
  in
  let t =
    Two_spanner_engine.iterate ?max_iterations
      {
        topology = Dgraph.underlying g;
        rules = Two_spanner_engine.unweighted;
        selection = Votes 0.125;
        monotone = true;
        density =
          (fun v ->
            if Dset.is_empty cover.hv.(v) then 0.0
            else
              match Star_pick.densest (shadow_problem cover v) with
              | None -> 0.0
              | Some (sel, _) -> directed_density cover v sel);
        choose;
        star_edges = (fun v sel -> List.concat_map (orientations v) sel);
        add = (fun arcs ~dirty -> cover_add cover (Dset.of_list arcs) ~dirty);
        finals =
          (fun v ->
            Dset.elements (Dset.union cover.out_un.(v) cover.in_un.(v)));
        (* Sequential draws from [rng]; the loop asks in ascending
           candidate order. *)
        draw =
          (fun ~seed:_ ~vertex:_ ~iteration:_ ~bound -> 1 + Rng.int rng bound);
        uncovered_count = (fun () -> Dset.cardinal cover.uncovered);
      }
  in
  {
    spanner = cover.spanner;
    iterations = t.iterations;
    rounds = Two_spanner_engine.rounds_per_iteration * t.iterations;
    stars_added = t.stars_added;
    candidate_count = t.candidate_count;
  }
