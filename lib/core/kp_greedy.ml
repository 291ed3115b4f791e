open Grapho

type result = {
  spanner : Edge.Set.t;
  cost : float;
  stars_added : int;
  singles_added : int;
  uncoverable : Edge.Set.t;
}

let run ?weights ?targets ?usable g =
  let w = match weights with Some w -> w | None -> Weights.uniform 1.0 in
  let all = Ugraph.edge_set g in
  let targets = Option.value ~default:all targets in
  let usable = Option.value ~default:all usable in
  let n = Ugraph.n g in
  let cover = Cover2.create ~n ~targets ~usable in
  let dirty = Array.make n true in
  let density = Array.make n 0.0 in
  let star = Array.make n [] in
  let mark_dirty v = dirty.(v) <- true in
  (* Weight-zero edges are free: commit them immediately. *)
  let zero = Edge.Set.filter (fun e -> Weights.get w e = 0.0) usable in
  if not (Edge.Set.is_empty zero) then Cover2.add cover zero ~dirty:mark_dirty;
  let paying = Array.make n [||] and free = Array.make n [||] in
  for v = 0 to n - 1 do
    let pay = ref [] and fr = ref [] in
    Array.iter
      (fun u ->
        if Weights.get w (Edge.make v u) = 0.0 then fr := u :: !fr
        else pay := u :: !pay)
      (Cover2.usable_neighbors cover v);
    paying.(v) <- Array.of_list (List.rev !pay);
    free.(v) <- Array.of_list (List.rev !fr)
  done;
  let refresh v =
    if dirty.(v) then begin
      dirty.(v) <- false;
      let hv = Cover2.hv cover v in
      if Edge.Set.is_empty hv then begin
        density.(v) <- 0.0;
        star.(v) <- []
      end
      else begin
        let neighbors = Cover2.usable_neighbors cover v in
        let prob =
          Star_pick.make ~center:v ~neighbors ~nodes:paying.(v) ~free:free.(v)
            ~weight:(fun u -> Weights.get w (Edge.make v u))
            ~hv:(Star_pick.hv_of_edges ~neighbors hv) ()
        in
        match Star_pick.densest prob with
        | Some (sel, d) when d > 0.0 ->
            density.(v) <- d;
            star.(v) <- sel
        | _ ->
            density.(v) <- 0.0;
            star.(v) <- []
      end
    end
  in
  let stars_added = ref 0 and singles_added = ref 0 in
  let uncoverable = Cover2.uncoverable_targets cover in
  let continue_loop = ref true in
  while !continue_loop do
    let remaining =
      Edge.Set.diff (Cover2.uncovered cover) uncoverable
    in
    if Edge.Set.is_empty remaining then continue_loop := false
    else begin
      for v = 0 to n - 1 do
        refresh v
      done;
      let best_vertex = ref (-1) and best_density = ref 0.0 in
      for v = 0 to n - 1 do
        if density.(v) > !best_density then begin
          best_density := density.(v);
          best_vertex := v
        end
      done;
      (* The single-edge alternative: cover one usable target by
         itself, at density 1 / weight. *)
      let best_single =
        Edge.Set.fold
          (fun e acc ->
            if Edge.Set.mem e usable then
              let d = 1.0 /. Float.max (Weights.get w e) 1e-30 in
              match acc with
              | Some (_, d') when d' >= d -> acc
              | _ -> Some (e, d)
            else acc)
          remaining None
      in
      match best_single with
      | Some (e, d) when d >= !best_density ->
          incr singles_added;
          Cover2.add cover (Edge.Set.singleton e) ~dirty:mark_dirty
      | _ ->
          if !best_vertex < 0 then
            (* No star and no single edge can cover what remains; these
               targets are in fact uncoverable through longer joint
               effects — treat them as such. *)
            continue_loop := false
          else begin
            incr stars_added;
            let v = !best_vertex in
            let additions =
              List.fold_left
                (fun acc u -> Edge.Set.add (Edge.make v u) acc)
                Edge.Set.empty star.(v)
            in
            Cover2.add cover additions ~dirty:mark_dirty
          end
    end
  done;
  let spanner = Cover2.spanner cover in
  {
    spanner;
    cost = Weights.cost w spanner;
    stars_added = !stars_added;
    singles_added = !singles_added;
    uncoverable = Edge.Set.inter (Cover2.uncovered cover) targets;
  }
