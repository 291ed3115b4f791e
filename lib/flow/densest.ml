let[@inline] weight_at weights v =
  match weights with None -> 1.0 | Some w -> w.(v)

let[@inline] bonus_at bonuses v =
  match bonuses with None -> 0.0 | Some b -> b.(v)

(* Density of the vertices flagged in [inside.(0 .. n-1)], summing
   weights and bonuses in ascending vertex order. *)
let flagged_density ?weights ?bonuses ~edges ~n inside =
  let spanned = ref 0 in
  Array.iter
    (fun (u, v) ->
      if u < n && v < n && inside.(u) && inside.(v) then incr spanned)
    edges;
  let total = ref 0.0 and bonus = ref 0.0 in
  for v = 0 to n - 1 do
    if inside.(v) then begin
      total := !total +. weight_at weights v;
      bonus := !bonus +. bonus_at bonuses v
    end
  done;
  if !total = 0.0 then infinity
  else (float_of_int !spanned +. !bonus) /. !total

let density_of ?weights ?bonuses ~edges subset =
  let n = List.fold_left max (-1) subset + 1 in
  let inside = Array.make n false in
  List.iter (fun v -> inside.(v) <- true) subset;
  flagged_density ?weights ?bonuses ~edges ~n inside

let validate ?weights ?bonuses ~n ~edges () =
  (match weights with
  | Some w ->
      if Array.length w <> n then invalid_arg "Densest: weights length";
      Array.iter
        (fun x -> if x <= 0.0 then invalid_arg "Densest: non-positive weight")
        w
  | None -> ());
  (match bonuses with
  | Some b ->
      if Array.length b <> n then invalid_arg "Densest: bonuses length";
      Array.iter
        (fun x -> if x < 0.0 then invalid_arg "Densest: negative bonus")
        b
  | None -> ());
  Array.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n || u = v then
        invalid_arg "Densest: bad edge")
    edges

let solver_calls = Atomic.make 0

let small_n_limit = 12

(* Per-domain arena, reused by every call on that domain: the flow
   network of Dinkelbach's search and the three 2^12-entry subset
   tables of the bitmask search. The oracle runs inside vertex
   handlers, which execute on pool domains under [Engine.run ~par], so
   the arena must not be shared between domains. *)
type arena = {
  net : Maxflow.t;
  inside : int array;
  wsum : float array;
  bsum : float array;
}

let arena =
  Domain.DLS.new_key (fun () ->
      let size = 1 lsl small_n_limit in
      {
        net = Maxflow.create 0;
        inside = Array.make size 0;
        wsum = Array.make size 0.0;
        bsum = Array.make size 0.0;
      })

(* Source side of the min cut of Goldberg's network at guess [g]:
   [Some] subset of density > g when the cut is strictly below the
   trivial one, [None] when no such subset exists. *)
let probe net ?weights ?bonuses ~n ~edges ~deg ~big g =
  let s = n and t = n + 1 in
  Maxflow.reset net (n + 2);
  for v = 0 to n - 1 do
    Maxflow.add_edge net ~src:s ~dst:v ~cap:big;
    Maxflow.add_edge net ~src:v ~dst:t
      ~cap:
        (big
        +. (2.0 *. g *. weight_at weights v)
        -. deg.(v)
        -. (2.0 *. bonus_at bonuses v))
  done;
  Array.iter
    (fun (u, v) ->
      Maxflow.add_edge net ~src:u ~dst:v ~cap:1.0;
      Maxflow.add_edge net ~src:v ~dst:u ~cap:1.0)
    edges;
  let flow = Maxflow.max_flow net ~s ~t in
  let trivial = big *. float_of_int n in
  if flow >= trivial -. 1e-6 then None
  else begin
    let side = Maxflow.min_cut_side net ~s in
    let subset = ref [] in
    for v = n - 1 downto 0 do
      if side.(v) then subset := v :: !subset
    done;
    if !subset = [] then None else Some !subset
  end

(* ------------------------------------------------------------------ *)
(* Exhaustive bitmask search for tiny instances.

   The protocol's per-star subproblems almost always have a handful of
   paying neighbors; enumerating the 2^n subsets with subset-DP tables
   (O(2^n) word operations) beats the parametric max-flow search by a
   wide margin there. Duplicate edges would be conflated by the
   adjacency bitmasks, so those instances fall through to the flow
   solver. *)

(* Per-12-bit-mask popcount and lowest-set-bit-index tables. Built
   eagerly at module init: a module-global [lazy] forced from two
   domains at once raises [CamlinternalLazy.Undefined]. 2^12 words is
   cheap enough to never defer. *)
let small_tables =
  let size = 1 lsl small_n_limit in
  let pc = Array.make size 0 in
  let lb = Array.make size 0 in
  for i = 1 to size - 1 do
    pc.(i) <- pc.(i lsr 1) + (i land 1);
    lb.(i) <- (if i land 1 = 1 then 0 else lb.(i lsr 1) + 1)
  done;
  (pc, lb)

(* [None] when duplicate edges prevent the bitmask encoding. *)
let exhaustive_small ?weights ?bonuses ~n ~edges () =
  let adj = Array.make n 0 in
  let dup = ref false in
  Array.iter
    (fun (u, v) ->
      if adj.(u) land (1 lsl v) <> 0 then dup := true
      else begin
        adj.(u) <- adj.(u) lor (1 lsl v);
        adj.(v) <- adj.(v) lor (1 lsl u)
      end)
    edges;
  if !dup then None
  else begin
    let pc, lb = small_tables in
    (* Entry 0 of each table is never written, so it stays 0. *)
    let { inside; wsum; bsum; _ } = Domain.DLS.get arena in
    let best = ref 0 and best_density = ref neg_infinity in
    for mask = 1 to (1 lsl n) - 1 do
      let v = lb.(mask) in
      let rest = mask land (mask - 1) in
      inside.(mask) <- inside.(rest) + pc.(adj.(v) land rest);
      wsum.(mask) <- wsum.(rest) +. weight_at weights v;
      bsum.(mask) <- bsum.(rest) +. bonus_at bonuses v;
      let d = (float_of_int inside.(mask) +. bsum.(mask)) /. wsum.(mask) in
      if d > !best_density then begin
        best := mask;
        best_density := d
      end
    done;
    let subset = ref [] in
    for v = n - 1 downto 0 do
      if !best land (1 lsl v) <> 0 then subset := v :: !subset
    done;
    (* Report the density with the same summation order as
       [density_of], so callers that recompute see the identical
       float. *)
    Some (!subset, density_of ?weights ?bonuses ~edges !subset)
  end

let densest_subset ?weights ?bonuses ~n ~edges () =
  Atomic.incr solver_calls;
  validate ?weights ?bonuses ~n ~edges ();
  (* A sensible starting incumbent: the endpoints of the first edge, or
     the best single node when only bonuses contribute. *)
  let seed =
    if Array.length edges > 0 then
      let u0, v0 = edges.(0) in
      Some [ min u0 v0; max u0 v0 ]
    else begin
      let best = ref None in
      for v = 0 to n - 1 do
        if bonus_at bonuses v > 0.0 then
          match !best with
          | Some b
            when bonus_at bonuses b /. weight_at weights b
                 >= bonus_at bonuses v /. weight_at weights v ->
              ()
          | _ -> best := Some v
      done;
      Option.map (fun v -> [ v ]) !best
    end
  in
  let fast =
    if seed <> None && n <= small_n_limit then
      exhaustive_small ?weights ?bonuses ~n ~edges ()
    else None
  in
  match (fast, seed) with
  | Some _, _ -> fast
  | None, None -> None
  | None, Some seed ->
      let deg = Array.make n 0.0 in
      Array.iter
        (fun (u, v) ->
          deg.(u) <- deg.(u) +. 1.0;
          deg.(v) <- deg.(v) +. 1.0)
        edges;
      let exact subset = density_of ?weights ?bonuses ~edges subset in
      let max_bonus =
        match bonuses with
        | None -> 0.0
        | Some b -> Array.fold_left max 0.0 b
      in
      let big =
        (2.0 *. float_of_int (Array.length edges)) +. (2.0 *. max_bonus) +. 1.0
      in
      let net = (Domain.DLS.get arena).net in
      (* Dinkelbach's search: probe at the incumbent's exact density;
         any witness is strictly denser, and becomes the next guess.
         At the optimum the probe is infeasible. Every witness is the
         minimal maximizer of e(S) + b(S) - g w(S), so one of density
         rho* is the union of all densest sets: the answer is that
         union, or the seed when the seed already attains rho*. *)
      let best = ref seed and best_density = ref (exact seed) in
      let iterations = ref 0 and searching = ref true in
      while !searching && !iterations < 200 do
        incr iterations;
        match
          probe net ?weights ?bonuses ~n ~edges ~deg ~big !best_density
        with
        | Some subset ->
            let d = exact subset in
            if d > !best_density then begin
              best := subset;
              best_density := d
            end
            else searching := false
        | None -> searching := false
      done;
      Some (!best, !best_density)

let brute_force ?weights ?bonuses ~n ~edges () =
  validate ?weights ?bonuses ~n ~edges ();
  if n > 20 then invalid_arg "Densest.brute_force: n > 20";
  let no_gain =
    Array.length edges = 0
    && match bonuses with
       | None -> true
       | Some b -> Array.for_all (fun x -> x = 0.0) b
  in
  if no_gain then None
  else begin
    let inside = Array.make n false in
    let best = ref 0 and best_density = ref neg_infinity in
    for mask = 1 to (1 lsl n) - 1 do
      for v = 0 to n - 1 do
        inside.(v) <- mask land (1 lsl v) <> 0
      done;
      let d = flagged_density ?weights ?bonuses ~edges ~n inside in
      if d > !best_density then begin
        best := mask;
        best_density := d
      end
    done;
    let subset =
      List.filter (fun v -> !best land (1 lsl v) <> 0) (List.init n Fun.id)
    in
    Some (subset, !best_density)
  end
