(* The structured families stream straight into the CSR builder: no
   intermediate edge list, so even the n=10^6 instances build in O(m)
   off-heap memory. *)

let path n =
  Ugraph.of_edge_iter ~n (fun emit ->
      for i = 0 to n - 2 do
        emit i (i + 1)
      done)

let cycle n =
  if n < 3 then invalid_arg "Generators.cycle: need n >= 3";
  Ugraph.of_edge_iter ~n (fun emit ->
      emit (n - 1) 0;
      for i = 0 to n - 2 do
        emit i (i + 1)
      done)

let star n =
  Ugraph.of_edge_iter ~n (fun emit ->
      for i = 1 to n - 1 do
        emit 0 i
      done)

let complete n =
  Ugraph.of_edge_iter ~n (fun emit ->
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          emit u v
        done
      done)

let complete_bipartite a b =
  Ugraph.of_edge_iter ~n:(a + b) (fun emit ->
      for u = 0 to a - 1 do
        for v = a to a + b - 1 do
          emit u v
        done
      done)

let grid rows cols =
  let id r c = (r * cols) + c in
  Ugraph.of_edge_iter ~n:(rows * cols) (fun emit ->
      for r = 0 to rows - 1 do
        for c = 0 to cols - 1 do
          if c + 1 < cols then emit (id r c) (id r (c + 1));
          if r + 1 < rows then emit (id r c) (id (r + 1) c)
        done
      done)

let hypercube d =
  let n = 1 lsl d in
  Ugraph.of_edge_iter ~n (fun emit ->
      for u = 0 to n - 1 do
        for b = 0 to d - 1 do
          let v = u lxor (1 lsl b) in
          if u < v then emit u v
        done
      done)

(* G(n, p) by geometric skip-sampling (Batagelj-Brandes): walk the
   upper triangle in lexicographic order jumping straight to the next
   sampled pair, so generation costs O(n + m) Rng draws instead of one
   Bernoulli trial per pair. Callers must keep [p] in (0, 1); emits
   (w, v) pairs with w < v, ascending in v then w — already in CSR row
   order. Note the Rng consumption differs from the historical
   trial-per-pair loop, so graphs sampled at a given seed changed when
   skip-sampling landed; the bench re-pins its gnp anchors. *)
let gnp_stream rng n p emit =
  let v = ref 1 and w = ref (-1) in
  while !v < n do
    w := !w + 1 + Rng.geometric rng p;
    while !w >= !v && !v < n do
      w := !w - !v;
      incr v
    done;
    if !v < n then emit !w !v
  done

let gnp rng n p =
  let n = max n 0 in
  if p <= 0.0 then Ugraph.empty n
  else if p >= 1.0 then complete n
  else Ugraph.of_edge_iter ~n (fun emit -> gnp_stream rng n p emit)

let gnp_connected rng n p =
  let n = max n 0 in
  Ugraph.of_edge_iter ~n (fun emit ->
      if p >= 1.0 then
        for u = 0 to n - 1 do
          for v = u + 1 to n - 1 do
            emit u v
          done
        done
      else if p > 0.0 then gnp_stream rng n p emit;
      (* backbone drawn after the gnp draws, as before *)
      let perm = Rng.permutation rng n in
      for i = 0 to n - 2 do
        emit perm.(i) perm.(i + 1)
      done)

let preferential_attachment rng n k =
  if n < k + 1 then invalid_arg "Generators.preferential_attachment: n <= k";
  (* Endpoint multiset: picking a uniform element weights by degree.
     The pool is preallocated at its exact upper bound and grown by
     cursor — the historical implementation re-copied it with
     [Array.append] per accepted target, which is O(n^2 k) at scale.
     Pool contents, growth order and Rng draws are replicated exactly,
     so every seed still samples the same graph. *)
  let cap = 2 * (k + (max 0 (n - 1 - k) * k)) in
  let pool = Array.make (max cap 1) 0 in
  let plen = ref 0 in
  let push x =
    pool.(!plen) <- x;
    incr plen
  in
  (* matches the historical [v :: 0 :: ...] prepend order *)
  for v = k downto 1 do
    push v;
    push 0
  done;
  let targets = Array.make (max k 1) 0 in
  Ugraph.of_edge_iter ~expected_edges:(k + (max 0 (n - 1 - k) * k)) ~n
    (fun emit ->
      for v = 1 to k do
        emit v 0
      done;
      for v = k + 1 to n - 1 do
        let tcount = ref 0 and attempts = ref 0 in
        let len = !plen in
        while !tcount < k && !attempts < 50 * k do
          incr attempts;
          let t = pool.(Rng.int rng len) in
          let dup = ref (t = v) in
          for i = 0 to !tcount - 1 do
            if targets.(i) = t then dup := true
          done;
          if not !dup then begin
            targets.(!tcount) <- t;
            incr tcount
          end
        done;
        (* most-recent target first, as the historical list fold did *)
        for i = !tcount - 1 downto 0 do
          let t = targets.(i) in
          emit v t;
          push v;
          push t
        done
      done)

let caveman rng cliques size p_rewire =
  let n = cliques * size in
  let set = ref Edge.Set.empty in
  for c = 0 to cliques - 1 do
    let base = c * size in
    for i = 0 to size - 1 do
      for j = i + 1 to size - 1 do
        set := Edge.Set.add (Edge.make (base + i) (base + j)) !set
      done
    done;
    (* ring of cliques *)
    let next = (c + 1) mod cliques * size in
    set := Edge.Set.add (Edge.make base next) !set
  done;
  (* rewire: replace a random intra-clique edge endpoint *)
  let rewired =
    Edge.Set.fold
      (fun e acc ->
        if Rng.float rng 1.0 < p_rewire then begin
          let u, _ = Edge.endpoints e in
          let w = Rng.int rng n in
          if w <> u then Edge.Set.add (Edge.make u w) acc
          else Edge.Set.add e acc
        end
        else Edge.Set.add e acc)
      !set Edge.Set.empty
  in
  Ugraph.of_edge_set ~n rewired

let caveman_n rng n p_rewire =
  if n <= 0 then invalid_arg "Generators.caveman_n: n must be positive";
  (* k = ceil(n / 8) cliques of near-equal sizes (floor or ceil of
     n/k), summing to exactly n — so the requested vertex count is
     honored precisely instead of being rounded to a multiple of 8.

     Unlike {!caveman} (whose sampled graphs are pinned by the bench
     anchors), this streams every clique/ring edge through the CSR
     builder and rewires at emission time: O(m) off-heap memory, no
     Edge.Set, which is what lets spanner_cli generate million-vertex
     caveman instances. Rewiring draws happen in generation order
     rather than sorted-set order, so seeds sample different (equally
     distributed) graphs than the historical Edge.Set version did. *)
  let k = (n + 7) / 8 in
  let base_size = n / k and extra = n mod k in
  let bases = Array.make k 0 in
  let base = ref 0 in
  let sizes = Array.make k 0 in
  for c = 0 to k - 1 do
    let size = base_size + if c < extra then 1 else 0 in
    bases.(c) <- !base;
    sizes.(c) <- size;
    base := !base + size
  done;
  Ugraph.of_edge_iter ~n (fun emit ->
      let emit_rewired u v =
        if Rng.float rng 1.0 < p_rewire then begin
          let u = min u v and v = max u v in
          let w = Rng.int rng n in
          if w <> u then emit u w else emit u v
        end
        else emit u v
      in
      for c = 0 to k - 1 do
        let base = bases.(c) and size = sizes.(c) in
        for i = 0 to size - 1 do
          for j = i + 1 to size - 1 do
            emit_rewired (base + i) (base + j)
          done
        done
      done;
      (* ring of cliques; skipped when a single clique would
         self-loop, and emitted once (not twice) for k = 2 *)
      if k > 1 then
        for c = 0 to (if k = 2 then 0 else k - 1) do
          emit_rewired bases.(c) bases.((c + 1) mod k)
        done)

let clique_ladder rng n =
  let set = ref Edge.Set.empty in
  let base = ref 0 and size = ref 4 in
  while !base + !size < n do
    for i = 0 to !size - 1 do
      for j = i + 1 to !size - 1 do
        set := Edge.Set.add (Edge.make (!base + i) (!base + j)) !set
      done
    done;
    base := !base + !size;
    size := !size + 2
  done;
  for _ = 1 to 3 * n do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then set := Edge.Set.add (Edge.make u v) !set
  done;
  Ugraph.of_edge_set ~n !set

let random_tree rng n =
  if n <= 1 then Ugraph.empty (max n 0)
  else if n = 2 then Ugraph.of_edges ~n [ (0, 1) ]
  else begin
    (* Prüfer decoding *)
    let prufer = Array.init (n - 2) (fun _ -> Rng.int rng n) in
    let deg = Array.make n 1 in
    Array.iter (fun v -> deg.(v) <- deg.(v) + 1) prufer;
    let module H = Set.Make (Int) in
    let leaves = ref H.empty in
    for v = 0 to n - 1 do
      if deg.(v) = 1 then leaves := H.add v !leaves
    done;
    let edges = ref [] in
    Array.iter
      (fun v ->
        let leaf = H.min_elt !leaves in
        leaves := H.remove leaf !leaves;
        edges := (leaf, v) :: !edges;
        deg.(v) <- deg.(v) - 1;
        if deg.(v) = 1 then leaves := H.add v !leaves)
      prufer;
    (match H.elements !leaves with
    | [ a; b ] -> edges := (a, b) :: !edges
    | _ -> assert false);
    Ugraph.of_edges ~n !edges
  end

let random_regular_ish rng n d =
  if d >= n then invalid_arg "Generators.random_regular_ish: d >= n";
  let set = ref Edge.Set.empty in
  let add_cycle () =
    let perm = Rng.permutation rng n in
    for i = 0 to n - 1 do
      let u = perm.(i) and v = perm.((i + 1) mod n) in
      if u <> v then set := Edge.Set.add (Edge.make u v) !set
    done
  in
  let add_path () =
    let perm = Rng.permutation rng n in
    for i = 0 to n - 2 do
      set := Edge.Set.add (Edge.make perm.(i) perm.(i + 1)) !set
    done
  in
  for _ = 1 to d / 2 do
    add_cycle ()
  done;
  if d mod 2 = 1 then add_path ();
  Ugraph.of_edge_set ~n !set

let random_orientation rng g =
  Dgraph.of_edge_iter ~expected_edges:(Ugraph.m g) ~n:(Ugraph.n g)
    (fun emit ->
      (* coin per edge in ascending edge order, as before *)
      Ugraph.iter_edges_uv
        (fun u v -> if Rng.bool rng then emit u v else emit v u)
        g)

let random_dag_orientation g =
  Dgraph.of_edge_iter ~expected_edges:(Ugraph.m g) ~n:(Ugraph.n g)
    (fun emit -> Ugraph.iter_edges_uv emit g)

let bidirect g =
  Dgraph.of_edge_iter ~expected_edges:(2 * Ugraph.m g) ~n:(Ugraph.n g)
    (fun emit ->
      Ugraph.iter_edges_uv
        (fun u v ->
          emit u v;
          emit v u)
        g)

let random_weights rng g ~max_weight =
  let l =
    Ugraph.fold_edges
      (fun e acc ->
        let u, v = Edge.endpoints e in
        (u, v, float_of_int (1 + Rng.int rng max_weight)) :: acc)
      g []
  in
  Weights.of_list ~default:1.0 l

let random_weights_with_zeros rng g ~zero_fraction ~max_weight =
  let l =
    Ugraph.fold_edges
      (fun e acc ->
        let u, v = Edge.endpoints e in
        let w =
          if Rng.float rng 1.0 < zero_fraction then 0.0
          else float_of_int (1 + Rng.int rng max_weight)
        in
        (u, v, w) :: acc)
      g []
  in
  Weights.of_list ~default:1.0 l

let random_client_server rng g ~client_fraction ~server_fraction =
  Ugraph.fold_edges
    (fun e (clients, servers) ->
      let c = Rng.float rng 1.0 < client_fraction in
      let s = Rng.float rng 1.0 < server_fraction in
      let s = s || not c in
      let clients = if c then Edge.Set.add e clients else clients in
      let servers = if s then Edge.Set.add e servers else servers in
      (clients, servers))
    g
    (Edge.Set.empty, Edge.Set.empty)
