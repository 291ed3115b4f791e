let bfs_generic ~n ~neighbors s =
  let dist = Array.make n max_int in
  let q = Queue.create () in
  dist.(s) <- 0;
  Queue.add s q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    neighbors u (fun v ->
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v q
        end)
  done;
  dist

let bfs_distances g s =
  bfs_generic ~n:(Ugraph.n g)
    ~neighbors:(fun u f -> Ugraph.iter_neighbors f g u)
    s

let distance g u v = (bfs_distances g u).(v)

let ball g v d =
  let dist = bfs_distances g v in
  let inside = ref [] in
  for u = Ugraph.n g - 1 downto 0 do
    if dist.(u) <= d then inside := u :: !inside
  done;
  List.sort (fun a b -> compare (dist.(a), a) (dist.(b), b)) !inside

let components g =
  let n = Ugraph.n g in
  let comp = Array.make n (-1) in
  let next = ref 0 in
  for s = 0 to n - 1 do
    if comp.(s) = -1 then begin
      let id = !next in
      incr next;
      let q = Queue.create () in
      comp.(s) <- id;
      Queue.add s q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        Ugraph.iter_neighbors
          (fun v ->
            if comp.(v) = -1 then begin
              comp.(v) <- id;
              Queue.add v q
            end)
          g u
      done
    end
  done;
  comp

let component_count g =
  let comp = components g in
  Array.fold_left max (-1) comp + 1

let is_connected g = Ugraph.n g = 0 || component_count g = 1

let eccentricity g v =
  let dist = bfs_distances g v in
  Array.fold_left max 0 dist

let diameter g =
  let best = ref 0 in
  (try
     for v = 0 to Ugraph.n g - 1 do
       let e = eccentricity g v in
       if e = max_int then begin
         best := max_int;
         raise Exit
       end;
       best := max !best e
     done
   with Exit -> ());
  !best

let girth g =
  (* For each root, BFS; a non-tree edge closing at depths d1, d2 gives a
     cycle of length d1 + d2 + 1 through the root's BFS tree. Taking the
     minimum over all roots is exact for girth. *)
  let n = Ugraph.n g in
  let best = ref max_int in
  let dist = Array.make n max_int in
  let parent = Array.make n (-1) in
  for s = 0 to n - 1 do
    Array.fill dist 0 n max_int;
    Array.fill parent 0 n (-1);
    let q = Queue.create () in
    dist.(s) <- 0;
    Queue.add s q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      Ugraph.iter_neighbors
        (fun v ->
          if dist.(v) = max_int then begin
            dist.(v) <- dist.(u) + 1;
            parent.(v) <- u;
            Queue.add v q
          end
          else if v <> parent.(u) && dist.(u) + dist.(v) + 1 < !best then
            best := dist.(u) + dist.(v) + 1)
        g u
    done
  done;
  !best

type walk = { n : int; neighbors : int -> (int -> unit) -> unit }

let ugraph g =
  { n = Ugraph.n g; neighbors = (fun x f -> Ugraph.iter_neighbors f g x) }

let out_edges g =
  { n = Dgraph.n g; neighbors = (fun x f -> Dgraph.iter_out_neighbors f g x) }

(* The bounded-BFS kernel. Its scratch reuses stamp/depth/parent/queue
   arrays across searches with an epoch counter standing in for
   clearing: a vertex is "reached by the current search" iff its stamp
   equals the epoch, so a reset is one increment, not an O(n) fill. *)
type scratch = {
  mutable stamp : int array;
  mutable depth : int array;
  mutable parent : int array;
  mutable queue : int array;
  mutable epoch : int;
  mutable src : int;
}

let ensure sc n =
  if n > Array.length sc.stamp then begin
    let cap = max n (2 * Array.length sc.stamp) in
    sc.stamp <- Array.make cap 0;
    sc.depth <- Array.make cap 0;
    sc.parent <- Array.make cap 0;
    sc.queue <- Array.make cap 0;
    sc.epoch <- 0
  end

let scratch ?(n = 0) () =
  let sc =
    { stamp = [||]; depth = [||]; parent = [||]; queue = [||]; epoch = 0;
      src = -1 }
  in
  ensure sc n;
  sc

exception Stop

let search sc w ~bound ~stop src =
  ensure sc w.n;
  sc.epoch <- sc.epoch + 1;
  sc.src <- src;
  let ep = sc.epoch in
  let stamp = sc.stamp and depth = sc.depth and parent = sc.parent
  and queue = sc.queue in
  stamp.(src) <- ep;
  depth.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 and x = ref src in
  let visit y =
    if stamp.(y) <> ep then begin
      stamp.(y) <- ep;
      depth.(y) <- depth.(!x) + 1;
      parent.(y) <- !x;
      queue.(!tail) <- y;
      incr tail;
      if stop y then raise_notrace Stop
    end
  in
  (* The queue is in depth order, so the first vertex at the bound
     ends the search. *)
  try
    while !head < !tail && depth.(queue.(!head)) < bound do
      x := queue.(!head);
      incr head;
      w.neighbors !x visit
    done;
    false
  with Stop -> true

let depth sc v =
  if sc.epoch > 0 && sc.stamp.(v) = sc.epoch then sc.depth.(v) else max_int

let path sc v =
  let rec walk x acc =
    if x = sc.src then x :: acc else walk sc.parent.(x) (x :: acc)
  in
  if depth sc v = max_int then None else Some (walk v [])

let distance_within sc w ~bound u v =
  if u = v then 0
  else if search sc w ~bound ~stop:(fun y -> y = v) u then depth sc v
  else max_int

let target_distances sc w ~targets f =
  let goal = Array.make w.n (-1) in
  for u = 0 to w.n - 1 do
    let left = ref 0 in
    targets u (fun v ->
        goal.(v) <- u;
        incr left);
    if !left > 0 then begin
      ignore
        (search sc w ~bound:max_int
           ~stop:(fun y -> goal.(y) = u && (decr left; !left = 0))
           u);
      targets u (fun v -> f (depth sc v))
    end
  done
