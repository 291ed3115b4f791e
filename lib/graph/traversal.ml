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

let adjacency_of_set ~n set =
  let adj = Array.make n [] in
  Edge.Set.iter
    (fun e ->
      let u, v = Edge.endpoints e in
      adj.(u) <- v :: adj.(u);
      adj.(v) <- u :: adj.(v))
    set;
  adj

let bounded_bfs ~adj ~n u v ~bound =
  if u = v then 0
  else begin
    let dist = Array.make n max_int in
    let q = Queue.create () in
    dist.(u) <- 0;
    Queue.add u q;
    let answer = ref max_int in
    (try
       while not (Queue.is_empty q) do
         let x = Queue.pop q in
         if dist.(x) < bound then
           List.iter
             (fun y ->
               if dist.(y) = max_int then begin
                 dist.(y) <- dist.(x) + 1;
                 if y = v then begin
                   answer := dist.(y);
                   raise Exit
                 end;
                 Queue.add y q
               end)
             adj.(x)
       done
     with Exit -> ());
    !answer
  end

let set_distance_within ~n set u v ~bound =
  bounded_bfs ~adj:(adjacency_of_set ~n set) ~n u v ~bound

let directed_adjacency_of_set ~n set =
  let adj = Array.make n [] in
  Edge.Directed.Set.iter (fun (u, v) -> adj.(u) <- v :: adj.(u)) set;
  adj

let directed_set_distance_within ~n set u v ~bound =
  bounded_bfs ~adj:(directed_adjacency_of_set ~n set) ~n u v ~bound
