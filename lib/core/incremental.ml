open Grapho

(* Incremental 2-spanner repair under edge churn.

   Correctness rests on a locality lemma for stretch-2 certificates.
   Write g for the pre-tick graph, g' for the post-tick graph, S for
   the maintained spanner of g and S' for its surviving restriction
   to g'. A g'-edge (x, y) is covered by S' iff (x, y) ∈ S' or the
   two endpoints share an S'-neighbor. Which g'-edges can have lost
   their certificate relative to S?

   - An edge covered by membership loses it only by being deleted —
     then it is no longer a g'-edge and needs nothing.
   - An edge (x, y) covered through a midpoint w loses the witness
     only if a spanner edge (x, w) or (w, y) left S. Spanner edges
     leave S only by being deleted from the graph (S' is S minus the
     delta's deletions), so the broken edge is incident to a deleted
     edge's endpoint.
   - An inserted edge never had a certificate; its endpoints are
     update endpoints by definition.

   So every possibly-broken g'-edge is incident to a "seed" — an
   endpoint of some deleted or inserted edge — and a sweep of the
   g'-edges incident to seeds (the candidates), probing each against
   S', finds exactly the uncovered edges. The sweep never builds S':
   since S ⊆ g and the delta's insertions are absent from g,
   S' = S ∩ g', so a candidate (itself a g'-edge) is covered by S'
   iff it is in S or has a common S-neighbor w with (x, w) and
   (w, y) both g'-edges. The dirty ball D is then the broken edges'
   endpoints plus all their common g'-neighbors (the 2-path midpoints
   a repair could use); re-running the protocol on g'[D] yields a
   2-spanner R of g'[D], and since every broken edge has both
   endpoints in D it is an edge of g'[D], hence covered by R.
   S'' = S' ∪ R therefore covers every g'-edge: unbroken ones keep
   their S' certificate (coverage is monotone in the edge set),
   broken ones get one from R.

   Under a fault schedule the re-run can stop with a broken edge
   uncovered. Each such edge is inserted into S'' itself, which costs
   size but never stretch, so every tick ends with a valid spanner of
   g' whenever it started with one of g. The tick certifies that
   locally: coverage can have changed only on the candidates, so it
   re-probes each of them against the final spanner, and that verdict
   equals a whole-graph check given a valid pre-tick spanner (the
   induction base, one full check when the spanner is first
   installed).

   S is held as its own CSR, never as an edge set. Its deleted edges
   and R \ S go into one reused delta and one [Ugraph.apply_delta]
   row merge, as does the graph's own update; only a patched tick
   merges a second time. Every step keeps S ⊆ g' by construction, so
   [valid] is one probe per graph edge against the held CSR. *)

type tick_stats = {
  tick : int;
  deleted : int;
  inserted : int;
  seeds : int;
  candidates : int;
  broken : int;
  dirty : int;
  repair_rounds : int;
  repair_iterations : int;
  spanner_size : int;
  patched : int;
  valid : bool;
}

type t = {
  seed : int;
  mutable graph : Ugraph.t;
  mutable spanner : Ugraph.t;
  mutable tick : int;
  sdelta : Ugraph.Delta.t;  (* the spanner's share of a tick *)
  mark : Bytes.t;  (* bit 0: seed this tick, bit 1: in the dirty ball *)
  seed_buf : Bigcsr.buf;
  dirty_buf : Bigcsr.buf;
  broken_buf : Bigcsr.buf;  (* broken edges as endpoint pairs *)
}

let create ?(seed = 0x2D5F1) ~spanner g =
  let spanner = Ugraph.induced_by_edges g spanner in
  {
    seed;
    graph = g;
    spanner;
    tick = 0;
    sdelta = Ugraph.Delta.create ();
    mark = Bytes.make (Ugraph.n g) '\000';
    seed_buf = Bigcsr.buf_create 64;
    dirty_buf = Bigcsr.buf_create 64;
    broken_buf = Bigcsr.buf_create 64;
  }

let bootstrap ?(seed = 0x2D5F1) ?sched ?par ?trace g =
  let r = Two_spanner_local.run ~seed ?sched ?par ?trace g in
  (create ~seed ~spanner:r.spanner g, r)

let graph t = t.graph
let spanner t = Ugraph.edge_set t.spanner
let spanner_csr t = t.spanner
let tick t = t.tick
let valid t = Spanner_check.is_2_spanner_csr t.graph ~spanner_csr:t.spanner

(* Applies the spanner's share of a tick, queued in [t.sdelta]; a share
   that changes nothing costs nothing. *)
let update_spanner t s =
  if Ugraph.Delta.deletes t.sdelta + Ugraph.Delta.inserts t.sdelta = 0 then s
  else Ugraph.apply_delta s t.sdelta

(* [Spanner_check.covers_edge_2] against S' = S ∩ g', read off S: the
   g'-edge (u, v) is in S', or a common S-neighbor's two spanner
   edges both survive in g'. *)
let covered_in g' s u v =
  Ugraph.mem_edge s u v
  ||
  try
    Ugraph.iter_common_neighbors
      (fun w ->
        if Ugraph.mem_edge g' u w && Ugraph.mem_edge g' w v then
          raise_notrace Exit)
      s u v;
    false
  with Exit -> true

(* Repair seeds drift per tick so consecutive dirty-ball runs do not
   reuse vote streams; same SplitMix-style decorrelation as
   {!Randomness.derived}. *)
let tick_seed t tick = t.seed lxor (tick * 0x85EBCA77) lxor 0x165667B1

let buf_get (b : Bigcsr.buf) i = Bigarray.Array1.get b.data i

let apply ?sched ?par ?adversary ?retry ?trace t d =
  let deleted = Ugraph.Delta.deletes d
  and inserted = Ugraph.Delta.inserts d in
  (* A rejected delta raises here, before any state mutates. *)
  let g' = Ugraph.apply_delta t.graph d in
  let s = t.spanner in
  Ugraph.Delta.reset t.sdelta;
  Ugraph.Delta.iter_deletes
    (fun u v ->
      if Ugraph.mem_edge s u v then Ugraph.Delta.add_delete t.sdelta u v)
    d;
  let mark = t.mark in
  let is_seed v = Char.code (Bytes.unsafe_get mark v) land 1 <> 0 in
  let set_seed v =
    let c = Char.code (Bytes.unsafe_get mark v) in
    if c land 1 = 0 then begin
      Bytes.unsafe_set mark v (Char.unsafe_chr (c lor 1));
      Bigcsr.buf_push t.seed_buf v
    end
  in
  let set_dirty v =
    let c = Char.code (Bytes.unsafe_get mark v) in
    if c land 2 = 0 then begin
      Bytes.unsafe_set mark v (Char.unsafe_chr (c lor 2));
      Bigcsr.buf_push t.dirty_buf v
    end
  in
  Ugraph.Delta.iter_deletes (fun u v -> set_seed u; set_seed v) d;
  Ugraph.Delta.iter_inserts (fun u v -> set_seed u; set_seed v) d;
  let seeds = t.seed_buf.len in
  (* The candidates: every g'-edge incident to a seed, once each (a
     seed-seed edge is charged to its larger endpoint). *)
  let iter_candidates f =
    for i = 0 to seeds - 1 do
      let u = buf_get t.seed_buf i in
      Ugraph.iter_neighbors
        (fun v -> if not (is_seed v && v < u) then f u v)
        g' u
    done
  in
  let candidates = ref 0 in
  iter_candidates (fun u v ->
      incr candidates;
      if not (covered_in g' s u v) then begin
        Bigcsr.buf_push t.broken_buf u;
        Bigcsr.buf_push t.broken_buf v;
        set_dirty u;
        set_dirty v;
        Ugraph.iter_common_neighbors set_dirty g' u v
      end);
  let broken = t.broken_buf.len / 2 in
  let dirty = t.dirty_buf.len in
  let repair_rounds = ref 0 and repair_iterations = ref 0 in
  if broken > 0 then begin
    Bigcsr.sort_range t.dirty_buf.data 0 dirty;
    let active = Array.init dirty (fun i -> buf_get t.dirty_buf i) in
    let r =
      Two_spanner_local.run
        ~seed:(tick_seed t (t.tick + 1))
        ?sched ?par ?adversary ?retry ?trace ~active g'
    in
    repair_rounds := r.metrics.rounds;
    repair_iterations := r.iterations;
    (* R ⊆ g', so an R-edge is in S' iff it is in S. *)
    Edge.Set.iter
      (fun e ->
        let u, v = Edge.endpoints e in
        if not (Ugraph.mem_edge s u v) then
          Ugraph.Delta.add_insert t.sdelta u v)
      r.spanner
  end;
  let merged = update_spanner t s in
  (* Only a faulted re-run leaves a broken edge uncovered here; it
     joins the spanner itself. *)
  Ugraph.Delta.reset t.sdelta;
  for i = 0 to broken - 1 do
    let u = buf_get t.broken_buf (2 * i)
    and v = buf_get t.broken_buf ((2 * i) + 1) in
    if not (Spanner_check.covers_edge_2 ~spanner_csr:merged u v) then
      Ugraph.Delta.add_insert t.sdelta u v
  done;
  let patched = Ugraph.Delta.inserts t.sdelta in
  let repaired = update_spanner t merged in
  (* The local verdict: only the candidates' coverage can have
     changed. *)
  let valid = ref true in
  iter_candidates (fun u v ->
      if not (Spanner_check.covers_edge_2 ~spanner_csr:repaired u v) then
        valid := false);
  for i = 0 to t.seed_buf.len - 1 do
    Bytes.unsafe_set mark (buf_get t.seed_buf i) '\000'
  done;
  for i = 0 to t.dirty_buf.len - 1 do
    Bytes.unsafe_set mark (buf_get t.dirty_buf i) '\000'
  done;
  Bigcsr.buf_reset t.seed_buf;
  Bigcsr.buf_reset t.dirty_buf;
  Bigcsr.buf_reset t.broken_buf;
  t.graph <- g';
  t.spanner <- repaired;
  t.tick <- t.tick + 1;
  {
    tick = t.tick;
    deleted;
    inserted;
    seeds;
    candidates = !candidates;
    broken;
    dirty;
    repair_rounds = !repair_rounds;
    repair_iterations = !repair_iterations;
    spanner_size = Ugraph.m repaired;
    patched;
    valid = !valid;
  }

(* ------------------------------------------------------------------ *)
(* Seeded churn generation: [replace] uniform deletions of existing
   edges plus [replace] uniform insertions of absent ones. *)

let churn ~rng ~replace g d =
  if replace < 0 then invalid_arg "Incremental.churn: negative replace";
  Ugraph.Delta.reset d;
  let n = Ugraph.n g and m = Ugraph.m g in
  let dels = min replace m in
  let chosen = Hashtbl.create (4 * (dels + 1)) in
  while Ugraph.Delta.deletes d < dels do
    let u, v = Ugraph.slot_endpoints g (Rng.int rng (2 * m)) in
    let key = (min u v * n) + max u v in
    if not (Hashtbl.mem chosen key) then begin
      Hashtbl.replace chosen key ();
      Ugraph.Delta.add_delete d u v
    end
  done;
  (* Insertions must be absent from g (a just-deleted edge is still
     "present" to [apply_delta]'s checks, and is excluded here for
     free by the [mem_edge] probe). Possible only when the graph is
     not complete; the attempt cap turns a pathological density into
     an error instead of a hang. *)
  let ins = if n < 2 then 0 else replace in
  let attempts = ref 0 in
  let max_attempts = 100 * (ins + 10) in
  while Ugraph.Delta.inserts d < ins && !attempts < max_attempts do
    incr attempts;
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v && not (Ugraph.mem_edge g u v) then begin
      let key = (min u v * n) + max u v in
      if not (Hashtbl.mem chosen key) then begin
        Hashtbl.replace chosen key ();
        Ugraph.Delta.add_insert d u v
      end
    end
  done;
  if Ugraph.Delta.inserts d < ins then
    invalid_arg "Incremental.churn: graph too dense to place insertions"
