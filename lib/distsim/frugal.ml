(* Message-frugality substrate for the round engine: deterministic
   neighborhood-collection trees plus the counters behind the
   physical/logical message split.

   Following Bitton et al., "Message Reduction in the LOCAL Model is a
   Free Lunch" (arXiv:1909.08369), LOCAL protocols that broadcast to
   whole neighborhoods do not need one wire message per edge: vertices
   publish each broadcast payload once into a low-degree collection
   tree, and every vertex fetches everything its neighborhood
   published this round in a single aggregated "collect" message. The
   engine combines that with silence-as-information (per-directed-edge
   send memoization: an unchanged payload re-sent to the same neighbor
   in the next round costs nothing on the wire once both endpoints
   have agreed on the silence convention).

   This module owns the parts that depend only on the graph: a
   deterministic clustering (each vertex picks the member of its
   closed neighborhood with the smallest seeded hash as its hub), and
   a binary-heap-shaped tree over each cluster's members in ascending
   id order, so every tree has degree at most 3 and the construction
   is reproducible from [(graph, seed)] alone. The engine never routes
   real deliveries through the trees — the logical execution (inboxes,
   adversary coin stream, metrics.[messages]/[total_bits], round
   series) is byte-for-byte the plain engine's — the trees define what
   the {e physical} stream would have cost, which the engine meters
   into [metrics.sent_physical]/[sent_bits].

   Per-run mutable scratch (payload memos, collect accumulators) is
   ['msg]-typed and lives in a {!stream}, which [Engine.run] creates
   afresh for every run; a [t] can therefore be shared across runs and
   schedulers. The [stats] counters accumulate
   across every run the value is passed to, like a [Profile.t]. *)

type mode = Always | Auto of int

type stats = {
  mutable publishes : int;
  mutable collects : int;
  mutable suppressed : int;
  mutable markers : int;
  mutable auto_armed : int;
  mutable auto_disarmed : int;
}

type t = {
  graph : Grapho.Ugraph.t;
  seed : int;
  mode : mode;
  hub : int array;
  parent : int array;
  tree_deg : int array;
  trees : int;
  stats : stats;
}

(* splitmix-style avalanche; only relative order matters, so the
   [land max_int] truncation is harmless. *)
let mix seed w =
  let h = ((w + 1) * 0x9E3779B9) lxor (seed * 0x85EBCA6B) in
  let h = h lxor (h lsr 16) in
  let h = h * 0x21F0AAAD in
  let h = h lxor (h lsr 15) in
  let h = h * 0x735A2D97 in
  (h lxor (h lsr 15)) land max_int

let default_seed = 0x5EED5
let default_auto_window = 6

let create ?(seed = default_seed) ?(mode = Always) g =
  (match mode with
  | Auto w when w <= 0 ->
      invalid_arg "Frugal.create: Auto window must be positive"
  | _ -> ());
  let n = Grapho.Ugraph.n g in
  let hub = Array.make n 0 in
  for v = 0 to n - 1 do
    let best = ref v and best_h = ref (mix seed v) in
    Grapho.Ugraph.iter_neighbors
      (fun w ->
        let h = mix seed w in
        if h < !best_h || (h = !best_h && w < !best) then begin
          best := w;
          best_h := h
        end)
      g v;
    hub.(v) <- !best
  done;
  (* Bucket members by hub. Scanning vertices in ascending id order
     keeps each bucket sorted, which makes the heap shape — member i's
     parent is member (i-1)/2 — deterministic and id-ordered. *)
  let count = Array.make (max n 1) 0 in
  Array.iter (fun h -> count.(h) <- count.(h) + 1) hub;
  let start = Array.make (max n 1) 0 in
  let acc = ref 0 in
  for h = 0 to n - 1 do
    start.(h) <- !acc;
    acc := !acc + count.(h)
  done;
  let members = Array.make (max n 1) 0 in
  let cursor = Array.copy start in
  for v = 0 to n - 1 do
    let h = hub.(v) in
    members.(cursor.(h)) <- v;
    cursor.(h) <- cursor.(h) + 1
  done;
  let parent = Array.make n (-1) in
  let tree_deg = Array.make n 0 in
  let trees = ref 0 in
  for h = 0 to n - 1 do
    let lo = start.(h) in
    let len = count.(h) in
    if len > 0 then begin
      incr trees;
      for i = 1 to len - 1 do
        let v = members.(lo + i) in
        let p = members.(lo + ((i - 1) / 2)) in
        parent.(v) <- p;
        tree_deg.(v) <- tree_deg.(v) + 1;
        tree_deg.(p) <- tree_deg.(p) + 1
      done
    end
  done;
  {
    graph = g;
    seed;
    mode;
    hub;
    parent;
    tree_deg;
    trees = !trees;
    stats =
      {
        publishes = 0;
        collects = 0;
        suppressed = 0;
        markers = 0;
        auto_armed = 0;
        auto_disarmed = 0;
      };
  }

let graph t = t.graph
let seed t = t.seed
let mode t = t.mode
let auto_window t = match t.mode with Always -> 0 | Auto w -> w
let hub t v = t.hub.(v)
let tree_parent t v = t.parent.(v)
let tree_degree t v = t.tree_deg.(v)
let tree_count t = t.trees

let max_tree_degree t =
  Array.fold_left (fun acc d -> if d > acc then d else acc) 0 t.tree_deg

(* Counter bumps for the physical stream below, allocation-free. *)
let note_publish t = t.stats.publishes <- t.stats.publishes + 1
let note_collect t = t.stats.collects <- t.stats.collects + 1

let note_suppressed t k =
  t.stats.suppressed <- t.stats.suppressed + k

let note_marker t = t.stats.markers <- t.stats.markers + 1

let note_auto_decision t ~armed =
  if armed then t.stats.auto_armed <- t.stats.auto_armed + 1
  else t.stats.auto_disarmed <- t.stats.auto_disarmed + 1

let publishes t = t.stats.publishes
let collects t = t.stats.collects
let suppressed t = t.stats.suppressed
let markers t = t.stats.markers
let auto_armed t = t.stats.auto_armed
let auto_disarmed t = t.stats.auto_disarmed

(* ------------------------------------------------------------------ *)
(* The per-run physical stream.

   The engine meters every logical message itself and hands the
   physical side of each one to a stream: [direct] for a reliable
   point-to-point send, [broadcast] for a full-neighborhood one,
   [duplicate]/[drop] for faulted copies, and [flush_round] at the end
   of every round. Every wire message the stream decides to send goes
   back through [charge], which the engine owns (physical counters,
   profile, [Send] events). All mutation happens on the engine's merge
   thread in delivery order, so the physical stream is deterministic
   across schedulers and shard counts. *)

type 'msg stream = {
  fr : t;
  g : Grapho.Ugraph.t;
  charge : int -> int -> int -> unit;
  blocked : int -> int -> bool;
  (* [Auto] mode: per-edge suppression starts observe-only — direct
     sends are charged at full size (physical = logical on those
     edges) while the repeat statistics accumulate; [flush_round] arms
     or permanently disarms the machine once the window closes. *)
  window : int;
  mutable suppress_on : bool;
  mutable decided : bool;
  mutable obs_repeats : int;
  mutable obs_runs : int;
  (* Per-directed-edge send memo, keyed by [Ugraph.edge_slot]. The
     payload array needs a ['msg] seed, so the whole memo is allocated
     on the first direct (non-broadcast) send — runs that only ever
     broadcast (flood on the million-vertex anchors) never pay the 2m
     words. Flag bits: 1 = silence armed, 2 = queued in the sweep
     stack. *)
  mutable e_msg : 'msg array;
  mutable e_round : int array;
  mutable e_flag : Bytes.t;
  (* Sweep stack of directed edges whose silence may need an
     end-of-round Eps marker. *)
  mutable sw_slot : int array;
  mutable sw_src : int array;
  mutable sw_dst : int array;
  mutable sw_len : int;
  (* Per-vertex broadcast memo (same machine, one cell per
     broadcaster) and the per-receiver collect accumulators. *)
  mutable b_msg : 'msg array;
  b_round : int array;
  b_flag : Bytes.t;
  mutable vw : int array;
  mutable vw_len : int;
  c_round : int array;
  c_bits : int array;
  mutable cw : int array;
  mutable cw_len : int;
}

let stream t ~charge ~blocked =
  let n = max 1 (Grapho.Ugraph.n t.graph) in
  let window = auto_window t in
  {
    fr = t;
    g = t.graph;
    charge;
    blocked;
    window;
    suppress_on = window = 0;
    decided = window = 0;
    obs_repeats = 0;
    obs_runs = 0;
    e_msg = [||];
    e_round = [||];
    e_flag = Bytes.empty;
    sw_slot = Array.make 16 0;
    sw_src = Array.make 16 0;
    sw_dst = Array.make 16 0;
    sw_len = 0;
    b_msg = [||];
    b_round = Array.make n min_int;
    b_flag = Bytes.make n '\000';
    vw = Array.make 16 0;
    vw_len = 0;
    c_round = Array.make n min_int;
    c_bits = Array.make n 0;
    cw = Array.make 16 0;
    cw_len = 0;
  }

let ensure_edge s payload =
  if Array.length s.e_round = 0 then begin
    let m2 = 2 * Grapho.Ugraph.m s.g in
    if m2 > 0 then begin
      s.e_msg <- Array.make m2 payload;
      s.e_round <- Array.make m2 min_int;
      s.e_flag <- Bytes.make m2 '\000'
    end
  end

(* Room for one more push onto an int stack of length [len]. *)
let grow a len =
  if len < Array.length a then a
  else begin
    let na = Array.make (2 * len) 0 in
    Array.blit a 0 na 0 len;
    na
  end

let sw_push s slot src dst =
  s.sw_slot <- grow s.sw_slot s.sw_len;
  s.sw_src <- grow s.sw_src s.sw_len;
  s.sw_dst <- grow s.sw_dst s.sw_len;
  s.sw_slot.(s.sw_len) <- slot;
  s.sw_src.(s.sw_len) <- src;
  s.sw_dst.(s.sw_len) <- dst;
  s.sw_len <- s.sw_len + 1

(* Pointer fast path first; the structural fallback guards against
   payload types [compare] rejects. *)
let payload_eq a b = a == b || (try a = b with Invalid_argument _ -> false)

let mark_collect s ~round w bits =
  if s.c_round.(w) <> round then begin
    s.c_round.(w) <- round;
    s.c_bits.(w) <- 2;
    s.cw <- grow s.cw s.cw_len;
    s.cw.(s.cw_len) <- w;
    s.cw_len <- s.cw_len + 1
  end;
  s.c_bits.(w) <- s.c_bits.(w) + bits

(* The silence state machine for one direct send. Arm on the {e second}
   consecutive identical send (one-shot payloads stay at exact parity
   with the plain stream): fresh data costs [bits], the arming repeat
   costs a 2-bit Again marker, further repeats cost nothing, and the
   round after the run ends [flush_round] pays a 2-bit Eps marker. *)
let direct s ~round src dst payload bits =
  ensure_edge s payload;
  let slot = Grapho.Ugraph.edge_slot s.g src dst in
  let er = s.e_round and ef = s.e_flag in
  let flag = Char.code (Bytes.unsafe_get ef slot) in
  let repeat =
    Array.unsafe_get er slot = round - 1
    && payload_eq (Array.unsafe_get s.e_msg slot) payload
  in
  if s.suppress_on then begin
    if repeat then begin
      if flag land 1 = 1 then note_suppressed s.fr 1
      else begin
        if flag land 2 = 0 then sw_push s slot src dst;
        Bytes.unsafe_set ef slot (Char.chr (flag lor 3));
        s.charge src dst 2;
        note_marker s.fr
      end
    end
    else begin
      if flag land 1 = 1 then
        Bytes.unsafe_set ef slot (Char.chr (flag land lnot 1));
      s.charge src dst bits
    end
  end
  else begin
    (* Observe-only (an [Auto] window, or an [Auto] run that decided
       against markers): full charge, plus — while undecided —
       run-length statistics through flag bit 4. *)
    if s.decided then ()
    else if repeat then begin
      s.obs_repeats <- s.obs_repeats + 1;
      if flag land 4 = 0 then begin
        s.obs_runs <- s.obs_runs + 1;
        Bytes.unsafe_set ef slot (Char.chr (flag lor 4))
      end
    end
    else if flag land 4 <> 0 then
      Bytes.unsafe_set ef slot (Char.chr (flag land lnot 4));
    s.charge src dst bits
  end;
  Array.unsafe_set er slot round;
  Array.unsafe_set s.e_msg slot payload

(* Faulted copies are charged at full size (a sender cannot lean on
   silence over a lossy link), conservatively never under-counting.
   A duplicated copy went over the wire regardless of the memo: record
   the send without engaging suppression. *)
let duplicate s ~round src dst payload bits =
  s.charge src dst bits;
  s.charge src dst bits;
  ensure_edge s payload;
  let slot = Grapho.Ugraph.edge_slot s.g src dst in
  let flag = Char.code (Bytes.get s.e_flag slot) in
  if flag land 1 = 1 then Bytes.set s.e_flag slot (Char.chr (flag land lnot 1));
  s.e_round.(slot) <- round;
  s.e_msg.(slot) <- payload

(* A drop desynchronizes the receiver's replay cache, so the silence
   convention on that edge must be re-established from scratch. *)
let drop s src dst bits =
  s.charge src dst bits;
  if Array.length s.e_round > 0 then begin
    let slot = Grapho.Ugraph.edge_slot s.g src dst in
    s.e_round.(slot) <- min_int;
    let flag = Char.code (Bytes.get s.e_flag slot) in
    if flag land 1 = 1 then
      Bytes.set s.e_flag slot (Char.chr (flag land lnot 1))
  end

(* A segment is a broadcast when it spells out the whole neighbor row
   with one shared (physically equal) payload — which is what the
   protocols' broadcast helpers emit. The test replaces the per-message
   [mem_edge] binary searches with one linear row comparison, which is
   where the frugal merge-path speedup comes from. *)
let is_broadcast s src dsts msgs ~lo ~hi =
  hi - lo >= 2
  &&
  let p0 = Array.unsafe_get msgs lo in
  let shared = ref true in
  let i = ref (lo + 1) in
  while !shared && !i < hi do
    if Array.unsafe_get msgs !i != p0 then shared := false;
    incr i
  done;
  !shared && Grapho.Ugraph.row_matches s.g src dsts ~lo ~hi

(* One full-neighborhood broadcast: one tree publish, and a collect
   mark per receiver (aggregated into one physical message per
   receiver per round at [flush_round]). Repeated broadcasts run the
   same silence machine per broadcaster. *)
let broadcast s ~round src dsts ~lo ~hi payload bits =
  if Array.length s.b_msg = 0 then
    s.b_msg <- Array.make (Array.length s.b_round) payload;
  let repeat =
    s.b_round.(src) = round - 1 && payload_eq s.b_msg.(src) payload
  in
  let flag = Char.code (Bytes.get s.b_flag src) in
  if repeat && flag land 1 = 1 then note_suppressed s.fr 1
  else begin
    let pub_bits =
      if repeat then begin
        if flag land 2 = 0 then begin
          s.vw <- grow s.vw s.vw_len;
          s.vw.(s.vw_len) <- src;
          s.vw_len <- s.vw_len + 1
        end;
        Bytes.set s.b_flag src (Char.chr (flag lor 3));
        note_marker s.fr;
        2
      end
      else begin
        if flag land 1 = 1 then
          Bytes.set s.b_flag src (Char.chr (flag land lnot 1));
        note_publish s.fr;
        bits
      end
    in
    s.charge src (hub s.fr src) pub_bits;
    for i = lo to hi - 1 do
      mark_collect s ~round (Array.unsafe_get dsts i) pub_bits
    done
  end;
  s.b_round.(src) <- round;
  s.b_msg.(src) <- payload

let flush_round s ~round:r =
  (* Close an [Auto] observation window: arm iff the marker pair per
     silence run costs fewer physical messages than the repeats it
     would silence (average run length > 2). *)
  if (not s.decided) && r >= s.window then begin
    s.decided <- true;
    let armed = s.obs_repeats > 2 * s.obs_runs in
    s.suppress_on <- armed;
    note_auto_decision s.fr ~armed
  end;
  (* Silences whose run ended this round pay their Eps marker (skipped
     silently when the edge is crashed or cut — the marker could not
     cross, and [blocked] reads no coins). *)
  let w = ref 0 in
  for i = 0 to s.sw_len - 1 do
    let slot = s.sw_slot.(i) in
    let flag = Char.code (Bytes.get s.e_flag slot) in
    if flag land 1 = 1 then
      if s.e_round.(slot) >= r then begin
        s.sw_slot.(!w) <- slot;
        s.sw_src.(!w) <- s.sw_src.(i);
        s.sw_dst.(!w) <- s.sw_dst.(i);
        incr w
      end
      else begin
        Bytes.set s.e_flag slot '\000';
        let src = s.sw_src.(i) and dst = s.sw_dst.(i) in
        if not (s.blocked src dst) then begin
          s.charge src dst 2;
          note_marker s.fr
        end
      end
    else Bytes.set s.e_flag slot (Char.chr (flag land lnot 2))
  done;
  s.sw_len <- !w;
  (* Same sweep for armed broadcasters. *)
  let w = ref 0 in
  for i = 0 to s.vw_len - 1 do
    let v = s.vw.(i) in
    let flag = Char.code (Bytes.get s.b_flag v) in
    if flag land 1 = 1 then
      if s.b_round.(v) >= r then begin
        s.vw.(!w) <- v;
        incr w
      end
      else begin
        Bytes.set s.b_flag v '\000';
        s.charge v (hub s.fr v) 2;
        note_marker s.fr;
        Grapho.Ugraph.iter_neighbors (fun u -> mark_collect s ~round:r u 2) s.g v
      end
    else Bytes.set s.b_flag v (Char.chr (flag land lnot 2))
  done;
  s.vw_len <- !w;
  (* Flush the aggregated collects: one physical message per receiver
     that heard tree traffic this round, 2 header bits plus everything
     fetched. [src = -1] marks the receiver side of a tree, like
     [Phase]'s global -1. *)
  for i = 0 to s.cw_len - 1 do
    let v = s.cw.(i) in
    s.charge (-1) v s.c_bits.(v);
    note_collect s.fr
  done;
  s.cw_len <- 0
