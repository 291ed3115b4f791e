(* ------------------------------------------------------------------ *)
(* The mailbox API: reused inbox views and outbox push handles.

   Both sides are growable parallel arrays (an [int array] of endpoints
   next to a ['msg array] of payloads) so that neither delivery nor
   reading materializes tuples, cons cells or send records. Growth
   seeds the fresh payload array with the element being pushed, which
   sidesteps the need for a ['msg] dummy without [Obj.magic]; arrays
   only ever grow, so the steady state of a run allocates nothing in
   the message plumbing. *)

type 'msg inbox = {
  mutable i_src : int array;
  mutable i_msg : 'msg array;
  mutable i_len : int;
  i_hint : int;
      (* First growth jumps straight to this capacity: the engine
         hints each bank buffer with its vertex's degree, so a run
         allocates each buffer once instead of walking a doubling
         chain. *)
}

type 'msg outbox = {
  mutable o_dst : int array;
  mutable o_msg : 'msg array;
  mutable o_len : int;
  o_hint : int;
}

let inbox_create ?(hint = 0) () =
  { i_src = [||]; i_msg = [||]; i_len = 0; i_hint = hint }

let inbox_clear ib = ib.i_len <- 0

let inbox_push ib ~src msg =
  let cap = Array.length ib.i_msg in
  if ib.i_len = cap then begin
    let ncap = max (max 8 ib.i_hint) (2 * cap) in
    let msgs = Array.make ncap msg in
    Array.blit ib.i_msg 0 msgs 0 ib.i_len;
    ib.i_msg <- msgs;
    let srcs = Array.make ncap 0 in
    Array.blit ib.i_src 0 srcs 0 ib.i_len;
    ib.i_src <- srcs
  end;
  ib.i_src.(ib.i_len) <- src;
  ib.i_msg.(ib.i_len) <- msg;
  ib.i_len <- ib.i_len + 1

let inbox_iter f ib =
  for i = 0 to ib.i_len - 1 do
    f ~src:ib.i_src.(i) ib.i_msg.(i)
  done

let inbox_fold f acc ib =
  let acc = ref acc in
  for i = 0 to ib.i_len - 1 do
    acc := f !acc ~src:ib.i_src.(i) ib.i_msg.(i)
  done;
  !acc

let outbox_create ?(hint = 0) () =
  { o_dst = [||]; o_msg = [||]; o_len = 0; o_hint = hint }

let outbox_clear ob = ob.o_len <- 0
let outbox_length ob = ob.o_len

let emit ob ~dst msg =
  let cap = Array.length ob.o_msg in
  if ob.o_len = cap then begin
    let ncap = max (max 8 ob.o_hint) (2 * cap) in
    let msgs = Array.make ncap msg in
    Array.blit ob.o_msg 0 msgs 0 ob.o_len;
    ob.o_msg <- msgs;
    let dsts = Array.make ncap 0 in
    Array.blit ob.o_dst 0 dsts 0 ob.o_len;
    ob.o_dst <- dsts
  end;
  ob.o_dst.(ob.o_len) <- dst;
  ob.o_msg.(ob.o_len) <- msg;
  ob.o_len <- ob.o_len + 1

let outbox_iter f ob =
  for i = 0 to ob.o_len - 1 do
    f ~dst:ob.o_dst.(i) ob.o_msg.(i)
  done

let outbox_dst ob i = ob.o_dst.(i)
let outbox_payload ob i = ob.o_msg.(i)

(* In-place dedup keeping the first message of every source, for the
   retransmit wrapper: duplicates (retransmitted copies, adversarial
   [Duplicate]s) arrive as extra entries sharing a [src], and protocols
   that send at most one message per (src, dst) per round can restore
   their expected inbox shape with this. Quadratic in the inbox length,
   which is degree-bounded; allocates nothing. *)
let inbox_keep_first_per_src ib =
  let len = ib.i_len in
  if len > 1 then begin
    let w = ref 1 in
    for i = 1 to len - 1 do
      let s = ib.i_src.(i) in
      let dup = ref false in
      let j = ref 0 in
      while (not !dup) && !j < !w do
        if ib.i_src.(!j) = s then dup := true;
        incr j
      done;
      if not !dup then begin
        ib.i_src.(!w) <- s;
        ib.i_msg.(!w) <- ib.i_msg.(i);
        incr w
      end
    done;
    ib.i_len <- !w
  end

(* Per-shard [(vertex, send-count)] segment index for the parallel
   merge: shard outboxes are contiguous concatenations of their
   vertices' sends, so the merge replays [cnt] messages per recorded
   vertex at a running offset — no per-vertex lists. *)
type seg = {
  mutable s_v : int array;
  mutable s_cnt : int array;
  mutable s_len : int;
}

let seg_make () = { s_v = [||]; s_cnt = [||]; s_len = 0 }

let seg_push s v c =
  let cap = Array.length s.s_v in
  if s.s_len = cap then begin
    let ncap = max 8 (2 * cap) in
    let nv = Array.make ncap 0 in
    let nc = Array.make ncap 0 in
    Array.blit s.s_v 0 nv 0 s.s_len;
    Array.blit s.s_cnt 0 nc 0 s.s_len;
    s.s_v <- nv;
    s.s_cnt <- nc
  end;
  s.s_v.(s.s_len) <- v;
  s.s_cnt.(s.s_len) <- c;
  s.s_len <- s.s_len + 1

(* ------------------------------------------------------------------ *)

type metrics = {
  rounds : int;
  messages : int;
  total_bits : int;
  max_message_bits : int;
  congest_violations : int;
  steps : int;
  dropped : int;
  crashed : int;
  sent_physical : int;
  sent_bits : int;
  minor_words : float;
  allocated_bytes : float;
}

(* Logical layer only: the fields a frugal run keeps bit-identical to
   a plain run (everything deterministic except the physical stream
   and the GC counters). *)
let metrics_logical_eq a b =
  a.rounds = b.rounds && a.messages = b.messages
  && a.total_bits = b.total_bits
  && a.max_message_bits = b.max_message_bits
  && a.congest_violations = b.congest_violations
  && a.steps = b.steps && a.dropped = b.dropped && a.crashed = b.crashed

let metrics_deterministic_eq a b =
  metrics_logical_eq a b
  && a.sent_physical = b.sent_physical
  && a.sent_bits = b.sent_bits

type sched = [ `Active | `Naive ]

type ('state, 'msg) spec = {
  init :
    n:int -> vertex:int -> neighbors:int array -> out:'msg outbox ->
    'state;
  step :
    round:int -> vertex:int -> 'state -> 'msg inbox -> out:'msg outbox ->
    'state * [ `Continue | `Done ];
  measure : 'msg -> int;
}

exception Congest_violation of { src : int; dst : int; bits : int }

let now_ns = Clock.now_ns

(* Message accounting, one message at a time. [round] is the engine's
   current-round cell (0 during init), read when stamping [Send]
   events. [take_round] snapshots and resets the per-round deltas for a
   [Round_end] event; it is only called when tracing, and the per-round
   counters are only maintained when tracing, so the [Trace.null] path
   does exactly the work the untraced engine did. GC pressure is
   metered from [Gc] counters on the calling domain: run totals always
   (two float reads at the boundaries), per-round deltas only when
   tracing. [profile], when installed, sees every metered message's
   size; like the trace emission this happens on the calling (merge)
   thread only. *)
let make_accounting ?adversary ?profile ?frugal ~trace ~round ~strict
    ~graph ~measure () =
  let tracing = not (Trace.is_null trace) in
  let wants_sends = Trace.wants_sends trace in
  let frugal_on = frugal <> None in
  let messages = ref 0 in
  let total_bits = ref 0 in
  let max_message_bits = ref 0 in
  let congest_violations = ref 0 in
  let dropped = ref 0 in
  (* The physical stream ([frugal] only; a plain run's physical stream
     {e is} its logical one, copied at [finish] time). *)
  let phys_messages = ref 0 in
  let phys_bits = ref 0 in
  let minor0 = Gc.minor_words () in
  let alloc0 = Gc.allocated_bytes () in
  (* Per-round deltas (tracing only, except [r_dropped] which also
     feeds the per-round [dropped] column and costs nothing when no
     adversary is installed). *)
  let r_messages = ref 0 in
  let r_bits = ref 0 in
  let r_max_bits = ref 0 in
  let r_violations = ref 0 in
  let r_dropped = ref 0 in
  let r_physical = ref 0 in
  let r_minor_base = ref minor0 in
  (* Meter one logical message (it {e was} sent, delivered or not):
     run totals, per-round deltas, congestion check. On a plain run
     this is also the physical stream, so the profile hook and [Send]
     emission live here; under [?frugal] those describe the physical
     stream and move to [charge] below. *)
  let meter ~bandwidth src dst bits =
    if not frugal_on then begin
      (match profile with Some p -> Profile.record_bits p bits | None -> ());
      if tracing && wants_sends then
        Trace.emit trace (Trace.Send { src; dst; bits; round = !round })
    end;
    if tracing then begin
      incr r_messages;
      r_bits := !r_bits + bits;
      if bits > !r_max_bits then r_max_bits := bits
    end;
    incr messages;
    total_bits := !total_bits + bits;
    if bits > !max_message_bits then max_message_bits := bits;
    match bandwidth with
    | Some limit when bits > limit ->
        if strict then raise (Congest_violation { src; dst; bits })
        else begin
          incr congest_violations;
          if tracing then incr r_violations
        end
    | _ -> ()
  in
  (* Meter one physical message (frugal runs only): what would
     actually cross the wire once silences and collection trees are in
     play. [dst = -1] is the receiver side of an aggregated collect;
     tree-internal hops are represented by the publish itself. *)
  let charge src dst bits =
    (match profile with Some p -> Profile.record_bits p bits | None -> ());
    incr phys_messages;
    phys_bits := !phys_bits + bits;
    if tracing then begin
      incr r_physical;
      if wants_sends then
        Trace.emit trace (Trace.Send { src; dst; bits; round = !round })
    end
  in
  let check_edge src dst =
    if not (Grapho.Ugraph.mem_edge graph src dst) then
      invalid_arg
        (Printf.sprintf "Engine: vertex %d sent to non-neighbor %d" src dst)
  in
  let phys =
    match frugal with
    | None -> None
    | Some fr ->
        if
          not
            (Frugal.graph fr == graph
            || Grapho.Ugraph.equal (Frugal.graph fr) graph)
        then invalid_arg "Engine: ?frugal value built for a different graph";
        let blocked =
          match adversary with
          | None -> fun _ _ -> false
          | Some adv ->
              fun src dst -> Adversary.blocks adv ~src ~dst <> None
        in
        Some (Frugal.stream fr ~charge ~blocked)
  in
  (* The adversary and frugal branches are resolved {e once} here, so
     the plain no-adversary account path is exactly the
     pre-fault-injection code. [account] meters one message;
     [account_seg] meters one drained outbox segment (all sends of one
     vertex this round) so the frugal path can recognize
     full-neighborhood broadcasts; [flush_round] settles end-of-round
     physical state (end-of-silence markers, aggregated collects). *)
  let account =
    match (adversary, phys) with
    | None, None ->
        fun ~bandwidth ~deliver src dst payload ->
          check_edge src dst;
          meter ~bandwidth src dst (measure payload);
          deliver ~src ~dst payload
    | _ -> (
        (* The coin stream is consulted per {e logical} message in
           delivery order, exactly as on a plain run, so faulted
           executions stay bit-identical with and without [?frugal]. *)
        fun ~bandwidth ~deliver src dst payload ->
          check_edge src dst;
          let bits = measure payload in
          let verdict =
            match adversary with
            | None -> Adversary.Deliver
            | Some adv -> Adversary.consult adv ~src ~dst
          in
          match verdict with
          | Adversary.Deliver ->
              meter ~bandwidth src dst bits;
              (match phys with
              | Some s -> Frugal.direct s ~round:!round src dst payload bits
              | None -> ());
              deliver ~src ~dst payload
          | Adversary.Duplicate ->
              meter ~bandwidth src dst bits;
              deliver ~src ~dst payload;
              meter ~bandwidth src dst bits;
              deliver ~src ~dst payload;
              (match phys with
              | Some s ->
                  Frugal.duplicate s ~round:!round src dst payload bits
              | None -> ())
          | Adversary.Drop reason ->
              meter ~bandwidth src dst bits;
              (match phys with
              | Some s -> Frugal.drop s src dst bits
              | None -> ());
              incr dropped;
              incr r_dropped;
              if tracing && wants_sends then
                Trace.emit trace
                  (Trace.Message_dropped { src; dst; round = !round; reason })
        )
  in
  let account_each ~bandwidth ~deliver src dsts msgs ~lo ~hi =
    for i = lo to hi - 1 do
      account ~bandwidth ~deliver src
        (Array.unsafe_get dsts i)
        (Array.unsafe_get msgs i)
    done
  in
  let account_seg =
    match (phys, adversary) with
    | Some s, None ->
        (* A broadcast is metered as one logical message per receiver
           and handed to the physical stream as a whole. Collection
           trees assume a reliable network; under an adversary every
           message takes the per-edge path so the coin stream is
           untouched. *)
        fun ~bandwidth ~deliver src dsts msgs ~lo ~hi ->
          if Frugal.is_broadcast s src dsts msgs ~lo ~hi then begin
            let payload = Array.unsafe_get msgs lo in
            let bits = measure payload in
            for i = lo to hi - 1 do
              let dst = Array.unsafe_get dsts i in
              meter ~bandwidth src dst bits;
              deliver ~src ~dst payload
            done;
            Frugal.broadcast s ~round:!round src dsts ~lo ~hi payload bits
          end
          else account_each ~bandwidth ~deliver src dsts msgs ~lo ~hi
    | _ -> account_each
  in
  let flush_round =
    match phys with
    | None -> fun () -> ()
    | Some s -> fun () -> Frugal.flush_round s ~round:!round
  in
  let finish rounds ~steps ~crashed =
    {
      rounds;
      messages = !messages;
      total_bits = !total_bits;
      max_message_bits = !max_message_bits;
      congest_violations = !congest_violations;
      steps;
      dropped = !dropped;
      crashed;
      sent_physical = (if frugal_on then !phys_messages else !messages);
      sent_bits = (if frugal_on then !phys_bits else !total_bits);
      minor_words = (Gc.minor_words () -. minor0);
      allocated_bytes =
        (* [Gc.minor_words] is precise (it adds the unflushed young
           region), but on this runtime [Gc.allocated_bytes] only
           advances when the minor heap is flushed, so for runs that
           fit inside one minor heap the raw delta undercounts —
           while still being the only counter that sees direct
           major-heap allocations (blocks over 256 words, e.g. big
           arrays). Take the max of both views: a conservative lower
           bound on total allocation that is never below the minor
           activity actually measured. *)
        (let raw = Gc.allocated_bytes () -. alloc0 in
         let word_bytes = float_of_int (Sys.word_size / 8) in
         Float.max (word_bytes *. (Gc.minor_words () -. minor0)) raw);
    }
  in
  let take_round ~stepped ~vdone ~crashed ~elapsed_ns r =
    let minor_now = Gc.minor_words () in
    let stat =
      {
        Trace.round = r;
        messages = !r_messages;
        bits = !r_bits;
        max_bits = !r_max_bits;
        vertices_stepped = stepped;
        vertices_done = vdone;
        congest_violations = !r_violations;
        dropped = !r_dropped;
        crashed;
        elapsed_ns;
        minor_words = int_of_float (minor_now -. !r_minor_base);
        physical = (if frugal_on then !r_physical else !r_messages);
      }
    in
    r_minor_base := minor_now;
    r_messages := 0;
    r_bits := 0;
    r_max_bits := 0;
    r_violations := 0;
    r_dropped := 0;
    r_physical := 0;
    stat
  in
  (tracing, account_seg, finish, take_round, flush_round)

(* Sparse activation ([?active]): the engine can run a spec on a
   restricted vertex set. Semantically the run IS the protocol on the
   induced subgraph [graph[active]] — init hands each active vertex
   only its active neighbors, deliveries to frozen vertices are
   rejected, and termination quantifies over the active set — but
   vertex ids, the randomness they key, and [check_edge]'s membership
   probes all stay global, so a protocol needs no renumbering. Every
   engine structure (states, done flags, inbox banks) is sized to
   |active|, not n: the per-round and per-run cost scales with the
   activation footprint, which is what makes ball-local spanner
   repair cheaper than recomputing. Only the vertex-id -> slot map is
   O(n). The slot order equals the (strictly ascending) active order,
   so side effects replay in ascending vertex id exactly like a dense
   run and the seq / par / naive bit-identity contract carries over
   unchanged. *)
let validate_active ~n = function
  | None -> ()
  | Some act ->
      let prev = ref (-1) in
      Array.iter
        (fun v ->
          if v < 0 || v >= n then
            invalid_arg
              (Printf.sprintf "Engine: ?active vertex %d out of range [0,%d)"
                 v n);
          if v <= !prev then
            invalid_arg "Engine: ?active must be strictly ascending";
          prev := v)
        act

let slot_of_vertex ~n act =
  let pos = Array.make n (-1) in
  Array.iteri (fun i v -> pos.(v) <- i) act;
  pos

let filtered_neighbors ~graph ~pos v =
  let cnt =
    Grapho.Ugraph.fold_neighbors
      (fun acc u -> if Array.unsafe_get pos u >= 0 then acc + 1 else acc)
      graph v 0
  in
  let arr = Array.make cnt 0 in
  let i = ref 0 in
  Grapho.Ugraph.iter_neighbors
    (fun u ->
      if Array.unsafe_get pos u >= 0 then begin
        arr.(!i) <- u;
        incr i
      end)
    graph v;
  arr

(* Round 0: initialize the [a] running vertices in ascending id order,
   draining the shared outbox after each init so delivery, metric and
   trace side effects happen in exactly per-vertex ascending order.
   [vertex_of] maps a slot to its vertex and [neighbors] is what each
   init is handed (filtered to the active set on a sparse run). The
   first vertex's state seeds the states array (no dummy ['state]
   exists). *)
let init_states ~n ~a ~vertex_of ~neighbors ~(spec : _ spec) ~out ~drain =
  let init slot =
    let v = vertex_of slot in
    let s = spec.init ~n ~vertex:v ~neighbors:(neighbors v) ~out in
    drain v;
    s
  in
  if a = 0 then [||]
  else begin
    let states = Array.make a (init 0) in
    for slot = 1 to a - 1 do
      states.(slot) <- init slot
    done;
    states
  end

(* Normalizing an empty-schedule adversary away keeps the [None] hot
   path byte-for-byte what it was before fault injection existed — the
   drop-p=0 ≡ no-adversary identity holds trivially. *)
let normalize_adversary = function
  | Some a when not (Adversary.has_faults a) -> None
  | a -> a

(* The one round loop. Each round swaps two preallocated banks of
   per-slot inbox buffers (this round's sends accumulate in the other
   bank), activates the adversary's faults, then steps the slots the
   scheduler wakes: under [`Active] those with pending messages or not
   yet [`Done] (correct whenever the algorithm is quiescent when done),
   under [`Naive] every uncrashed one. A vertex's own buffer is its
   inbox view, and its sends land in a reused outbox drained —
   validated, metered, traced, delivered — right after its step, so
   steady-state rounds allocate nothing in the engine. Engine arrays
   are slot-indexed ([slot] equals the vertex id on a dense run).

   With [par > 1] (and [`Active]) the slot range is cut into
   contiguous shards stepped on a persistent domain pool with the same
   per-vertex body; each shard appends its sends to a per-shard outbox
   and a [(vertex, count)] segment index, and a serial merge replays
   them in ascending vertex id — the sequential loop's side-effect
   order. Shards write only disjoint per-slot state plus per-shard
   scratch, and the pool barrier publishes those writes, so the result
   is bit-identical to [par = 1] (GC-pressure metrics excepted). Only
   error paths differ: a strict [Congest_violation] or a non-neighbor
   [Invalid_argument] is raised at merge time, after the whole round
   has been stepped. *)
let run ?max_rounds ?(strict = false) ?(trace = Trace.null) ?(sched = `Active)
    ?(par = 1) ?adversary ?profile ?frugal ?active:act_opt ~model ~graph spec =
  let n = Grapho.Ugraph.n graph in
  validate_active ~n act_opt;
  (* Frugal keys per-edge suppression machines on the full graph and
     would silently mis-account against an induced subgraph — reject
     rather than guess a semantics. The adversary, by contrast,
     composes: its coin stream is consulted once per delivered message
     in merge order (unchanged by sparsity), fraction crashes resolve
     over the full n, and a crash landing on a frozen vertex is a no-op
     (the vertex was never running). *)
  if act_opt <> None && frugal <> None then
    invalid_arg "Engine: ?active is incompatible with ?frugal";
  let adversary = normalize_adversary adversary in
  (match adversary with Some a -> Adversary.reset a ~n | None -> ());
  (* [a] vertices actually run; [slot] indexes every engine array and
     equals the vertex id on a dense run, so the dense path costs one
     predictable branch per stepped vertex and nothing else. *)
  let sparse = act_opt <> None in
  let act = match act_opt with Some act -> act | None -> [||] in
  let a = if sparse then Array.length act else n in
  let pos = if sparse then slot_of_vertex ~n act else [||] in
  let vertex_of slot = if sparse then Array.unsafe_get act slot else slot in
  let max_rounds =
    match max_rounds with Some r -> r | None -> 50 * (a + 5)
  in
  let profiling = profile <> None in
  (match profile with Some p -> Profile.run_begin p | None -> ());
  let naive = sched = `Naive in
  (* The naive reference stays single-domain by design: it is the thing
     the parallel path is diffed against. [par] is clamped to [a] before
     the pool lookup, because [Pool.get] may hand back a larger cached
     pool; [k] is the shard count actually used per round. *)
  let par = if naive then 1 else max 1 (min par a) in
  let pool = if par > 1 then Some (Pool.get par) else None in
  let k = match pool with None -> 1 | Some p -> min par (Pool.size p) in
  (match (profile, pool) with
  | Some p, Some _ -> Profile.ensure_shards p k
  | _ -> ());
  (* Per-shard scratch, allocated once and reused every round. *)
  let shard_out = Array.init k (fun _ -> outbox_create ()) in
  let shard_seg = Array.init k (fun _ -> seg_make ()) in
  let shard_stepped = Array.make k 0 in
  let shard_delta = Array.make k 0 in
  (* Degree in the full graph is an upper bound on the induced degree,
     so the hint stays valid on sparse runs. *)
  let slot_hint s = Grapho.Ugraph.degree graph (vertex_of s) in
  let bank_a = Array.init a (fun s -> inbox_create ~hint:(slot_hint s) ()) in
  let bank_b = Array.init a (fun s -> inbox_create ~hint:(slot_hint s) ()) in
  let cur = ref bank_a and next = ref bank_b in
  let pending = ref 0 in (* messages sitting in [next] *)
  let done_flags = Array.make a false in
  let not_done = ref a in
  let round = ref 0 in
  let tracing, account_seg, finish, take_round, flush_round =
    make_accounting ?adversary ?profile ?frugal ~trace ~round ~strict ~graph
      ~measure:spec.measure ()
  in
  let crashed_now () =
    match adversary with None -> 0 | Some a -> Adversary.crashed_count a
  in
  let is_crashed =
    match adversary with
    | None -> fun _ -> false
    | Some adv -> Adversary.is_crashed adv
  in
  let bandwidth = Model.bandwidth model in
  let push ~src ~dst payload =
    incr pending;
    inbox_push !next.(dst) ~src payload
  in
  let deliver =
    if not sparse then push
    else fun ~src ~dst payload ->
      let slot = pos.(dst) in
      if slot < 0 then
        invalid_arg
          (Printf.sprintf "Engine: vertex %d sent to frozen vertex %d" src
             dst);
      push ~src ~dst:slot payload
  in
  let seg src dsts msgs ~lo ~hi =
    account_seg ~bandwidth ~deliver src dsts msgs ~lo ~hi
  in
  let out = outbox_create ~hint:(Grapho.Ugraph.max_degree graph) () in
  let drain src =
    seg src out.o_dst out.o_msg ~lo:0 ~hi:out.o_len;
    out.o_len <- 0
  in
  (* Record a step's verdict; returns the change in the not-done
     count. *)
  let settle slot status =
    match status with
    | `Done ->
        if done_flags.(slot) then 0
        else begin
          done_flags.(slot) <- true;
          -1
        end
    | `Continue ->
        if done_flags.(slot) then begin
          done_flags.(slot) <- false;
          1
        end
        else 0
  in
  let round_begin () =
    if tracing then Trace.emit trace (Trace.Round_begin !round);
    if tracing || profiling then now_ns () else 0
  in
  let round_end t0 ~stepped =
    flush_round ();
    let t1 = if tracing || profiling then now_ns () else 0 in
    (match profile with
    | Some p -> Profile.round_span p ~round:!round ~t0 ~t1
    | None -> ());
    if tracing then
      Trace.emit trace
        (Trace.Round_end
           (take_round ~stepped ~vdone:(a - !not_done)
              ~crashed:(crashed_now ()) ~elapsed_ns:(t1 - t0) !round))
  in
  (* Round 0: init everyone (always sequential; active vertices only
     on a sparse run). *)
  let t0 = round_begin () in
  let neighbors =
    if sparse then filtered_neighbors ~graph ~pos
    else Grapho.Ugraph.neighbors graph
  in
  let states = init_states ~n ~a ~vertex_of ~neighbors ~spec ~out ~drain in
  (* The per-vertex step body of both steppers: step the woken slots of
     [lo, hi) with sends going to [out]. Sequentially each vertex's
     sends are drained at once; in a shard they are indexed for the
     merge (draining an empty outbox is a no-op, so a vertex that sent
     nothing is not recorded; the segment keeps the global vertex id,
     which the merge's accounting validates against the full graph).
     Shards record inbox sizes into disjoint profile slots that the
     merge flushes on the calling thread. *)
  let sharded = pool <> None in
  let step_slots ~round ~shard ~lo ~hi out =
    let bank = !cur in
    let sg = shard_seg.(shard) in
    let stepped = ref 0 and delta = ref 0 in
    for slot = lo to hi - 1 do
      let b = bank.(slot) in
      if
        b.i_len > 0
        || (not done_flags.(slot))
        || (naive && not (is_crashed (vertex_of slot)))
      then begin
        let v = vertex_of slot in
        incr stepped;
        (match profile with
        | Some p when sharded -> Profile.record_shard_inbox p ~shard b.i_len
        | Some p -> Profile.record_inbox p b.i_len
        | None -> ());
        let before = out.o_len in
        let state, status = spec.step ~round ~vertex:v states.(slot) b ~out in
        b.i_len <- 0;
        states.(slot) <- state;
        delta := !delta + settle slot status;
        if not sharded then drain v
        else if out.o_len > before then seg_push sg v (out.o_len - before)
      end
    done;
    shard_stepped.(shard) <- !stepped;
    shard_delta.(shard) <- !delta
  in
  (* Step one round and merge the shards' sends (none sequentially) in
     ascending vertex id; returns how many vertices were stepped. *)
  let step_round round =
    (match pool with
    | None -> step_slots ~round ~shard:0 ~lo:0 ~hi:a out
    | Some pool ->
        Pool.run pool ~shards:k ~n:a (fun ~lo ~hi ~shard ->
            (match profile with
            | Some p -> Profile.shard_begin p ~shard
            | None -> ());
            let sout = shard_out.(shard) in
            sout.o_len <- 0;
            shard_seg.(shard).s_len <- 0;
            step_slots ~round ~shard ~lo ~hi sout;
            match profile with
            | Some p -> Profile.shard_end p ~shard
            | None -> ()));
    let merge_t0 = if sharded && profiling then now_ns () else 0 in
    let stepped = ref 0 in
    for s = 0 to k - 1 do
      stepped := !stepped + shard_stepped.(s);
      not_done := !not_done + shard_delta.(s);
      let sout = shard_out.(s) in
      let sg = shard_seg.(s) in
      let off = ref 0 in
      for i = 0 to sg.s_len - 1 do
        let stop = !off + sg.s_cnt.(i) in
        seg sg.s_v.(i) sout.o_dst sout.o_msg ~lo:!off ~hi:stop;
        off := stop
      done;
      sout.o_len <- 0;
      sg.s_len <- 0
    done;
    (match profile with
    | Some p when sharded ->
        Profile.merge_span p ~round ~shards:k ~t0:merge_t0 ~t1:(now_ns ())
    | _ -> ());
    !stepped
  in
  let steps = ref a in
  round_end t0 ~stepped:a;
  let finished = ref (a = 0) in
  while not !finished do
    incr round;
    if !round > max_rounds then
      failwith
        (Printf.sprintf "Engine.run: no termination within %d rounds"
           max_rounds);
    let t0 = round_begin () in
    (* Swap banks: last round's sends become this round's inboxes. *)
    let t = !cur in
    cur := !next;
    next := t;
    pending := 0;
    (* Fault activation happens on the calling domain, before any
       stepping (sequential or parallel): a vertex crash-stopped at
       round [r] loses the messages that were about to arrive at [r],
       is flagged done and never steps again (deliveries to it are
       dropped at [consult] time). The pool barrier publishes these
       writes to the shards. *)
    (match adversary with
    | None -> ()
    | Some adv ->
        Adversary.begin_round adv ~round:!round (fun kind ->
            (match kind with
            | Trace.Crash v ->
                (* On a sparse run a crash scheduled at a frozen vertex
                   touches no engine state (the vertex was never
                   running — the adversary still drops traffic
                   addressed to it, of which there is none). *)
                let slot = if sparse then pos.(v) else v in
                if slot >= 0 then begin
                  !cur.(slot).i_len <- 0;
                  if not done_flags.(slot) then begin
                    done_flags.(slot) <- true;
                    decr not_done
                  end
                end
            | Trace.Cut _ | Trace.Restore _ -> ());
            if tracing then
              Trace.emit trace (Trace.Fault_injected { round = !round; kind })));
    let stepped = step_round !round in
    steps := !steps + stepped;
    round_end t0 ~stepped;
    if !not_done = 0 && !pending = 0 then finished := true
  done;
  (match profile with Some p -> Profile.run_end p | None -> ());
  (states, finish !round ~steps:!steps ~crashed:(crashed_now ()))
