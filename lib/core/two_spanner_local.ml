open Grapho
module Iset = Set.Make (Int)

type msg =
  | Uncovered of int list
  | Density of int * bool  (* rounded exponent (min_int = zero), terminated *)
  | Max1 of int
  | Candidate of int * int list  (* r_v, chosen neighbor set *)
  | Votes of (int * int) list  (* the voting edges, batched per candidate *)
  | Accepted of int list
  | Covered_notice of (int * int) list
  | Fresh_uncovered of int list
  | Rho of float * bool  (* true density, terminated flag *)
  | Max1_rho of float * bool  (* 1-hop max density, 1-hop all-terminated *)
  | Final_added of int list

type vstate = {
  neighbors : int array;  (* ascending; the frame of [hv] *)
  paying : int array;  (* neighbors across positive-weight edges *)
  free : int array;  (* neighbors across weight-zero edges *)
  mutable uncovered_inc : Iset.t;  (* w with {v,w} an uncovered target *)
  mutable prob : Star_pick.t option;
      (* the densest-star problem for the current hv; invalidated on
         every hv mutation, so [compute_density] and the candidate
         phase of one iteration share a single [Star_pick.make] *)
  mutable h_adj : Iset.t;  (* spanner neighbors *)
  mutable hv : int array;
      (* H_v as {!Star_pick.make} reads it: packed position pairs
         [lo * deg + hi] of [neighbors], ascending *)
  mutable rho : float;
  mutable exp : int;
  mutable max1 : int;
  mutable star : int list;
  mutable star_exp : int;
  mutable is_candidate : bool;
  mutable covered_count : int;  (* |C_v| of the current candidacy *)
  mutable max1_rho : float;
  mutable all1 : bool;
  mutable terminated : bool;
  mutable quiet : bool;
  mutable iteration : int;
}

type result = {
  spanner : Edge.Set.t;
  iterations : int;
  metrics : Distsim.Engine.metrics;
}

(* Per-domain scratch of [rebuild_hv], grown on demand and reused
   across vertices, rounds and runs. [pos] maps a vertex id to its
   position in the stepping vertex's neighbor row and is -1 everywhere
   between calls; [keys.(0 .. len-1)] collects the reported position
   pairs, sorted through [tmp] with buckets in [count]. *)
type scratch = {
  mutable pos : int array;
  mutable keys : int array;
  mutable len : int;
  mutable tmp : int array;
  mutable count : int array;
}

let scratch =
  Domain.DLS.new_key (fun () ->
      { pos = [||]; keys = [||]; len = 0; tmp = [||]; count = [||] })

let push sc key =
  if sc.len = Array.length sc.keys then begin
    let bigger = Array.make (max 64 (2 * sc.len)) 0 in
    Array.blit sc.keys 0 bigger 0 sc.len;
    sc.keys <- bigger
  end;
  sc.keys.(sc.len) <- key;
  sc.len <- sc.len + 1

(* Sorts the collected keys, each a pair (lo, hi) of positions in a
   row of length [d] packed as [lo lsl bits lor hi], by two stable
   counting passes (on hi, then on lo): O(len + d) time and space. *)
let sort_pairs sc ~d ~bits =
  let len = sc.len and mask = (1 lsl bits) - 1 in
  if Array.length sc.tmp < len then
    sc.tmp <- Array.make (Array.length sc.keys) 0;
  if Array.length sc.count <= d then sc.count <- Array.make (2 * (d + 1)) 0;
  let count = sc.count in
  let pass src dst shift =
    Array.fill count 0 (d + 1) 0;
    for i = 0 to len - 1 do
      let c = (src.(i) lsr shift) land mask in
      count.(c + 1) <- count.(c + 1) + 1
    done;
    for c = 1 to d do
      count.(c) <- count.(c) + count.(c - 1)
    done;
    for i = 0 to len - 1 do
      let key = src.(i) in
      let c = (key lsr shift) land mask in
      dst.(count.(c)) <- key;
      count.(c) <- count.(c) + 1
    done
  in
  pass sc.keys sc.tmp 0;
  pass sc.tmp sc.keys bits

let rounds_per_iteration = 12
let warmup_rounds = 3

(* Wire sizes (LOCAL: unbounded, but we still account). *)
let measure ~n msg =
  let id = Distsim.Message.bits_for_id ~n in
  match msg with
  | Uncovered l | Fresh_uncovered l | Accepted l | Final_added l ->
      4 + (id * List.length l)
  | Density _ | Max1 _ -> 5 + id
  | Candidate (_, l) -> 4 + (5 * id) + (id * List.length l)
  | Votes l | Covered_notice l -> 4 + (2 * id * List.length l)
  | Rho _ | Max1_rho _ -> 4 + 65

(* Names for the 12 protocol phases, for {!Distsim.Trace.Phase}
   markers (one global marker per protocol round, derived from the
   round number on the engine's merge thread via
   {!Distsim.Trace.with_round_phases} — never from inside [step], so
   phase emission is race-free under parallel stepping). *)
let phase_names =
  [|
    "density"; "max1"; "candidate"; "vote"; "tally"; "accept"; "fresh";
    "rho"; "max1-rho"; "terminate"; "final"; "restart";
  |]

(* The phase schedule is a pure function of the (virtual) round. *)
let phase_of_virtual vr =
  if vr < warmup_rounds then "warmup"
  else phase_names.((vr - warmup_rounds) mod rounds_per_iteration)

(* LOCAL: engine round = protocol round; round 0 is initialization. *)
let local_phases r = if r = 0 then None else Some (phase_of_virtual r, r)

(* CONGEST compilation: the inner protocol advances only at real
   rounds [r = chunks_per_round * vr, vr >= 1]; intermediate rounds
   carry chunks of the current message and get no marker (exactly the
   rounds the old in-step stamping skipped). *)
let congest_phases ~chunks_per_round r =
  if r > 0 && r mod chunks_per_round = 0 then
    let vr = r / chunks_per_round in
    Some (phase_of_virtual vr, vr)
  else None

(* Parallel-safety note (Engine [?par]): the spec below keeps every
   piece of per-vertex mutable state inside the [vstate] record, its
   only shared buffers are the per-domain [scratch] (a step runs to
   completion on one domain and leaves [pos] all -1 again), and its
   randomness is the pure [(seed, vertex, iteration)]-keyed
   {!Randomness.vote_value} — no shared RNG, no cross-vertex writes —
   so stepping vertices on concurrent domains is race-free by
   construction. *)
let make_spec ~seed ~(rules : Two_spanner_engine.rules) g =
  let n = Ugraph.n g in
  let n4 = Randomness.vote_bound ~n in
  (* Broadcast = push one message per neighbor into the engine's
     reused outbox; no send records, no cons cells. *)
  let broadcast st out payload =
    let nbrs = st.neighbors in
    for i = 0 to Array.length nbrs - 1 do
      Distsim.Engine.emit out ~dst:nbrs.(i) payload
    done
  in
  let exponent_of rho =
    match Star_pick.rounded_exponent rho with
    | Some e -> e
    | None -> min_int
  in
  let problem vertex st =
    Star_pick.make ~center:vertex ~neighbors:st.neighbors ~nodes:st.paying
      ~free:st.free
      ~weight:(fun u -> rules.weight vertex u)
      ~hv:st.hv ()
  in
  let compute_density vertex st =
    if Array.length st.hv = 0 then begin
      st.prob <- None;
      st.rho <- 0.0;
      st.exp <- min_int
    end
    else begin
      match st.prob with
      | Some _ ->
          (* hv is unchanged since the last computation (the cache is
             invalidated on every hv mutation), so [rho] and [exp] are
             already current: skip the densest-star flow entirely. *)
          ()
      | None ->
          let p = problem vertex st in
          st.prob <- Some p;
          let rho =
            match Star_pick.densest p with None -> 0.0 | Some (_, d) -> d
          in
          st.rho <- rho;
          st.exp <- exponent_of rho
    end
  in
  let rebuild_hv st inbox =
    (* Each [Uncovered]/[Fresh_uncovered] message is (neighbor u, u's
       uncovered incident endpoints). An edge {u,w} belongs to H_v iff
       both u and w are neighbors of v and either reports it uncovered
       (they agree, so one suffices; when a report is lost, the other
       still brings the edge in). Endpoints map to row positions
       through the scratch [pos] (v itself and non-neighbors read -1);
       the reported pairs are counting-sorted and deduplicated. *)
    let sc = Domain.DLS.get scratch in
    if Array.length sc.pos < n then sc.pos <- Array.make n (-1);
    let pos = sc.pos and nbrs = st.neighbors in
    let d = Array.length nbrs in
    Array.iteri (fun i u -> pos.(u) <- i) nbrs;
    let bits = Star_pick.log2_ceil d in
    (* Reported lists are ascending ([Iset.elements]), so a scan stops
       at the first endpoint above the row's largest neighbor. *)
    let top = if d = 0 then -1 else nbrs.(d - 1) in
    let rec scan pu = function
      | w :: rest when w <= top ->
          let pw = pos.(w) in
          if pw >= 0 && pw <> pu then
            push sc
              (if pu < pw then (pu lsl bits) lor pw else (pw lsl bits) lor pu);
          scan pu rest
      | _ -> ()
    in
    sc.len <- 0;
    Distsim.Engine.inbox_iter
      (fun ~src m ->
        match m with
        | Uncovered ws | Fresh_uncovered ws -> scan pos.(src) ws
        | _ -> ())
      inbox;
    Array.iter (fun u -> pos.(u) <- -1) nbrs;
    sort_pairs sc ~d ~bits;
    (* Dedup in place, repacking each pair as [lo * d + hi]. *)
    let keys = sc.keys and mask = (1 lsl bits) - 1 in
    let m = ref 0 and prev = ref (-1) in
    for i = 0 to sc.len - 1 do
      let key = keys.(i) in
      if key <> !prev then begin
        prev := key;
        keys.(!m) <- ((key lsr bits) * d) + (key land mask);
        incr m
      end
    done;
    (* Keep the cached problem (and with it the cached density) alive
       across iterations in which nothing near this vertex changed —
       the steady state of almost-terminated regions. *)
    let m = !m and hv = st.hv in
    let rec same i = i = m || (hv.(i) = keys.(i) && same (i + 1)) in
    if not (Array.length hv = m && same 0) then begin
      st.hv <- Array.sub keys 0 m;
      st.prob <- None
    end
  in
  (* H_v edges newly 2-spanned through this vertex; emits the notices,
     in ascending edge order, and prunes them from hv. *)
  let via_me_notices st out =
    let hv = st.hv and nbrs = st.neighbors in
    let d = Array.length nbrs in
    let spanned key =
      Iset.mem nbrs.(key / d) st.h_adj && Iset.mem nbrs.(key mod d) st.h_adj
    in
    let covered =
      if Iset.is_empty st.h_adj then 0
      else Array.fold_left (fun c key -> if spanned key then c + 1 else c) 0 hv
    in
    if covered > 0 then begin
      st.prob <- None;
      let rest = Array.make (Array.length hv - covered) 0 and kept = ref 0 in
      let per_endpoint = Hashtbl.create 8 in
      let notify x pair =
        Hashtbl.replace per_endpoint x
          (pair :: Option.value ~default:[] (Hashtbl.find_opt per_endpoint x))
      in
      Array.iter
        (fun key ->
          if spanned key then begin
            let pair = (nbrs.(key / d), nbrs.(key mod d)) in
            notify (fst pair) pair;
            notify (snd pair) pair
          end
          else begin
            rest.(!kept) <- key;
            incr kept
          end)
        hv;
      st.hv <- rest;
      Hashtbl.iter
        (fun dst pairs ->
          Distsim.Engine.emit out ~dst (Covered_notice pairs))
        per_endpoint
    end
  in
  let absorb_notices vertex st inbox =
    Distsim.Engine.inbox_iter
      (fun ~src:_ m ->
        match m with
        | Covered_notice pairs ->
            List.iter
              (fun (a, b) ->
                if vertex = a then
                  st.uncovered_inc <- Iset.remove b st.uncovered_inc
                else if vertex = b then
                  st.uncovered_inc <- Iset.remove a st.uncovered_inc)
              pairs
        | _ -> ())
      inbox
  in
  let uncovered_list st = Iset.elements st.uncovered_inc in
  {
    Distsim.Engine.init =
      (fun ~n:_ ~vertex ~neighbors ~out ->
        let paying = ref [] and free = ref [] in
        Array.iter
          (fun u ->
            if rules.weight vertex u = 0.0 then free := u :: !free
            else paying := u :: !paying)
          neighbors;
        (* Weight-zero edges enter the spanner before the first
           iteration; their own targets are covered by membership. *)
        let free = Array.of_list (List.rev !free) in
        let st =
          {
            neighbors;
            paying = Array.of_list (List.rev !paying);
            free;
            prob = None;
            uncovered_inc =
              Array.fold_left
                (fun s u ->
                  if rules.weight vertex u = 0.0 then s else Iset.add u s)
                Iset.empty neighbors;
            h_adj = Array.fold_left (fun s u -> Iset.add u s) Iset.empty free;
            hv = [||];
            rho = 0.0;
            exp = min_int;
            max1 = min_int;
            star = [];
            star_exp = min_int;
            is_candidate = false;
            covered_count = 0;
            max1_rho = 0.0;
            all1 = true;
            terminated = false;
            quiet = false;
            iteration = 1;
          }
        in
        (* Warm-up round W0 payload. *)
        broadcast st out (Uncovered (uncovered_list st));
        st);
    step =
      (fun ~round ~vertex st inbox ~out ->
        if st.quiet then (st, `Done)
        else if round < warmup_rounds then begin
          if round = 1 then begin
            (* W1: pre-added weight-zero 2-paths already cover some
               targets; notify their endpoints. A no-op when there are
               no zero-weight edges. *)
            rebuild_hv st inbox;
            via_me_notices st out;
            (st, `Continue)
          end
          else begin
            (* W2: absorb and launch the main loop's first iteration. *)
            absorb_notices vertex st inbox;
            broadcast st out (Uncovered (uncovered_list st));
            (st, `Continue)
          end
        end
        else begin
          let phase = (round - warmup_rounds) mod rounds_per_iteration in
          (match phase with
          | 0 ->
              (* Uncovered lists -> H_v -> density. *)
              rebuild_hv st inbox;
              compute_density vertex st;
              broadcast st out (Density (st.exp, st.terminated))
          | 1 ->
              let own =
                if st.terminated && not rules.dominance_includes_terminated
                then min_int
                else st.exp
              in
              let m =
                Distsim.Engine.inbox_fold
                  (fun acc ~src:_ msg ->
                    match msg with
                    | Density (e, t) ->
                        if t && not rules.dominance_includes_terminated
                        then acc
                        else max acc e
                    | _ -> acc)
                  own inbox
              in
              st.max1 <- m;
              broadcast st out (Max1 m)
          | 2 ->
              let max2 =
                Distsim.Engine.inbox_fold
                  (fun acc ~src:_ msg ->
                    match msg with Max1 e -> max acc e | _ -> acc)
                  st.max1 inbox
              in
              st.is_candidate <- false;
              if
                (not st.terminated)
                && st.exp <> min_int
                && st.exp >= max2
                && rules.candidate_ok vertex st.rho
              then begin
                (* hv is untouched since phase 0, so the problem
                   built by [compute_density] is still valid. *)
                let prob =
                  match st.prob with
                  | Some p -> p
                  | None -> problem vertex st
                in
                let selection =
                  Star_pick.section_4_1_choice prob
                    ~stored:(Some (st.star, st.star_exp))
                    ~level:st.exp ~divisor:4.0
                in
                if selection <> [] then begin
                  st.star <- selection;
                  st.star_exp <- st.exp;
                  let covered = Star_pick.spanned_count prob selection in
                  if covered > 0 then begin
                    st.is_candidate <- true;
                    st.covered_count <- covered;
                    let r =
                      Randomness.vote_value ~seed ~vertex
                        ~iteration:st.iteration ~bound:n4
                    in
                    (* Voters must see the star as Section 4.3.2
                       defines it: the paying selection plus the
                       implicit weight-zero edges. *)
                    broadcast st out
                      (Candidate (r, selection @ Array.to_list st.free))
                  end
                end
              end
          | 3 ->
              (* The smaller endpoint of each uncovered edge casts
                 its vote; votes to the same candidate are batched
                 into one message (one message per edge per round).
                 Each candidate's star is indexed into a hash set
                 once, so an edge costs O(1) per candidate instead
                 of two O(|star|) scans. *)
              let candidates =
                Distsim.Engine.inbox_fold
                  (fun acc ~src m ->
                    match m with
                    | Candidate (r, star) ->
                        let members =
                          Hashtbl.create (2 * List.length star)
                        in
                        List.iter
                          (fun u -> Hashtbl.replace members u ())
                          star;
                        (src, r, members) :: acc
                    | _ -> acc)
                  [] inbox
              in
              let candidates = List.rev candidates in
              if candidates <> [] then begin
                let per_winner = Hashtbl.create 8 in
                (* Only candidates whose star contains me can span
                   my incident edges. *)
                let mine =
                  List.filter
                    (fun (_, _, members) -> Hashtbl.mem members vertex)
                    candidates
                in
                if mine <> [] then
                  Iset.iter
                    (fun w ->
                      if vertex < w then begin
                        (* Lexicographic minimum of (r, src) over the
                           candidates spanning {vertex, w} — the same
                           winner the sorted scan used to pick. *)
                        let winner =
                          List.fold_left
                            (fun best (src, r, members) ->
                              if Hashtbl.mem members w then
                                match best with
                                | Some (br, bsrc)
                                  when br < r || (br = r && bsrc < src) ->
                                    best
                                | _ -> Some (r, src)
                              else best)
                            None mine
                        in
                        match winner with
                        | None -> ()
                        | Some (_, winner) ->
                            Hashtbl.replace per_winner winner
                              ((vertex, w)
                              :: Option.value ~default:[]
                                   (Hashtbl.find_opt per_winner winner))
                      end)
                    st.uncovered_inc;
                Hashtbl.iter
                  (fun dst votes ->
                    Distsim.Engine.emit out ~dst (Votes votes))
                  per_winner
              end
          | 4 ->
              if st.is_candidate then begin
                st.is_candidate <- false;
                let votes =
                  Distsim.Engine.inbox_fold
                    (fun acc ~src:_ m ->
                      match m with
                      | Votes l -> acc + List.length l
                      | _ -> acc)
                    0 inbox
                in
                if
                  float_of_int votes
                  >= 0.125 *. float_of_int st.covered_count
                then begin
                  (* The star joins the spanner. *)
                  List.iter
                    (fun u ->
                      st.h_adj <- Iset.add u st.h_adj;
                      st.uncovered_inc <- Iset.remove u st.uncovered_inc)
                    st.star;
                  broadcast st out (Accepted st.star)
                end
              end
          | 5 ->
              (* Neighbors' accepted stars update the spanner
                 incidence; report edges 2-spanned through me. *)
              Distsim.Engine.inbox_iter
                (fun ~src m ->
                  match m with
                  | Accepted star when List.mem vertex star ->
                      st.h_adj <- Iset.add src st.h_adj;
                      st.uncovered_inc <- Iset.remove src st.uncovered_inc
                  | _ -> ())
                inbox;
              via_me_notices st out
          | 6 ->
              absorb_notices vertex st inbox;
              broadcast st out (Fresh_uncovered (uncovered_list st))
          | 7 ->
              rebuild_hv st inbox;
              compute_density vertex st;
              broadcast st out (Rho (st.rho, st.terminated))
          | 8 ->
              let exclude t =
                t && not rules.dominance_includes_terminated
              in
              let own_rho = if exclude st.terminated then 0.0 else st.rho in
              let m = ref own_rho in
              let a = ref st.terminated in
              Distsim.Engine.inbox_iter
                (fun ~src:_ msg ->
                  match msg with
                  | Rho (r, t) ->
                      m := Float.max !m (if exclude t then 0.0 else r);
                      a := !a && t
                  | _ -> ())
                inbox;
              st.max1_rho <- !m;
              st.all1 <- !a;
              broadcast st out (Max1_rho (!m, !a))
          | 9 ->
              let max2_rho = ref st.max1_rho in
              let all2 = ref st.all1 in
              Distsim.Engine.inbox_iter
                (fun ~src:_ msg ->
                  match msg with
                  | Max1_rho (r, t) ->
                      max2_rho := Float.max !max2_rho r;
                      all2 := !all2 && t
                  | _ -> ())
                inbox;
              if
                (not st.terminated)
                && rules.terminate_ok vertex (Float.max !max2_rho 0.0)
              then begin
                st.terminated <- true;
                let finals = uncovered_list st in
                List.iter
                  (fun w ->
                    st.h_adj <- Iset.add w st.h_adj;
                    st.uncovered_inc <- Iset.remove w st.uncovered_inc)
                  finals;
                if finals <> [] then broadcast st out (Final_added finals)
              end;
              if !all2 && st.terminated then st.quiet <- true
          | 10 ->
              Distsim.Engine.inbox_iter
                (fun ~src m ->
                  match m with
                  | Final_added l when List.mem vertex l ->
                      st.h_adj <- Iset.add src st.h_adj;
                      st.uncovered_inc <- Iset.remove src st.uncovered_inc
                  | _ -> ())
                inbox;
              via_me_notices st out
          | _ ->
              absorb_notices vertex st inbox;
              st.iteration <- st.iteration + 1;
              broadcast st out (Uncovered (uncovered_list st)));
          (st, if st.quiet then `Done else `Continue)
        end);
    measure = measure ~n:(max n 2);
  }

(* Under [?active] the engine's state array is slot-indexed: slot [i]
   holds the final state of vertex [active.(i)]. *)
let collect_result ?active (states, metrics) =
  let vertex_of =
    match active with
    | None -> fun i -> i
    | Some act -> fun i -> act.(i)
  in
  let spanner = ref Edge.Set.empty in
  Array.iteri
    (fun i st ->
      let v = vertex_of i in
      Iset.iter
        (fun u -> spanner := Edge.Set.add (Edge.make v u) !spanner)
        st.h_adj)
    states;
  let iterations =
    Array.fold_left (fun acc st -> max acc (st.iteration - 1)) 0 states
  in
  { spanner = !spanner; iterations; metrics }

let run ?(seed = 0x2D5F1) ?max_rounds ?sched ?par ?adversary ?profile ?frugal
    ?(retry = 1) ?(trace = Distsim.Trace.null) ?active g =
  let n =
    match active with Some a -> Array.length a | None -> Ugraph.n g
  in
  let max_rounds =
    match max_rounds with Some r -> r | None -> 200 * (n + 20)
  in
  let trace = Distsim.Trace.with_round_phases local_phases trace in
  collect_result ?active
    (Distsim.Engine.run ~max_rounds ?sched ?par ?adversary ?profile ?frugal
       ?active ~trace
       ~model:Distsim.Model.local ~graph:g
       (Distsim.Faults.with_retry ~attempts:retry
          (make_spec ~seed ~rules:Two_spanner_engine.unweighted g)))

(* The weighted variant of Section 4.3.2 under Weighted_two_spanner's
   rules, whose per-vertex termination floors are static topology data,
   precomputed the way vertices' knowledge of their neighbors is. *)
let run_weighted ?(seed = 0x2D5F1) ?max_rounds ?sched ?par ?adversary
    ?profile ?frugal ?(retry = 1) ?(trace = Distsim.Trace.null) g w =
  let n = Ugraph.n g in
  let max_rounds =
    match max_rounds with Some r -> r | None -> 400 * (n + 20)
  in
  let trace = Distsim.Trace.with_round_phases local_phases trace in
  collect_result
    (Distsim.Engine.run ~max_rounds ?sched ?par ?adversary ?profile ?frugal
       ~trace ~model:Distsim.Model.local ~graph:g
       (Distsim.Faults.with_retry ~attempts:retry
          (make_spec ~seed ~rules:(Weighted_two_spanner.rules g w) g)))

(* ------------------------------------------------------------------ *)
(* CONGEST compilation: every protocol message is a short list of
   identifiers (or a density), so it fragments into O(log n)-bit
   chunks; a virtual round costs O(Delta) real rounds, exactly the
   overhead Section 1.3 predicts for a direct CONGEST port. *)

let exp_offset = 4096
let encode_exp e = if e = min_int then 0 else e + exp_offset
let decode_exp x = if x = 0 then min_int else x - exp_offset

let encode_float f =
  let bits = Int64.bits_of_float f in
  ( Int64.to_int (Int64.shift_right_logical bits 32),
    Int64.to_int (Int64.logand bits 0xFFFFFFFFL) )

let decode_float hi lo =
  Int64.float_of_bits
    (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))

let encode_pairs pairs = List.concat_map (fun (a, b) -> [ a; b ]) pairs

(* Tail-recursive: Votes/Covered_notice payloads can hold an edge set
   of the whole 2-neighborhood, which must not be stack-bounded. *)
let decode_pairs chunks =
  let rec go acc = function
    | [] -> List.rev acc
    | a :: b :: rest -> go ((a, b) :: acc) rest
    | _ -> invalid_arg "Two_spanner_local: odd pair stream"
  in
  go [] chunks

let encode = function
  | Uncovered l -> 0 :: l
  | Density (e, t) -> [ 1; encode_exp e; (if t then 1 else 0) ]
  | Max1 e -> [ 2; encode_exp e ]
  | Candidate (r, star) -> 3 :: r :: star
  | Votes pairs -> 4 :: encode_pairs pairs
  | Accepted l -> 5 :: l
  | Covered_notice pairs -> 6 :: encode_pairs pairs
  | Fresh_uncovered l -> 7 :: l
  | Rho (f, t) ->
      let hi, lo = encode_float f in
      [ 8; (if t then 1 else 0); hi; lo ]
  | Max1_rho (f, t) ->
      let hi, lo = encode_float f in
      [ 9; (if t then 1 else 0); hi; lo ]
  | Final_added l -> 10 :: l

let decode chunks =
  let msg =
    match chunks with
    | 0 :: l -> Uncovered l
    | [ 1; e; t ] -> Density (decode_exp e, t = 1)
    | [ 2; e ] -> Max1 (decode_exp e)
    | 3 :: r :: star -> Candidate (r, star)
    | 4 :: pairs -> Votes (decode_pairs pairs)
    | 5 :: l -> Accepted l
    | 6 :: pairs -> Covered_notice (decode_pairs pairs)
    | 7 :: l -> Fresh_uncovered l
    | [ 8; t; hi; lo ] -> Rho (decode_float hi lo, t = 1)
    | [ 9; t; hi; lo ] -> Max1_rho (decode_float hi lo, t = 1)
    | 10 :: l -> Final_added l
    | _ -> invalid_arg "Two_spanner_local: undecodable chunk stream"
  in
  (msg, [])

let run_congest ?(seed = 0x2D5F1) ?max_rounds ?chunks_per_round ?sched ?par
    ?adversary ?profile ?frugal ?retry ?audit ?(trace = Distsim.Trace.null) g =
  let n = Ugraph.n g in
  let delta = Ugraph.max_degree g in
  let chunks_per_round =
    match chunks_per_round with Some c -> c | None -> (2 * delta) + 4
  in
  let max_rounds =
    match max_rounds with
    | Some r -> r
    | None -> 200 * (n + 20) * chunks_per_round
  in
  (* c = 16 suffices once log n covers the 33-bit density halves; on
     tiny graphs raise the constant so the budget still does. *)
  let id_bits = Distsim.Message.bits_for_id ~n:(max n 2) in
  let c = max 16 ((48 / id_bits) + 1) in
  let model = Distsim.Model.congest ~n:(max n 2) ~c () in
  let trace =
    Distsim.Trace.with_round_phases (congest_phases ~chunks_per_round) trace
  in
  collect_result
    (Distsim.Chunked.run ~max_rounds ?sched ?par ?adversary ?profile ?frugal
       ?retry ?audit ~trace ~model ~graph:g ~chunks_per_round ~encode ~decode
       (make_spec ~seed ~rules:Two_spanner_engine.unweighted g))
