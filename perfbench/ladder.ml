(* bootstrap_ladder: repeated full LOCAL protocol runs
   (Two_spanner_local.run) on one clique ladder. Loads distsim.Engine
   and the densest-star density phase; bypasses spannernet and
   Incremental.

   Every timed bootstrap starts from a collected heap (untimed), as a
   fresh spanner_cli process would: otherwise the major-GC debt left by
   the previous run lands on a varying share of ops and splits the
   latency distribution in two. One graph per run, not a mix: some
   ladders need a fourth protocol iteration (60 rounds, not 48), and in
   a mix those land near p90 and swing the tail from run to run. *)

open Bench_util
module G = Grapho
module C = Spanner_core
module D = Distsim

let n = 80
(* ~0.05 s each: 100 span several seconds, so that their median is not
   decided by a single one of the host's slow spells *)
let setups = 100

let run ~seed ~seconds ~trace ~tail =
  let r = result () in
  let proto_seed = seed lxor 0x5EED in
  let bootstrap ?profile g =
    match profile with
    | None -> C.Two_spanner_local.run ~seed:proto_seed ~par:1 g
    | Some p ->
        C.Two_spanner_local.run ~seed:proto_seed ~par:1 ~profile:p
          ~trace:(D.Profile.sink p) g
  in
  (* Setup = generation + the first bootstrap, repeated from a collected
     heap; the bootstraps are the discarded warm-up ops. *)
  let setup () =
    Gc.full_major ();
    let g, gen_s = time (fun () -> G.Generators.clique_ladder (G.Rng.create seed) n) in
    let res, boot_s = time (fun () -> bootstrap g) in
    op r (C.Spanner_check.is_2_spanner_fast g res.spanner);
    (g, res, gen_s, gen_s +. boot_s)
  in
  let runs = List.init setups (fun _ -> setup ()) in
  let g, first, _, _ = List.hd runs in
  let ratio =
    float_of_int (G.Edge.Set.cardinal first.spanner) /. float_of_int (G.Ugraph.m g)
  in
  ratio_guard r ratio;
  Gc.compact ();
  (* The output of every timed run must be the same valid spanner with
     the same engine counts (the protocol is deterministic in (seed,
     graph)); checked outside the timed interval. *)
  let check (res : C.Two_spanner_local.result) =
    op r
      (G.Edge.Set.equal res.spanner first.spanner
      && D.Engine.metrics_deterministic_eq res.metrics first.metrics
      && C.Spanner_check.is_2_spanner_fast g res.spanner)
  in
  let loop ?(profiles = ref []) ?gc ~traced secs =
    let lat = Samples.create () in
    let t_end = now () +. secs in
    while now () < t_end do
      let profile = if traced then Some (D.Profile.create ()) else None in
      Option.iter (fun p -> profiles := p :: !profiles) profile;
      Gc.full_major ();
      let res, dt = time_op ?gc (fun () -> bootstrap ?profile g) in
      Samples.add lat (1000.0 *. dt);
      check res
    done;
    lat
  in
  if not trace then
    in_process_metrics r ~tail
      ~setup_s:(median (List.map (fun (_, _, _, s) -> s) runs))
      ~ratio (loop ~traced:false seconds)
  else begin
    let gc = Gc_meter.create () in
    let plain = loop ~gc ~traced:false (seconds /. 2.0) in
    Gc_meter.report gc r;
    (* Traced half: a fresh profile per run, phase totals summed. *)
    let profiles = ref [] in
    let traced = loop ~profiles ~traced:true (seconds /. 2.0) in
    let phases = Hashtbl.create 16 and total_ns = ref 0 in
    List.iter
      (fun p ->
        total_ns := !total_ns + D.Profile.total_ns p;
        List.iter
          (fun (row : D.Profile.phase_row) ->
            let prev = Option.value ~default:0 (Hashtbl.find_opt phases row.phase) in
            Hashtbl.replace phases row.phase (prev + row.total_ns))
          (D.Profile.phase_breakdown p))
      !profiles;
    let k = float_of_int (max 1 (List.length !profiles)) in
    let per_op_ms ns = float_of_int ns /. k /. 1e6 in
    metric r "generators.gen_ms"
      (1000.0 *. median (List.map (fun (_, _, s, _) -> s) runs));
    let em = first.metrics in
    metric r "engine.rounds" (float_of_int em.rounds);
    metric r "engine.messages" (float_of_int em.messages);
    metric r "engine.total_bits" (float_of_int em.total_bits);
    metric r "engine.steps" (float_of_int em.steps);
    metric r "engine.sent_physical" (float_of_int em.sent_physical);
    metric r "profile.total_ms" (per_op_ms !total_ns);
    Array.iter
      (fun ph ->
        metric r ("profile.phase." ^ ph ^ "_ms")
          (per_op_ms (Option.value ~default:0 (Hashtbl.find_opt phases ph))))
      (Array.append [| "warmup" |] C.Two_spanner_local.phase_names);
    trace_overhead r ~plain ~traced
  end;
  r
