(* One traced churn tick. The whole-graph stages inside
   Incremental.apply (delta application, spanner restriction, spanner
   CSR build) are each timed alone on the same pre-tick inputs, then
   the tick itself runs with a Trace.stats sink whose Round_end times
   give the ball-local re-run. Whatever the stages and the ball do not
   cover is reported as unattributed. *)

open Bench_util
module G = Grapho
module C = Spanner_core
module D = Distsim

type t = {
  builder : G.Ugraph.Builder.builder;
  apply_delta : Samples.t;
  surviving : Samples.t;
  spanner_csr : Samples.t;
  ball : Samples.t;
  apply : Samples.t;
  valid : Samples.t;
  (* exact counts over the ticks passed with [~count:true] *)
  mutable ticks : int;
  mutable seeds : int;
  mutable candidates : int;
  mutable broken : int;
  mutable dirty : int;
  mutable repair_rounds : int;
  mutable dirty_per_n : float;
}

let create g =
  {
    builder =
      G.Ugraph.Builder.create ~expected_edges:(G.Ugraph.m g) ~n:(G.Ugraph.n g) ();
    apply_delta = Samples.create ();
    surviving = Samples.create ();
    spanner_csr = Samples.create ();
    ball = Samples.create ();
    apply = Samples.create ();
    valid = Samples.create ();
    ticks = 0;
    seeds = 0;
    candidates = 0;
    broken = 0;
    dirty = 0;
    repair_rounds = 0;
    dirty_per_n = 0.0;
  }

let ms s = 1000.0 *. s

(* Returns the tick's stats, its validity and its apply + valid time in
   seconds (the probes are not included). *)
let tick p ~count inc d =
  let g = C.Incremental.graph inc and s = C.Incremental.spanner inc in
  let n = G.Ugraph.n g in
  let g', t_delta = time (fun () -> G.Ugraph.apply_delta ~builder:p.builder g d) in
  let s', t_surv = time (fun () -> C.Resilience.surviving_edges s ~graph:g') in
  let _, t_csr = time (fun () -> C.Spanner_check.spanner_csr ~n s') in
  let st = D.Trace.stats () in
  let (ts : C.Incremental.tick_stats), t_apply =
    time (fun () ->
        C.Incremental.apply ~par:1 ~trace:(D.Trace.stats_sink st) inc d)
  in
  let ok, t_valid = time (fun () -> C.Incremental.valid inc) in
  let ball_ns =
    Array.fold_left
      (fun acc (rs : D.Trace.round_stat) -> acc + rs.elapsed_ns)
      0 (D.Trace.series st).rounds
  in
  Samples.add p.apply_delta (ms t_delta);
  Samples.add p.surviving (ms t_surv);
  Samples.add p.spanner_csr (ms t_csr);
  Samples.add p.ball (float_of_int ball_ns /. 1e6);
  Samples.add p.apply (ms t_apply);
  Samples.add p.valid (ms t_valid);
  if count then begin
    p.ticks <- p.ticks + 1;
    p.seeds <- p.seeds + ts.seeds;
    p.candidates <- p.candidates + ts.candidates;
    p.broken <- p.broken + ts.broken;
    p.dirty <- p.dirty + ts.dirty;
    p.repair_rounds <- p.repair_rounds + ts.repair_rounds;
    p.dirty_per_n <- p.dirty_per_n +. (float_of_int ts.dirty /. float_of_int n)
  end;
  (ts, ok, t_apply +. t_valid)

let report p r =
  let mean = Samples.mean in
  metric r "incremental.apply_ms" (mean p.apply);
  metric r "incremental.valid_ms" (mean p.valid);
  metric r "ugraph.apply_delta_ms" (mean p.apply_delta);
  metric r "resilience.surviving_edges_ms" (mean p.surviving);
  metric r "spanner_check.spanner_csr_ms" (mean p.spanner_csr);
  metric r "engine.ball_ms" (mean p.ball);
  metric r "incremental.unattributed_ms"
    (mean p.apply -. mean p.apply_delta -. mean p.surviving
    -. mean p.spanner_csr -. mean p.ball);
  let per_tick x = float_of_int x /. float_of_int (max 1 p.ticks) in
  metric r "tick.seeds" (per_tick p.seeds);
  metric r "tick.candidates" (per_tick p.candidates);
  metric r "tick.broken" (per_tick p.broken);
  metric r "tick.dirty" (per_tick p.dirty);
  metric r "tick.repair_rounds" (per_tick p.repair_rounds);
  metric r "tick.broken_per_candidate"
    (float_of_int p.broken /. float_of_int (max 1 p.candidates));
  metric r "tick.dirty_per_n" (p.dirty_per_n /. float_of_int (max 1 p.ticks))
