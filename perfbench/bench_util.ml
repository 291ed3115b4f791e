(* Shared machinery of the benchmark: the clock, exact per-operation
   samples with nearest-rank percentiles, /proc readers, and the result
   record every workload fills in. *)

(* CLOCK_MONOTONIC with ns resolution; gettimeofday's microseconds would
   quantize the ~80 us serve batches. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* Exact samples: every observation is kept, percentiles use the
   nearest-rank rule on the sorted values (no binning). *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n
  let sum t = Array.fold_left ( +. ) 0.0 (Array.sub t.a 0 t.n)
  let mean t = if t.n = 0 then 0.0 else sum t /. float_of_int t.n

  let rank t p = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.n)))

  let percentile t p =
    if t.n = 0 then 0.0
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort Float.compare s;
      s.(min (t.n - 1) (rank t p - 1))
    end

  (* Samples strictly above the nearest-rank position of [p]. *)
  let beyond t p = if t.n = 0 then 0 else t.n - rank t p
end

let median xs =
  let s = Samples.create () in
  List.iter (Samples.add s) xs;
  Samples.percentile s 50.0

(* ---- /proc ---------------------------------------------------------- *)

let proc_path pid file =
  Printf.sprintf "/proc/%s/%s"
    (match pid with None -> "self" | Some p -> string_of_int p)
    file

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> In_channel.input_all ic)

(* An integer field of /proc/<pid>/status, e.g. "VmHWM" (in kB). *)
let status_field ?pid name =
  let prefix = name ^ ":" in
  let line =
    List.find
      (fun l -> String.starts_with ~prefix l)
      (String.split_on_char '\n' (read_file (proc_path pid "status")))
  in
  let rest = String.sub line (String.length prefix)
      (String.length line - String.length prefix) in
  match String.split_on_char ' ' (String.trim (String.map
      (fun c -> if c = '\t' then ' ' else c) rest)) with
  | v :: _ -> int_of_string v
  | [] -> failwith ("bad /proc status field " ^ name)

let peak_rss_mb ?pid () = float_of_int (status_field ?pid "VmHWM") /. 1024.0

let ctx_switches pid =
  status_field ~pid "voluntary_ctxt_switches"
  + status_field ~pid "nonvoluntary_ctxt_switches"

(* utime + stime of a process, in seconds (fields 14 and 15 of
   /proc/<pid>/stat, counted in USER_HZ = 100 ticks per second). *)
let cpu_seconds pid =
  let s = read_file (proc_path (Some pid) "stat") in
  let after_comm = String.sub s (String.rindex s ')' + 2)
      (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' after_comm) in
  (* after_comm starts at field 3 (state) *)
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) /. 100.0

let self_cpu_seconds () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

(* ---- results -------------------------------------------------------- *)

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable fatal : string list;  (* workload-level failures, e.g. the ratio guard *)
  mutable metrics : (string * float) list;  (* reversed *)
  mutable samples : (string * int) list;
}

let result () = { attempted = 0; failed = 0; fatal = []; metrics = []; samples = [] }
let metric r name v = r.metrics <- (name, v) :: r.metrics
let sample_count r name k = r.samples <- (name, k) :: r.samples

let op r ok =
  r.attempted <- r.attempted + 1;
  if not ok then r.failed <- r.failed + 1

let fail r why =
  prerr_endline ("spanbench: FAIL " ^ why);
  r.fatal <- why :: r.fatal

(* ROADMAP item 1's degenerate-anchor guard: a "spanner" that keeps
   nearly every edge cannot be told apart from returning G. *)
let ratio_guard r ratio =
  if ratio > 0.95 then
    fail r (Printf.sprintf "spanner_ratio %.4f > 0.95 (degenerate anchor)" ratio)

(* The end-to-end latency pair shared by every workload: p10 and the
   fixed tail percentile. Not the median: on a shared host each vCPU has
   slow spells of seconds (a fixed loop runs ~1.6x slower), so per-op
   times split into a fast and a slow mode, and the share of slow time
   changes from run to run. The median follows that share, jumping
   between the modes when it is near a half; p10 reads the fast mode and
   the tail the slow one, each steady as long as neither mode fills the
   run. *)
let latency_metrics r ~tail ~prefix s =
  metric r (prefix ^ "_p10") (Samples.percentile s 10.0);
  metric r (prefix ^ "_tail") (Samples.percentile s tail);
  sample_count r (prefix ^ "_p10") (Samples.count s);
  sample_count r (prefix ^ "_tail") (Samples.beyond s tail);
  if Samples.beyond s tail < 10 then
    Printf.eprintf
      "spanbench: warning: only %d samples beyond p%g of %s (want >= 10)\n%!"
      (Samples.beyond s tail) tail prefix

let ok_ratio r =
  metric r "ok_ratio"
    (if r.attempted = 0 then 0.0
     else 1.0 -. (float_of_int r.failed /. float_of_int r.attempted))

(* End-to-end metrics of an in-process workload. Every op there is a
   write (a whole bootstrap), so churn_ms_* are its own latencies, at
   the workload's tail percentile. One op runs at a time,
   so the throughput is each op's own rate, 1 / its time (the untimed
   collection and check between ops are the benchmark's, not the
   program's), read at p90: the fast mode, like latency_ms_p10. *)
let in_process_metrics r ~tail ~setup_s ~ratio lat =
  metric r "setup_s" setup_s;
  latency_metrics r ~tail ~prefix:"latency_ms" lat;
  latency_metrics r ~tail ~prefix:"churn_ms" lat;
  let rates = Samples.create () in
  for i = 0 to Samples.count lat - 1 do
    Samples.add rates (1000.0 /. lat.Samples.a.(i))
  done;
  metric r "throughput_ops_s" (Samples.percentile rates 90.0);
  metric r "peak_rss_mb" (peak_rss_mb ());
  metric r "spanner_ratio" ratio;
  ok_ratio r

(* GC cost of the timed ops alone: Gc.quick_stat deltas taken around
   each op and summed, so the untimed work between ops (forced
   collections, output checks) is left out. *)
module Gc_meter = struct
  type t = { mutable minor_words : float; mutable major : int; mutable ops : int }

  let create () = { minor_words = 0.0; major = 0; ops = 0 }

  let measure t f =
    let a = Gc.quick_stat () in
    let x = f () in
    let b = Gc.quick_stat () in
    t.minor_words <- t.minor_words +. (b.minor_words -. a.minor_words);
    t.major <- t.major + (b.major_collections - a.major_collections);
    t.ops <- t.ops + 1;
    x

  let report t r =
    let ops = float_of_int (max 1 t.ops) in
    metric r "gc.minor_words_per_op" (t.minor_words /. ops);
    metric r "gc.major_collections_per_op" (float_of_int t.major /. ops)
end

(* [time f], and its GC cost into [gc] when given. *)
let time_op ?gc f =
  match gc with None -> time f | Some m -> Gc_meter.measure m (fun () -> time f)

let trace_overhead r ~plain ~traced =
  metric r "trace_overhead"
    (Samples.percentile traced 10.0 -. Samples.percentile plain 10.0)

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "0.0"

(* One JSON line for the Python front end, which adds units and
   directions from BENCHMARK.json. *)
let print_result r =
  let b = Buffer.create 1024 in
  let obj kvs f =
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        Printf.bprintf b "%S: %s" k (f v))
      (List.rev kvs);
    Buffer.add_char b '}'
  in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, "
    (r.failed = 0 && r.fatal = []) r.attempted r.failed;
  Buffer.add_string b "\"metrics\": ";
  obj r.metrics json_float;
  Buffer.add_string b ", \"samples\": ";
  obj r.samples string_of_int;
  Buffer.add_string b "}";
  print_endline (Buffer.contents b)
