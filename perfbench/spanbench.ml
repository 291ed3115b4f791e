(* The benchmark's worker: runs one workload for a fixed time and prints
   one JSON line of raw metric values and sample counts. perfbench/run.py
   builds it, runs it and formats the result; run it directly with

     spanbench --workload bootstrap_ladder --seed 1 --seconds 20 \
               --trace 0 --tail 90 [--spannerd PATH --tmp DIR]

   Exits 1 if any output fails its correctness check. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0
  and trace = ref 0 and tail = ref 90.0
  and spannerd = ref "_build/default/bin/spannerd.exe" and tmp = ref "." in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics instead of end-to-end");
      ("--tail", Arg.Set_float tail, "P tail percentile of latency_ms");
      ("--spannerd", Arg.Set_string spannerd, "PATH daemon executable");
      ("--tmp", Arg.Set_string tmp, "DIR for port files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "spanbench --workload NAME --seed N --seconds S --trace 0|1";
  let seed = !seed and seconds = !seconds and trace = !trace = 1 and tail = !tail in
  let r =
    match !workload with
    | "bootstrap_ladder" -> Ladder.run ~seed ~seconds ~trace ~tail
    | "serve_mixed" ->
        Serve.run ~seed ~seconds ~trace ~tail ~spannerd:!spannerd ~tmp:!tmp
    | w ->
        prerr_endline ("spanbench: unknown workload " ^ w);
        exit 2
  in
  Bench_util.print_result r;
  if r.failed > 0 || r.fatal <> [] then exit 1
