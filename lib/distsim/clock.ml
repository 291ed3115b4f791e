(* The single wall-clock source for the repository. The engine's
   per-round [elapsed_ns], the bench harness's best-of-N wall timers
   and the profiler's span stamps all read this clock, so their
   numbers are directly comparable (same epoch, same resolution).

   [Unix.gettimeofday] is microsecond-granular; that is plenty for
   round spans (tens of microseconds and up) and matches what the
   engine and bench code measured before this module existed. *)

let now_s () = Unix.gettimeofday ()
let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)
