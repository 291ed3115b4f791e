(** The shared wall-clock: one timing source for the engine's
    [elapsed_ns], the profiler's spans and the bench harness's
    wall-clock timers. Microsecond-granular ([Unix.gettimeofday]
    underneath); all readings share one epoch so spans from
    different layers can be compared and subtracted directly. *)

val now_s : unit -> float
(** Seconds since the Unix epoch, as a float. *)

val now_ns : unit -> int
(** Nanoseconds since the Unix epoch (microsecond-granular). Fits an
    OCaml 63-bit int until the year 2262. *)
