(** Bit-size accounting helpers for message payloads.

    Algorithms declare how many bits their messages occupy on the wire;
    these helpers encode the usual conventions (an identifier or counter
    in a graph of [n] vertices costs [ceil(log2 (n+1))] bits). *)

val bits_for_id : n:int -> int
(** Bits to name one vertex among [n]. *)

val bits_int : int -> int
(** Bits of a concrete non-negative integer value (at least 1). *)

val bits_list : ('a -> int) -> 'a list -> int
val bits_option : ('a -> int) -> 'a option -> int
