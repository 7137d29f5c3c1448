(** 64-bit FNV-1a fingerprints — the one hash behind every digest in the
    repository (run decisions, recovery and supervision logs, the
    coordinator journal, watchdog alerts, checkpoint content hashes).

    A fingerprint is folded value by value: {!int} and {!float} mix a
    whole 64-bit word per step (xor, then multiply by the FNV prime),
    {!string} mixes one byte per step. Folding an int below 256 equals
    folding the byte with that code, so a string fold is a sequence of
    {!int} folds over its character codes. *)

type t = int64

val basis : t
(** The FNV-1a offset basis, [0xcbf29ce484222325]. *)

val int : t -> int -> t
val float : t -> float -> t
(** Folds {!Int64.bits_of_float}. *)

val string : t -> string -> t
(** Folds every byte of the string, in order. *)

val hex : t -> string
(** 16 lowercase hex digits. *)
