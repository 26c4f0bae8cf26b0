(** String metrics for the "databases as strings" heuristic (§3). *)

val levenshtein : string -> string -> int
(** Classic edit distance (insertions, deletions, substitutions each cost
    1), exact, computed with Myers' bit-vector algorithm (G. Myers, "A
    fast bit-vector algorithm for approximate string matching based on
    dynamic programming", JACM 46(3), 1999) in blocks of [Sys.int_size]
    bits (63 on 64-bit hosts), as in edlib. With [m] the shorter and [n] the longer
    length, it takes O(⌈m/63⌉·n) time and O(σ + σ_m·⌈m/63⌉) words, where
    σ = 256 is the byte alphabet and σ_m the number of distinct bytes of
    the shorter string. *)

val levenshtein_normalized : string -> string -> float
(** [levenshtein a b / max(|a|, |b|)], in [0, 1]; 0 when both are empty. *)
