(** Imperative binary min-heap, the frontier of {!Best_first} (A*,
    greedy best-first search and BFS). Entries with equal priority pop in
    insertion order (a monotone sequence number breaks ties), which keeps
    the algorithms deterministic and makes a heap keyed on depth a FIFO
    queue. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> priority:int -> 'a -> unit

val pop : 'a t -> (int * 'a) option
(** Minimum-priority entry, or [None] when empty. *)

val peek : 'a t -> (int * 'a) option
