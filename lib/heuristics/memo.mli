(** Bounded, domain-safe memoization for heuristic estimates.

    Heuristic values depend only on a state's canonical key, so searches
    memoize them ([Discover] does this for every algorithm). Two
    requirements shape this cache:

    - {b Bounded eviction.} Long runs visit millions of states; the
      cache keeps at most [cap] entries using two generations (a flavor
      of 2Q/SLRU): when the young generation fills, the old one is
      dropped and the young becomes old. Entries used since the last
      flip always survive, so the recent working set is never discarded
      — unlike the previous [Hashtbl.reset]-style full flush.

    - {b Domain safety.} The parallel engine ({!Search.Pool},
      {!Search.Portfolio}) evaluates heuristics on several domains at
      once. Each domain gets its own tables, registered in the memo on
      the domain's first lookup (one compare-and-set) and touched by no
      other domain after — shared-nothing, so no locks on the hot path; a
      value may be computed once per domain, which is redundant work but
      never a race.

    - {b Ownership.} The memo owns every domain's tables and there is no
      global state: once the memo is unreachable, all of its cached
      values are garbage, so a long-lived process does not keep one table
      per finished discovery. *)

type ('k, 'v) t
(** Keys are hashed and compared with the polymorphic [Hashtbl] primitives;
    any structural key without functional values works — canonical-key
    strings, or the 16-byte {!Relational.Fingerprint.t} records the search
    layer now prefers. *)

val create : ?telemetry:Telemetry.t -> ?cap:int -> unit -> ('k, 'v) t
(** [create ~cap ()] bounds the per-domain residency to at most [cap]
    entries (default 200_000). With [telemetry], every lookup emits a
    [memo.hit] or [memo.miss] counter (a hit in either generation counts
    as a hit) and every generation flip a [memo.eviction] counter.
    @raise Invalid_argument if [cap < 2]. *)

val find_or_add : ('k, 'v) t -> 'k -> ('k -> 'v) -> 'v
(** [find_or_add t key compute] returns the cached value for [key] in
    the calling domain's table, computing and caching [compute key] on a
    miss. A hit in the old generation moves the entry to the young one
    (it is never resident in both). *)

val size : ('k, 'v) t -> int
(** Number of entries resident in the calling domain's table (0 if the
    domain has not used this memo). *)

val evictions : ('k, 'v) t -> int
(** Number of generation flips performed in the calling domain's table
    (each flip drops at most [cap / 2] cold entries; 0 if the domain has
    not used this memo). *)
