(** A* best-first search with a closed set.

    Not used by the paper's reported experiments — its exponential memory is
    exactly why the authors moved to IDA*/RBFS (§2.3) — but provided as a
    baseline and as an oracle: with an admissible heuristic its solution
    cost is optimal, which the test suite uses to validate IDA* and RBFS.
    States are deduplicated by canonical key; a state is reopened if found
    again with a smaller g (heuristics here are generally inadmissible). *)

module Make (S : Space.S) : sig
  val search :
    ?stop:(unit -> bool) ->
    ?telemetry:Telemetry.t ->
    ?pool:Pool.t ->
    ?budget:int ->
    ?watch:((S.state, S.action) Space.witness -> unit) ->
    ?resume:(S.state, S.action, S.Key.t) Space.snapshot ->
    ?snapshot:((S.state, S.action, S.Key.t) Space.snapshot -> unit) ->
    heuristic:(S.state -> int) ->
    S.state ->
    (S.state, S.action) Space.result
  (** {!Best_first} keyed on [g + h] with {!Best_first.Best_g} dedup;
      [stop], [watch], [snapshot] and [resume] behave as documented
      there.

      With [pool], the frontier is expanded in batches of
      [2 * Pool.size pool] nodes: successor generation and heuristic
      scoring fan out across the pool's domains while goal tests and
      duplicate detection stay sequential, merged in f-order. A goal
      found inside a batch is held as an incumbent until no frontier
      f-value is below its cost, so with an admissible heuristic the
      returned cost equals the sequential engine's ([examined] may
      differ and is reported honestly). [stop] is then polled once per
      batch; when it fires the search returns the incumbent mapping if
      one is already in hand, else {!Space.Cancelled} with a snapshot.
      @raise Invalid_argument if [budget <= 0]. *)
end
