(** Breadth-first search with global duplicate elimination.

    With unit edge costs BFS returns a shortest path, so the test suite
    uses it as the optimality oracle for IDA* and RBFS (whose solutions
    must match its cost whenever the heuristic is admissible).
    {!Best_first} keyed on depth with {!Best_first.Seen} dedup; the heap
    breaks ties by insertion order, so it pops in FIFO order. *)

module Make (S : Space.S) : sig
  val search :
    ?stop:(unit -> bool) ->
    ?telemetry:Telemetry.t ->
    ?budget:int ->
    ?watch:((S.state, S.action) Space.witness -> unit) ->
    ?resume:(S.state, S.action, S.Key.t) Space.snapshot ->
    ?snapshot:((S.state, S.action, S.Key.t) Space.snapshot -> unit) ->
    S.state ->
    (S.state, S.action) Space.result
  (** [stop], [watch], [snapshot] and [resume] behave as in the
      sequential {!Best_first.Make.search}: [stop] is polled once per
      pop, and a budget-exceeded or cancelled run hands back a frontier
      that [resume] continues in exactly the interrupted run's order.
      @raise Invalid_argument if [budget <= 0]. *)
end
