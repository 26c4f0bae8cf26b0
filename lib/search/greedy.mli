(** Greedy best-first search: the frontier is ordered by h alone.

    An ablation baseline — fast and memory-hungry, with no cost guarantee.
    {!Best_first} keyed on [h] with {!Best_first.Seen} dedup: each state
    is enqueued, and so expanded, at most once. *)

module Make (S : Space.S) : sig
  val search :
    ?stop:(unit -> bool) ->
    ?telemetry:Telemetry.t ->
    ?budget:int ->
    ?watch:((S.state, S.action) Space.witness -> unit) ->
    ?resume:(S.state, S.action, S.Key.t) Space.snapshot ->
    ?snapshot:((S.state, S.action, S.Key.t) Space.snapshot -> unit) ->
    heuristic:(S.state -> int) ->
    S.state ->
    (S.state, S.action) Space.result
  (** [stop], [watch], [snapshot] and [resume] behave as in the
      sequential {!Best_first.Make.search}: [stop] is polled once per
      pop, and a budget-exceeded or cancelled run hands back a frontier
      that [resume] continues in exactly the interrupted run's order.
      @raise Invalid_argument if [budget <= 0]. *)
end
