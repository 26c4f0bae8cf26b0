(** The best-first loop behind {!Astar}, {!Greedy} and {!Bfs}.

    One frontier heap ordered by a priority, ties broken by insertion
    order: [g + h] gives A*, [h] greedy best-first search, and [g] BFS —
    every successor is one step deeper than the node it came from, so a
    heap keyed on depth pops in exactly FIFO order. Each pop polls
    [stop], skips stale entries, checks the budget, counts the
    examination, notifies [watch], runs the goal test, and expands. A
    budget-exceeded or cancelled search hands its frontier to
    [snapshot]; [resume] continues it in exactly the order the
    interrupted run would have popped. *)

(** How a successor whose key is already in the dedup table is treated. *)
type dedup =
  | Seen  (** dropped: each key is enqueued at most once *)
  | Best_g
      (** dropped unless its g beats the best g recorded for the key, in
          which case it is enqueued again (reopened) and the superseded
          heap entry is skipped as stale when popped *)

module Make (S : Space.S) : sig
  val search :
    name:string ->
    dedup:dedup ->
    priority:(g:int -> S.state -> int) ->
    ?stop:(unit -> bool) ->
    ?telemetry:Telemetry.t ->
    ?pool:Pool.t ->
    ?budget:int ->
    ?watch:((S.state, S.action) Space.witness -> unit) ->
    ?resume:(S.state, S.action, S.Key.t) Space.snapshot ->
    ?snapshot:((S.state, S.action, S.Key.t) Space.snapshot -> unit) ->
    S.state ->
    (S.state, S.action) Space.result
  (** [priority ~g state] orders the frontier; it is computed once per
      enqueued node (root, resumed node, admitted successor). [name]
      prefixes the [Invalid_argument] message. [stop] is polled once
      per pop; the first goal popped is the answer. [pool] switches to
      the batched round {!Astar} documents, which scores every
      successor on the pool's domains; its incumbent rule reads the
      priority as a lower bound on cost, so only A* passes a pool.

      [watch] fires once per goal-tested node — after the budget check,
      before the goal test — and must not mutate the space; it never
      changes the outcome, stats or examination order. [snapshot]
      receives the nodes in hand and the frontier in pop order, plus
      the dedup table, when the search ends {!Space.Budget_exceeded} or
      {!Space.Cancelled} with no incumbent. Passing it back as [resume]
      transplants the table and re-enqueues the nodes in order, so the
      resumed run pops exactly as the interrupted one would have; the
      root is then ignored.
      @raise Invalid_argument if [budget <= 0]. *)
end
