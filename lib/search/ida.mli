(** Iterative-Deepening A* — one of TUPELO's two search algorithms (§2.3).

    Performs depth-first searches bounded by increasing f = g + h values,
    starting from f(root) = h(root), at the price of re-exploring shallow
    states on every iteration (those re-examinations are counted, as in
    the paper's experiments). States already on the current path are
    skipped (cycle avoidance).

    Memory is linear in the solution depth plus one
    {!Space.Expansion_cache} per search: a re-expanded state gets back
    the successor list its first expansion built instead of regenerating
    it, which leaves every count and the search order unchanged. The
    cache holds at most {!Space.expansion_cache_bound} (4096) successor
    states — for TUPELO's space at most 4096 × [max_state_cells] cells. *)

module Make (S : Space.S) : sig
  val search :
    ?stop:(unit -> bool) ->
    ?telemetry:Telemetry.t ->
    ?budget:int ->
    ?watch:((S.state, S.action) Space.witness -> unit) ->
    heuristic:(S.state -> int) ->
    S.state ->
    (S.state, S.action) Space.result
  (** [search ~heuristic root] explores until a goal is found, the space is
      exhausted, or [budget] states (default {!Space.default_budget}) have
      been examined. With the constant-zero heuristic this is iterative
      deepening — the paper's blind baseline h0. [stop] is polled once per
      examination; when it returns true the search finishes with
      {!Space.Cancelled}.
      @raise Invalid_argument if [budget <= 0]. *)
end
