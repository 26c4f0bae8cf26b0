(** IDA* with a transposition table — an extension in the direction of the
    paper's future work ("further investigation of search techniques
    developed in the AI literature is warranted", §7).

    Identical to {!Ida} except that when a subtree rooted at a state fails
    under the current bound, the backed-up cutoff is stored as an improved
    heuristic value for that state (Reinefeld-style h-update). Revisits of
    the state — through a different operator ordering or in a later
    iteration — are then pruned immediately when the improved value already
    exceeds the bound. This trades memory (the table, capped) for a large
    reduction in re-examined states on spaces with many commuting
    operators, which ℒ's rename/λ spaces are; the [ablation] bench
    quantifies the effect. With an admissible heuristic, solution costs
    remain optimal (backed-up cutoffs are valid lower bounds).

    Like {!Ida}, re-expansions reuse the successor list of the state's
    first expansion from a per-search {!Space.Expansion_cache}, bounded
    at {!Space.expansion_cache_bound} (4096) successor states — for
    TUPELO's space at most 4096 × [max_state_cells] cells on top of the
    table. The table holds at most 500_000 entries; it is cleared when
    full. Both are {!Ida.Deepening}, this one instantiated with the
    table. *)

module Make (S : Space.S) : sig
  val search :
    ?stop:(unit -> bool) ->
    ?telemetry:Telemetry.t ->
    ?budget:int ->
    ?watch:((S.state, S.action) Space.witness -> unit) ->
    heuristic:(S.state -> int) ->
    S.state ->
    (S.state, S.action) Space.result
  (** As {!Ida.Deepening}'s [search].
      @raise Invalid_argument if [budget <= 0]. *)
end
