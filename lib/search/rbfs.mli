(** Recursive Best-First Search (Korf 1993) — TUPELO's second search
    algorithm (§2.3).

    Explores best-first within linear memory by recursing on the locally
    best successor with an f-limit equal to the best alternative, backing
    up revised f-values on return. Like IDA* it re-generates states (the
    re-examinations are counted); unlike IDA* it follows the f-ordering
    locally rather than in global depth-bounded sweeps.

    Memory is linear in the depth times the branching factor plus one
    {!Space.Expansion_cache} per search: a state re-expanded after a
    backtrack gets back the successor list its first expansion built
    (on-path filtering still applies to it), so counts and order are
    unchanged. The cache holds at most {!Space.expansion_cache_bound}
    (4096) successor states — for TUPELO's space at most
    4096 × [max_state_cells] cells. *)

module Make (S : Space.S) : sig
  val search :
    ?stop:(unit -> bool) ->
    ?telemetry:Telemetry.t ->
    ?budget:int ->
    ?watch:((S.state, S.action) Space.witness -> unit) ->
    heuristic:(S.state -> int) ->
    S.state ->
    (S.state, S.action) Space.result
  (** [stop] is polled once per examination; when it returns true the
      search finishes with {!Space.Cancelled}.
      @raise Invalid_argument if [budget <= 0]. *)
end
