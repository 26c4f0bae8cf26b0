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

(** What distinguishes the members of the IDA* family: the h a node is
    cut on, and what is remembered when a subtree fails. *)
module type H_TABLE = sig
  type state
  type key
  type t

  val name : string
  (** Prefix of the [Invalid_argument] message. *)

  val create : unit -> t
  (** One table per search, kept across its iterations. *)

  val h : t -> (state -> int) -> state -> int
  (** [h table heuristic state]: the estimate the bound is checked
      against. *)

  val backup : t -> key -> int -> unit
  (** [backup table key h'] — the subtree under [key] failed, and needs
      at least [h'] more steps; called only when no successor was
      suppressed by the on-path cycle check. *)
end

(** The iterative-deepening DFS, parameterised by its h-table. {!Make}
    instantiates it with none; {!Ida_tt} with a transposition table. *)
module Deepening
    (S : Space.S)
    (_ : H_TABLE with type state := S.state and type key := S.Key.t) : sig
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

(** Plain IDA*: {!Deepening} cutting on the heuristic itself, with no
    table lookup. *)
module Make (S : Space.S) : sig
  val search :
    ?stop:(unit -> bool) ->
    ?telemetry:Telemetry.t ->
    ?budget:int ->
    ?watch:((S.state, S.action) Space.witness -> unit) ->
    heuristic:(S.state -> int) ->
    S.state ->
    (S.state, S.action) Space.result
end
