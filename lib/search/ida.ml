let infinity_cost = max_int

module type H_TABLE = sig
  type state
  type key
  type t

  val name : string
  val create : unit -> t
  val h : t -> (state -> int) -> state -> int
  val backup : t -> key -> int -> unit
end

module Deepening
    (S : Space.S)
    (T : H_TABLE with type state := S.state and type key := S.Key.t) =
struct
  module KT = Hashtbl.Make (S.Key)
  module Expansions = Space.Expansion_cache (S)

  exception Budget
  exception Stopped

  type dfs_result =
    | Hit of S.action list * S.state
    | Cutoff of int  (** least f value beyond the bound *)

  let search ?(stop = Space.never_stop) ?(telemetry = Telemetry.disabled)
      ?(budget = Space.default_budget) ?watch ~heuristic root =
    Space.validate_budget T.name budget;
    let c = Space.counters () in
    c.iterations_c <- 0;
    let elapsed = Space.stopwatch () in
    let finish outcome = Space.finish ~telemetry c elapsed outcome in
    let observe state path_rev g =
      match watch with
      | None -> ()
      | Some f ->
          f { Space.w_state = state; w_path_rev = path_rev; w_cost = g }
    in
    (* Keys of states on the current DFS path, for cycle avoidance. *)
    let on_path : unit KT.t = KT.create 64 in
    let expansions = Expansions.create () in
    let table = T.create () in
    let rec dfs state path_rev g bound =
      let f = g + T.h table heuristic state in
      if f > bound then Cutoff f
      else begin
        if stop () then raise Stopped;
        Space.tick_examined telemetry c;
        if c.examined_c > budget then raise Budget;
        observe state path_rev g;
        if S.is_goal state then Hit ([], state)
        else begin
          let key = S.key state in
          let succs = Expansions.successors telemetry expansions key state in
          Space.record_expansion telemetry c ~generated:(List.length succs);
          KT.add on_path key ();
          (* [cycled]: a successor was suppressed by the on-path check.
             The backed-up cutoff is then no context-free lower bound —
             the successor may be available when the state is reached
             along a different path — so it is not backed up. *)
          let rec try_succs best_cutoff cycled = function
            | [] ->
                if not cycled then
                  T.backup table key
                    (if best_cutoff >= infinity_cost then infinity_cost / 2
                     else best_cutoff - g);
                Cutoff best_cutoff
            | (action, s) :: rest ->
                if KT.mem on_path (S.key s) then begin
                  Telemetry.count telemetry Space.Ev.prune_cycle 1;
                  try_succs best_cutoff true rest
                end
                else begin
                  match dfs s (action :: path_rev) (g + 1) bound with
                  | Hit (path, final) -> Hit (action :: path, final)
                  | Cutoff fmin ->
                      try_succs
                        (if fmin < best_cutoff then fmin else best_cutoff)
                        cycled rest
                end
          in
          let result = try_succs infinity_cost false succs in
          KT.remove on_path key;
          result
        end
      end
    in
    let rec iterate bound =
      Space.tick_iteration telemetry c;
      Telemetry.gauge telemetry Space.Ev.bound (float_of_int bound);
      KT.reset on_path;
      match dfs root [] 0 bound with
      | Hit (path, final) ->
          finish (Space.Found { path; final; cost = List.length path })
      | Cutoff next ->
          if next >= infinity_cost / 2 || next <= bound then
            finish Space.Exhausted
          else iterate next
    in
    try iterate (heuristic root) with
    | Budget -> finish Space.Budget_exceeded
    | Stopped -> finish Space.Cancelled
end

module Make (S : Space.S) =
  Deepening
    (S)
    (struct
      type t = unit

      let name = "Ida.search"
      let create () = ()
      let h () heuristic state = heuristic state
      let backup () _ _ = ()
    end)
