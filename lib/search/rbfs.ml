let infinity_cost = max_int / 2
(* Half of max_int so that f-value arithmetic can never overflow. *)

module Make (S : Space.S) = struct
  module KT = Hashtbl.Make (S.Key)
  module Expansions = Space.Expansion_cache (S)

  exception Budget
  exception Stopped

  type node = {
    state : S.state;
    action : S.action option;  (** edge from the parent *)
    g : int;
    mutable f : int;  (** cached (possibly backed-up) f-value *)
  }

  type rec_result =
    | Hit of S.action list * S.state
    | Failed of int  (** revised f-value *)

  let search ?(stop = Space.never_stop) ?(telemetry = Telemetry.disabled)
      ?(budget = Space.default_budget) ?watch ~heuristic root =
    Space.validate_budget "Rbfs.search" budget;
    let c = Space.counters () in
    let elapsed = Space.stopwatch () in
    let finish outcome = Space.finish ~telemetry c elapsed outcome in
    let observe state path_rev g =
      match watch with
      | None -> ()
      | Some f ->
          f { Space.w_state = state; w_path_rev = path_rev; w_cost = g }
    in
    let on_path : unit KT.t = KT.create 64 in
    let expansions = Expansions.create () in
    let clamp x = if x > infinity_cost then infinity_cost else x in
    let rec rbfs node path_rev f_limit =
      if stop () then raise Stopped;
      Space.tick_examined telemetry c;
      if c.examined_c > budget then raise Budget;
      observe node.state path_rev node.g;
      if S.is_goal node.state then Hit ([], node.state)
      else begin
        let key = S.key node.state in
        KT.add on_path key ();
        let all_succs =
          Expansions.successors telemetry expansions key node.state
        in
        let succs =
          List.filter
            (fun (_, s) -> not (KT.mem on_path (S.key s)))
            all_succs
        in
        let pruned = List.length all_succs - List.length succs in
        if pruned > 0 then
          Telemetry.count telemetry Space.Ev.prune_cycle pruned;
        Space.record_expansion telemetry c ~generated:(List.length succs);
        let result =
          if succs = [] then Failed infinity_cost
          else begin
            let nodes =
              List.map
                (fun (action, s) ->
                  let g = node.g + 1 in
                  (* Pathmax: inherit the parent's backed-up f when it is
                     larger, so backed-up values stay monotone. *)
                  let f = clamp (max (g + heuristic s) node.f) in
                  { state = s; action = Some action; g; f })
                succs
            in
            let arr = Array.of_list nodes in
            let rec loop () =
              (* Select best and second-best by cached f. *)
              Array.sort (fun a b -> compare a.f b.f) arr;
              let best = arr.(0) in
              (* A best f at infinity means every descendant is a dead end:
                 fail upward even when the limit is also infinite. *)
              if best.f > f_limit || best.f >= infinity_cost then Failed best.f
              else begin
                let alternative =
                  if Array.length arr > 1 then arr.(1).f else infinity_cost
                in
                match
                  rbfs best
                    (match best.action with
                    | Some a -> a :: path_rev
                    | None -> path_rev)
                    (min f_limit alternative)
                with
                | Hit (path, final) ->
                    Hit ((match best.action with Some a -> a :: path | None -> path), final)
                | Failed revised ->
                    best.f <- revised;
                    loop ()
              end
            in
            loop ()
          end
        in
        KT.remove on_path key;
        result
      end
    in
    let root_node = { state = root; action = None; g = 0; f = clamp (heuristic root) } in
    match rbfs root_node [] infinity_cost with
    | Hit (path, final) ->
        finish (Space.Found { path; final; cost = List.length path })
    | Failed _ -> finish Space.Exhausted
    | exception Budget -> finish Space.Budget_exceeded
    | exception Stopped -> finish Space.Cancelled
end
