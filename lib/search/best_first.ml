type dedup = Seen | Best_g

module Make (S : Space.S) = struct
  module KT = Hashtbl.Make (S.Key)

  type node = { state : S.state; path_rev : S.action list; g : int }

  let search ~name ~dedup ~priority ?(stop = Space.never_stop)
      ?(telemetry = Telemetry.disabled) ?pool ?(budget = Space.default_budget)
      ?watch ?resume ?snapshot root =
    Space.validate_budget name budget;
    let c = Space.counters () in
    let elapsed = Space.stopwatch () in
    let finish outcome = Space.finish ~telemetry c elapsed outcome in
    let frontier = Heap.create () in
    (* The dedup table: every key ever enqueued or expanded, with the best
       g known for it (0 under [Seen], which tracks membership only).
       Pre-sized to the working set a budgeted cold search actually
       reaches, so the table doesn't resize through a series of
       ever-larger major-heap bucket arrays mid-search. *)
    let table : int KT.t = KT.create (max 256 (min budget 8192)) in
    (* Record a key reached at path cost [g]; true if it is to be
       enqueued. Sequential, so dedup stays deterministic. *)
    let admit k g =
      match dedup with
      | Seen ->
          if KT.mem table k then false
          else begin
            KT.replace table k 0;
            true
          end
      | Best_g -> (
          match KT.find_opt table k with
          | Some g0 when g0 <= g -> false
          | _ ->
              KT.replace table k g;
              true)
    in
    (* A [Best_g] heap entry superseded by a cheaper path to its key. *)
    let is_stale node =
      match dedup with
      | Seen -> false
      | Best_g -> (
          match KT.find_opt table (S.key node.state) with
          | Some g -> g < node.g
          | None -> false)
    in
    let enqueue node =
      Heap.push frontier ~priority:(priority ~g:node.g node.state) node
    in
    let pruned () = Telemetry.count telemetry Space.Ev.prune_seen 1 in
    let found node =
      Space.Found
        { path = List.rev node.path_rev; final = node.state; cost = node.g }
    in
    let observe =
      match watch with
      | None -> fun _ -> ()
      | Some f ->
          fun node ->
            f
              {
                Space.w_state = node.state;
                w_path_rev = node.path_rev;
                w_cost = node.g;
              }
    in
    let sample_frontier () =
      Telemetry.gauge telemetry Space.Ev.frontier
        (float_of_int (Heap.size frontier))
    in
    (* Frontier capture for checkpoint/resume: the nodes in hand (popped
       but not goal-tested) followed by the heap drained in pop order,
       stale entries dropped, plus the whole dedup table. Only reached
       on Budget_exceeded/Cancelled, when the heap is dead anyway. *)
    let capture extra =
      match snapshot with
      | None -> ()
      | Some f ->
          let rec drain acc =
            match Heap.pop frontier with
            | None -> List.rev acc
            | Some (_, n) -> if is_stale n then drain acc else drain (n :: acc)
          in
          let nodes = extra @ drain [] in
          f
            {
              Space.snap_nodes =
                List.map (fun n -> (List.rev n.path_rev, n.state)) nodes;
              snap_closed = KT.fold (fun k g acc -> (k, g) :: acc) table [];
              snap_checked = 0;
            }
    in
    (match resume with
    | None ->
        ignore (admit (S.key root) 0);
        enqueue { state = root; path_rev = []; g = 0 }
    | Some snap ->
        (* Transplanted dedup table + re-enqueued open nodes: pushing the
           snapshot in its own (pop) order preserves the original heap's
           tie-breaking against both itself and any node enqueued later,
           and priorities are deterministic, so the resumed run pops in
           exactly the order the interrupted run would have. *)
        List.iter
          (fun (k, g) ->
            KT.replace table k (match dedup with Seen -> 0 | Best_g -> g))
          snap.Space.snap_closed;
        List.iter
          (fun (path, state) ->
            let g = List.length path in
            ignore (admit (S.key state) g);
            enqueue { state; path_rev = List.rev path; g })
          snap.Space.snap_nodes);
    match pool with
    | None ->
        let rec loop () =
          match Heap.pop frontier with
          | None -> finish Space.Exhausted
          | Some (_, node) ->
              if stop () then begin
                capture [ node ];
                finish Space.Cancelled
              end
              else if is_stale node then begin
                Telemetry.count telemetry Space.Ev.prune_stale 1;
                loop ()
              end
              else if c.examined_c >= budget then begin
                (* Checked before the tick so the node in hand is captured
                   untested: a resumed run examines it first, and budget B
                   then resume B' examines exactly the states of one
                   B + B' run (no double count at the seam). *)
                capture [ node ];
                finish Space.Budget_exceeded
              end
              else begin
                Space.tick_examined telemetry c;
                if (observe node; S.is_goal node.state) then finish (found node)
                else begin
                  let succs = S.successors node.state in
                  Space.record_expansion telemetry c
                    ~generated:(List.length succs);
                  let g = node.g + 1 in
                  List.iter
                    (fun (action, s) ->
                      if admit (S.key s) g then
                        enqueue
                          { state = s; path_rev = action :: node.path_rev; g }
                      else pruned ())
                    succs;
                  sample_frontier ();
                  loop ()
                end
              end
        in
        loop ()
    | Some pool ->
        (* Batched frontier expansion (A* only): pop up to [batch] best
           nodes, goal test them sequentially in priority order, then
           generate and score the non-goals' successors across the pool
           and merge them in pop order. A goal found in a batch becomes
           the incumbent rather than an immediate answer — batch-mates
           with smaller f may still lead to a cheaper goal — and the
           search returns it once no frontier f is below its cost. With
           an admissible heuristic the incumbent returned is optimal, the
           same cost as the sequential loop's answer. *)
        let batch = 2 * Pool.size pool in
        let expand node =
          let succs = S.successors node.state in
          let g = node.g + 1 in
          ( node,
            List.length succs,
            List.map
              (fun (action, s) -> (action, s, S.key s, priority ~g s))
              succs )
        in
        let merge (node, generated, scored) =
          Space.record_expansion telemetry c ~generated;
          let g = node.g + 1 in
          List.iter
            (fun (action, s, k, f) ->
              if admit k g then
                Heap.push frontier ~priority:f
                  { state = s; path_rev = action :: node.path_rev; g }
              else pruned ())
            scored
        in
        let rec take k acc =
          if k = 0 then List.rev acc
          else
            match Heap.pop frontier with
            | None -> List.rev acc
            | Some (_, node) ->
                if is_stale node then begin
                  Telemetry.count telemetry Space.Ev.prune_stale 1;
                  take k acc
                end
                else take (k - 1) (node :: acc)
        in
        let rec loop incumbent =
          let settled =
            (* The incumbent is the answer once no frontier f-value is
               below its cost. *)
            match incumbent with
            | None -> false
            | Some inc -> (
                match Heap.peek frontier with
                | None -> true
                | Some (f, _) -> f >= inc.g)
          in
          if settled then finish (found (Option.get incumbent))
          else if Heap.is_empty frontier then finish Space.Exhausted
          else if stop () then
            (* Cancelled mid-race; an incumbent mapping is still a
               mapping, so prefer reporting it — otherwise checkpoint
               the heap so the give-up is resumable, like the
               sequential loop's. *)
            finish
              (match incumbent with
              | Some inc -> found inc
              | None ->
                  capture [];
                  Space.Cancelled)
          else begin
            let nodes = take batch [] in
            sample_frontier ();
            let rec test incumbent to_expand = function
              | [] -> `Go (incumbent, List.rev to_expand)
              | node :: rest ->
                  if c.examined_c >= budget then
                    `Done
                      (match incumbent with
                      | Some inc -> found inc
                      | None ->
                          (* The batch remainder in pop order — already
                             goal-tested batch-mates first (re-tested on
                             resume), then the untested tail — ahead of
                             the drained heap. *)
                          capture (List.rev_append to_expand (node :: rest));
                          Space.Budget_exceeded)
                  else begin
                    Space.tick_examined telemetry c;
                    if (observe node; S.is_goal node.state) then
                      let incumbent =
                        match incumbent with
                        | Some best when best.g <= node.g -> Some best
                        | _ -> Some node
                      in
                      test incumbent to_expand rest
                    else test incumbent (node :: to_expand) rest
                  end
            in
            match test incumbent [] nodes with
            | `Done outcome -> finish outcome
            | `Go (incumbent, to_expand) ->
                Pool.map_list pool expand to_expand |> List.iter merge;
                loop incumbent
          end
        in
        loop None
end
