module Make (S : Space.S) = struct
  module B = Best_first.Make (S)

  let search ?stop ?telemetry ?pool ?budget ?watch ?resume ?snapshot
      ~heuristic root =
    B.search ~name:"Astar.search" ~dedup:Best_g
      ~priority:(fun ~g s -> g + heuristic s)
      ?stop ?telemetry ?pool ?budget ?watch ?resume ?snapshot root
end
