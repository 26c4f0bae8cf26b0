module Make (S : Space.S) = struct
  module B = Best_first.Make (S)

  let search ?stop ?telemetry ?budget ?watch ?resume ?snapshot ~heuristic
      root =
    B.search ~name:"Greedy.search" ~dedup:Seen
      ~priority:(fun ~g:_ s -> heuristic s)
      ?stop ?telemetry ?budget ?watch ?resume ?snapshot root
end
