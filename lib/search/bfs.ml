module Make (S : Space.S) = struct
  module B = Best_first.Make (S)

  let search ?stop ?telemetry ?budget ?watch ?resume ?snapshot root =
    B.search ~name:"Bfs.search" ~dedup:Seen
      ~priority:(fun ~g _ -> g)
      ?stop ?telemetry ?budget ?watch ?resume ?snapshot root
end
