(* Entries kept before the table is cleared and refilled. *)
let table_cap = 500_000

module Make (S : Space.S) = struct
  module KT = Hashtbl.Make (S.Key)

  include
    Ida.Deepening
      (S)
      (struct
        (* improved (backed-up) heuristic values, persisted across
           iterations *)
        type t = int KT.t

        let name = "Ida_tt.search"
        let create () = KT.create 4096

        let h table heuristic state =
          match KT.find_opt table (S.key state) with
          | Some h' -> max h' (heuristic state)
          | None -> heuristic state

        let backup table key h' =
          if KT.length table >= table_cap then KT.reset table;
          KT.replace table key h'
      end)
end
