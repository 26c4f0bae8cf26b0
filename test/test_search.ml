(* The search algorithms are validated on small synthetic spaces where the
   optimum is known: a bounded grid (admissible Manhattan heuristic) and a
   branching counter space. BFS serves as the optimality oracle. *)

module Grid = struct
  (* States are (x, y) on a 6x6 grid; moves are +1 in either coordinate;
     goal is (5, 5). Optimal cost is 10 and the space is a DAG. *)
  type state = int * int
  type action = [ `Right | `Up ]

  let size = 6

  module Key = Search.Space.String_key

  let key (x, y) = Printf.sprintf "%d,%d" x y

  let successors (x, y) =
    List.filter_map
      (fun (a, (x', y')) ->
        if x' < size && y' < size then Some (a, (x', y')) else None)
      [ (`Right, (x + 1, y)); (`Up, (x, y + 1)) ]

  let is_goal (x, y) = x = size - 1 && y = size - 1
end

module Grid_ida = Search.Ida.Make (Grid)
module Grid_ida_tt = Search.Ida_tt.Make (Grid)
module Grid_rbfs = Search.Rbfs.Make (Grid)
module Grid_astar = Search.Astar.Make (Grid)
module Grid_greedy = Search.Greedy.Make (Grid)
module Grid_bfs = Search.Bfs.Make (Grid)
module Grid_beam = Search.Beam.Make (Grid)

let manhattan (x, y) = (Grid.size - 1 - x) + (Grid.size - 1 - y)
let zero _ = 0

let check_found name result expected_cost =
  match result.Search.Space.outcome with
  | Search.Space.Found { cost; path; _ } ->
      Alcotest.(check int) (name ^ " cost") expected_cost cost;
      Alcotest.(check int) (name ^ " path length") expected_cost
        (List.length path)
  | _ -> Alcotest.fail (name ^ ": expected a solution")

let test_grid_all_algorithms () =
  let expected = 10 in
  check_found "IDA/manhattan" (Grid_ida.search ~heuristic:manhattan (0, 0)) expected;
  check_found "IDA/blind" (Grid_ida.search ~heuristic:zero (0, 0)) expected;
  check_found "IDA+TT/manhattan"
    (Grid_ida_tt.search ~heuristic:manhattan (0, 0))
    expected;
  check_found "IDA+TT/blind" (Grid_ida_tt.search ~heuristic:zero (0, 0)) expected;
  check_found "RBFS/manhattan" (Grid_rbfs.search ~heuristic:manhattan (0, 0)) expected;
  check_found "RBFS/blind" (Grid_rbfs.search ~heuristic:zero (0, 0)) expected;
  check_found "A*/manhattan" (Grid_astar.search ~heuristic:manhattan (0, 0)) expected;
  check_found "BFS" (Grid_bfs.search (0, 0)) expected;
  (* Greedy has no optimality guarantee but on this DAG every path is
     optimal. *)
  check_found "Greedy/manhattan" (Grid_greedy.search ~heuristic:manhattan (0, 0)) expected;
  check_found "Beam/manhattan" (Grid_beam.search ~heuristic:manhattan (0, 0)) expected;
  check_found "Beam width 1" (Grid_beam.search ~width:1 ~heuristic:manhattan (0, 0)) expected

let test_heuristic_reduces_work () =
  let blind = Grid_ida.search ~heuristic:zero (0, 0) in
  let informed = Grid_ida.search ~heuristic:manhattan (0, 0) in
  Alcotest.(check bool) "manhattan examines fewer states" true
    (informed.Search.Space.stats.Search.Space.examined
    < blind.Search.Space.stats.Search.Space.examined)

let test_transposition_table_reduces_work () =
  (* The grid has many transpositions (all monotone paths commute): the
     table must prune most re-examinations of blind IDA. *)
  let plain = Grid_ida.search ~heuristic:zero (0, 0) in
  let with_tt = Grid_ida_tt.search ~heuristic:zero (0, 0) in
  Alcotest.(check bool) "IDA+TT examines fewer states" true
    (with_tt.Search.Space.stats.Search.Space.examined
    < plain.Search.Space.stats.Search.Space.examined)

let test_path_replays_to_goal () =
  let result = Grid_astar.search ~heuristic:manhattan (0, 0) in
  match result.Search.Space.outcome with
  | Search.Space.Found { path; final; _ } ->
      let replayed =
        List.fold_left
          (fun (x, y) a ->
            match a with `Right -> (x + 1, y) | `Up -> (x, y + 1))
          (0, 0) path
      in
      Alcotest.(check string) "replay reaches final" (Grid.key final)
        (Grid.key replayed);
      Alcotest.(check bool) "final is goal" true (Grid.is_goal final)
  | _ -> Alcotest.fail "expected a solution"

module Dead_end = struct
  (* A finite space with no goal: exhaustion must be reported. *)
  type state = int
  type action = unit

  module Key = Search.Space.String_key

  let key = string_of_int
  let successors n = if n < 5 then [ ((), n + 1) ] else []
  let is_goal _ = false
end

module De_ida = Search.Ida.Make (Dead_end)
module De_ida_tt = Search.Ida_tt.Make (Dead_end)
module De_rbfs = Search.Rbfs.Make (Dead_end)
module De_astar = Search.Astar.Make (Dead_end)
module De_bfs = Search.Bfs.Make (Dead_end)

let test_exhaustion () =
  let is_exhausted r =
    match r.Search.Space.outcome with
    | Search.Space.Exhausted -> true
    | _ -> false
  in
  Alcotest.(check bool) "IDA exhausts" true
    (is_exhausted (De_ida.search ~heuristic:zero 0));
  Alcotest.(check bool) "IDA+TT exhausts" true
    (is_exhausted (De_ida_tt.search ~heuristic:zero 0));
  Alcotest.(check bool) "RBFS exhausts" true
    (is_exhausted (De_rbfs.search ~heuristic:zero 0));
  Alcotest.(check bool) "A* exhausts" true
    (is_exhausted (De_astar.search ~heuristic:zero 0));
  Alcotest.(check bool) "BFS exhausts" true (is_exhausted (De_bfs.search 0))

module Infinite = struct
  (* Unbounded branching chain with an unreachable goal: budgets must trip. *)
  type state = int
  type action = int

  module Key = Search.Space.String_key

  let key = string_of_int
  let successors n = [ (0, (2 * n) + 1); (1, (2 * n) + 2) ]
  let is_goal _ = false
end

module Inf_ida = Search.Ida.Make (Infinite)
module Inf_rbfs = Search.Rbfs.Make (Infinite)
module Inf_astar = Search.Astar.Make (Infinite)

let test_budget () =
  let tripped r =
    match r.Search.Space.outcome with
    | Search.Space.Budget_exceeded -> true
    | _ -> false
  in
  Alcotest.(check bool) "IDA budget" true
    (tripped (Inf_ida.search ~budget:100 ~heuristic:zero 0));
  Alcotest.(check bool) "RBFS budget" true
    (tripped (Inf_rbfs.search ~budget:100 ~heuristic:zero 0));
  Alcotest.(check bool) "A* budget" true
    (tripped (Inf_astar.search ~budget:100 ~heuristic:zero 0))

let test_budget_respected () =
  let r = Inf_ida.search ~budget:100 ~heuristic:zero 0 in
  Alcotest.(check bool) "examined stays near budget" true
    (r.Search.Space.stats.Search.Space.examined <= 101)

let test_goal_at_root () =
  let module Trivial = struct
    type state = unit
    type action = unit

    module Key = Search.Space.String_key

    let key () = "root"
    let successors () = []
    let is_goal () = true
  end in
  let module I = Search.Ida.Make (Trivial) in
  let module R = Search.Rbfs.Make (Trivial) in
  let r1 = I.search ~heuristic:(fun _ -> 0) () in
  let r2 = R.search ~heuristic:(fun _ -> 0) () in
  check_found "IDA root goal" r1 0;
  check_found "RBFS root goal" r2 0;
  Alcotest.(check int) "IDA examined exactly the root" 1
    r1.Search.Space.stats.Search.Space.examined

let test_beam_incomplete () =
  (* A misleading heuristic plus width 1 sends the beam into the wall: the
     search dies out even though the goal is reachable (documented
     incompleteness). *)
  let misleading (x, y) = x + y in
  let r = Grid_beam.search ~width:1 ~heuristic:misleading (0, 0) in
  match r.Search.Space.outcome with
  | Search.Space.Exhausted -> ()
  | Search.Space.Found _ ->
      (* Acceptable: the tie-breaking may still reach the corner. *)
      ()
  | _ -> Alcotest.fail "expected exhaustion or a lucky path"

let test_degenerate_parameters () =
  (* budget <= 0 and width <= 0 are programming errors, not "search the
     empty space": all seven algorithms must refuse them loudly instead
     of returning a misleading [Exhausted]. *)
  let raises name f =
    Alcotest.(check bool) name true
      (match f () with
      | exception Invalid_argument _ -> true
      | (_ : (Grid.state, Grid.action) Search.Space.result) -> false)
  in
  raises "IDA budget 0" (fun () ->
      Grid_ida.search ~budget:0 ~heuristic:zero (0, 0));
  raises "IDA+TT budget -1" (fun () ->
      Grid_ida_tt.search ~budget:(-1) ~heuristic:zero (0, 0));
  raises "RBFS budget 0" (fun () ->
      Grid_rbfs.search ~budget:0 ~heuristic:zero (0, 0));
  raises "A* budget 0" (fun () ->
      Grid_astar.search ~budget:0 ~heuristic:zero (0, 0));
  raises "Greedy budget 0" (fun () ->
      Grid_greedy.search ~budget:0 ~heuristic:zero (0, 0));
  raises "Beam budget 0" (fun () ->
      Grid_beam.search ~budget:0 ~heuristic:zero (0, 0));
  raises "Beam width 0" (fun () ->
      Grid_beam.search ~width:0 ~heuristic:zero (0, 0));
  raises "Beam width -3" (fun () ->
      Grid_beam.search ~width:(-3) ~heuristic:zero (0, 0));
  raises "BFS budget 0" (fun () -> Grid_bfs.search ~budget:0 (0, 0))

let test_elapsed_non_negative () =
  let r = Grid_astar.search ~heuristic:manhattan (0, 0) in
  Alcotest.(check bool) "elapsed_s >= 0" true
    (r.Search.Space.stats.Search.Space.elapsed_s >= 0.)

let test_heap () =
  let h = Search.Heap.create () in
  Alcotest.(check bool) "empty" true (Search.Heap.is_empty h);
  List.iter (fun (p, v) -> Search.Heap.push h ~priority:p v)
    [ (5, "e"); (1, "a"); (3, "c"); (1, "b"); (4, "d") ];
  Alcotest.(check int) "size" 5 (Search.Heap.size h);
  Alcotest.(check (option (pair int string))) "peek min" (Some (1, "a"))
    (Search.Heap.peek h);
  let popped = List.init 5 (fun _ -> Search.Heap.pop h) in
  Alcotest.(check (list (option (pair int string))))
    "pops in priority order, FIFO on ties"
    [ Some (1, "a"); Some (1, "b"); Some (3, "c"); Some (4, "d"); Some (5, "e") ]
    popped;
  Alcotest.(check (option (pair int string))) "pop empty" None (Search.Heap.pop h)

let test_heap_many () =
  let h = Search.Heap.create () in
  let n = 1000 in
  (* Deterministic pseudo-random insertion order. *)
  let xs = List.init n (fun i -> (i * 7919) mod n) in
  List.iter (fun x -> Search.Heap.push h ~priority:x x) xs;
  let rec drain acc =
    match Search.Heap.pop h with
    | None -> List.rev acc
    | Some (p, _) -> drain (p :: acc)
  in
  let out = drain [] in
  Alcotest.(check int) "drained all" n (List.length out);
  Alcotest.(check bool) "sorted" true
    (List.sort compare out = out)

(* Expansion cache: IDA*, IDA*+TT and RBFS hand a re-expanded state the
   successor list its first expansion built. Two spaces whose
   [successors] count their calls per key: a 4×4 grid with moves in all
   four directions (cyclic, so on-path pruning fires on cached lists),
   and a layered space whose distinct expansions hold more successor
   states than [Space.expansion_cache_bound]. The pinned counts, paths
   and cycle-prune totals are those of engines that regenerate every
   list. *)
module Grid4 = struct
  type state = int * int
  type action = [ `Right | `Left | `Up | `Down ]

  let size = 4

  module Key = Search.Space.String_key

  let key (x, y) = Printf.sprintf "%d,%d" x y

  let successors (x, y) =
    List.filter
      (fun (_, (x', y')) -> x' >= 0 && y' >= 0 && x' < size && y' < size)
      [
        (`Right, (x + 1, y)); (`Up, (x, y + 1)); (`Left, (x - 1, y));
        (`Down, (x, y - 1));
      ]

  let is_goal (x, y) = x = size - 1 && y = size - 1

  let show = function
    | `Right -> "R" | `Left -> "L" | `Up -> "U" | `Down -> "D"
end

module Lattice = struct
  (* Layer d, index i: three steps into layer d + 1 (so states are
     reached along many paths) and one back into layer d - 1. *)
  type state = int * int
  type action = int

  let width = 5000

  module Key = Search.Space.String_key

  let key (d, i) = Printf.sprintf "%d/%d" d i

  let successors (d, i) =
    let forward =
      [
        (0, (d + 1, (2 * i) mod width));
        (1, (d + 1, ((2 * i) + 1) mod width));
        (2, (d + 1, ((3 * i) + 1) mod width));
      ]
    in
    if d > 0 then forward @ [ (3, (d - 1, i)) ] else forward

  let is_goal s = s = (9, 300)
  let heuristic (d, _) = max 0 (9 - d) / 3
  let show = string_of_int
end

module Counted (S : sig
  include Search.Space.S with type Key.t = string

  val show : action -> string
end) =
struct
  module C = struct
    include S

    let calls : (string, int) Hashtbl.t = Hashtbl.create 64

    (* Successor states over distinct keys: what an unbounded cache
       would retain. *)
    let retained = ref 0

    let successors s =
      let k = key s in
      let succs = S.successors s in
      (match Hashtbl.find_opt calls k with
      | None ->
          Hashtbl.add calls k 1;
          retained := !retained + List.length succs
      | Some n -> Hashtbl.replace calls k (n + 1));
      succs
  end

  module I = Search.Ida.Make (C)
  module T = Search.Ida_tt.Make (C)
  module R = Search.Rbfs.Make (C)

  let engines =
    [
      ("IDA", fun ~telemetry ~heuristic root -> I.search ~telemetry ~heuristic root);
      ("IDA+TT", fun ~telemetry ~heuristic root -> T.search ~telemetry ~heuristic root);
      ("RBFS", fun ~telemetry ~heuristic root -> R.search ~telemetry ~heuristic root);
    ]

  (* Runs [engine] traced; returns its stats, path, the
     [search.prune.cycle] and [search.expand.cached] totals. *)
  let run engine ~heuristic root =
    Hashtbl.reset C.calls;
    C.retained := 0;
    let agg = Telemetry.Agg.create () in
    let telemetry = Telemetry.create (Telemetry.Agg.sink agg) in
    let r = (List.assoc engine engines) ~telemetry ~heuristic root in
    let path =
      match r.Search.Space.outcome with
      | Search.Space.Found { path; _ } -> String.concat ";" (List.map S.show path)
      | _ -> "no solution"
    in
    ( r.Search.Space.stats,
      path,
      Telemetry.Agg.counter agg "search.prune.cycle",
      Telemetry.Agg.counter agg "search.expand.cached" )

  let check_pinned engine ~heuristic root
      (examined, generated, expanded, path, cycle) =
    let stats, path', cycle', _ = run engine ~heuristic root in
    let check what = Alcotest.(check int) (engine ^ " " ^ what) in
    check "examined" examined stats.Search.Space.examined;
    check "generated" generated stats.Search.Space.generated;
    check "expanded" expanded stats.Search.Space.expanded;
    Alcotest.(check string) (engine ^ " path") path path';
    check "search.prune.cycle" cycle cycle'
end

module Grid4_c = Counted (Grid4)
module Lattice_c = Counted (Lattice)

let test_expansion_once_per_key () =
  List.iter
    (fun (engine, _) ->
      let stats, _, _, cached = Grid4_c.run engine ~heuristic:zero (0, 0) in
      let distinct = Hashtbl.length Grid4_c.C.calls in
      Alcotest.(check bool) (engine ^ ": under the bound") true
        (!Grid4_c.C.retained <= Search.Space.expansion_cache_bound);
      Alcotest.(check bool) (engine ^ ": states re-expanded") true
        (stats.Search.Space.expanded > distinct);
      Hashtbl.iter
        (fun k n -> Alcotest.(check int) (engine ^ ": successors of " ^ k) 1 n)
        Grid4_c.C.calls;
      Alcotest.(check int) (engine ^ ": search.expand.cached")
        (stats.Search.Space.expanded - distinct)
        cached)
    Grid4_c.engines

let test_expansion_cycle_pruning () =
  let pin engine = Grid4_c.check_pinned engine ~heuristic:zero (0, 0) in
  pin "IDA" (161, 508, 160, "R;R;R;U;U;U", 178);
  pin "IDA+TT" (161, 508, 160, "R;R;R;U;U;U", 178);
  pin "RBFS" (141, 285, 140, "R;R;R;U;U;U", 169)

let test_expansion_hit_no_alloc () =
  let module E = Search.Space.Expansion_cache (Grid4) in
  let cache = E.create () in
  let key = Grid4.key (1, 1) in
  let first = E.successors Telemetry.disabled cache key (1, 1) in
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let hit = ref [] in
  let baseline = words ignore in
  let spent =
    words (fun () -> hit := E.successors Telemetry.disabled cache key (1, 1))
  in
  Alcotest.(check bool) "a hit returns the first list" true (!hit == first);
  Alcotest.(check (float 0.)) "words allocated by a hit" baseline spent

let test_expansion_past_bound () =
  (* [regenerates]: some list past the bound is built twice. IDA+TT's
     backed-up h-values prune those re-visits before expansion. *)
  let pin engine ~regenerates pinned =
    Lattice_c.check_pinned engine ~heuristic:Lattice.heuristic (0, 0) pinned;
    Alcotest.(check bool) (engine ^ ": distinct expansions exceed the bound")
      true
      (!Lattice_c.C.retained > Search.Space.expansion_cache_bound);
    Alcotest.(check bool) (engine ^ ": lists past the bound regenerated")
      regenerates
      (Hashtbl.fold (fun _ n acc -> acc || n > 1) Lattice_c.C.calls false)
  in
  pin "IDA" ~regenerates:true (34742, 138918, 34741, "0;1;1;0;0;2;1;0;0", 35);
  pin "IDA+TT" ~regenerates:false (3867, 15447, 3866, "0;1;1;0;0;2;1;0;0", 35);
  pin "RBFS" ~regenerates:true (24262, 96980, 24261, "2;0;0;1;0;1;1;0;0", 27)

let suite =
  [
    Alcotest.test_case "grid: all algorithms optimal" `Quick test_grid_all_algorithms;
    Alcotest.test_case "informed beats blind" `Quick test_heuristic_reduces_work;
    Alcotest.test_case "transposition table beats plain IDA" `Quick test_transposition_table_reduces_work;
    Alcotest.test_case "path replays to goal" `Quick test_path_replays_to_goal;
    Alcotest.test_case "exhaustion reported" `Quick test_exhaustion;
    Alcotest.test_case "budget trips" `Quick test_budget;
    Alcotest.test_case "budget respected" `Quick test_budget_respected;
    Alcotest.test_case "goal at root" `Quick test_goal_at_root;
    Alcotest.test_case "beam incompleteness" `Quick test_beam_incomplete;
    Alcotest.test_case "degenerate parameters rejected" `Quick test_degenerate_parameters;
    Alcotest.test_case "elapsed time non-negative" `Quick test_elapsed_non_negative;
    Alcotest.test_case "heap ordering" `Quick test_heap;
    Alcotest.test_case "heap stress" `Quick test_heap_many;
    Alcotest.test_case "expansion cache: one successors call per key" `Quick
      test_expansion_once_per_key;
    Alcotest.test_case "expansion cache: cycle pruning on cached lists"
      `Quick test_expansion_cycle_pruning;
    Alcotest.test_case "expansion cache: counts past the bound" `Quick
      test_expansion_past_bound;
    Alcotest.test_case "expansion cache: a hit allocates nothing" `Quick
      test_expansion_hit_no_alloc;
  ]
