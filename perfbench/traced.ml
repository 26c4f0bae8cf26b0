(* Per-layer timing of a discovery, taken from the benchmark's own files.

   [discover] rebuilds [Tupelo.Discover]'s search space from the same
   public calls that [Moves.successors] and [Discover] make, and times
   each call:

   - [Moves.icandidates] (operator proposal);
   - [Fira.Eval.apply_interned_delta] (operator application);
   - the [max_state_cells] check, via [Fira.Eval.idelta_cells];
   - [State.of_isuccessor] (successor state build);
   - fingerprint dedup confirmed by [State.same_content];
   - [Goal.reached_interned] (goal test);
   - the memoized heuristic, built exactly as [Discover] builds it.

   The search engines are the library's own, so a traced run examines the
   same states in the same order as [Discover.discover] with the same
   configuration; the workloads check that the counts and the programs
   agree query by query. The paranoid fingerprint mode is not mirrored:
   the benchmark refuses to run with it on. *)

open Tupelo

type layers = {
  mutable setup_ns : float;
  mutable icand_ns : float;
  mutable proposed : int;
  mutable apply_ns : float;
  mutable apply_calls : int;
  mutable apply_errors : int;
  mutable build_ns : float;
  mutable dedup_ns : float;
  mutable dedup_dropped : int;
  mutable prune_cells : int;
  mutable kept : int;
  mutable goal_ns : float;
  mutable goal_calls : int;
  heuristic_ns : (string, float ref) Hashtbl.t;
  mutable heuristic_calls : int;
  mutable heuristic_evals : int;
  mutable wall_ns : float;
}

let layers () =
  {
    setup_ns = 0.;
    icand_ns = 0.;
    proposed = 0;
    apply_ns = 0.;
    apply_calls = 0;
    apply_errors = 0;
    build_ns = 0.;
    dedup_ns = 0.;
    dedup_dropped = 0;
    prune_cells = 0;
    kept = 0;
    goal_ns = 0.;
    goal_calls = 0;
    heuristic_ns = Hashtbl.create 8;
    heuristic_calls = 0;
    heuristic_evals = 0;
    wall_ns = 0.;
  }

let since t0 = Int64.to_float (Int64.sub (Common.now_ns ()) t0)

let heuristic_total l = Hashtbl.fold (fun _ r acc -> acc +. !r) l.heuristic_ns 0.

(* Time not covered by any timed call: the engines' own loop. *)
let self_ns l =
  l.wall_ns
  -. (l.setup_ns +. l.icand_ns +. l.apply_ns +. l.build_ns +. l.dedup_ns
     +. l.goal_ns +. heuristic_total l)

(* What a discovery reports, in a form both paths can be compared on. *)
type result = {
  examined : int;
  generated : int;
  expanded : int;
  path : Fira.Op.t list option;
}

let of_stats (s : Search.Space.stats) path =
  {
    examined = s.Search.Space.examined;
    generated = s.Search.Space.generated;
    expanded = s.Search.Space.expanded;
    path;
  }

let of_outcome = function
  | Discover.Mapping m ->
      of_stats m.Mapping.stats (Some (Fira.Expr.ops m.Mapping.expr))
  | Discover.No_mapping s | Discover.Gave_up s -> of_stats s None

let same a b =
  a.examined = b.examined && a.generated = b.generated
  && a.expanded = b.expanded
  &&
  match (a.path, b.path) with
  | None, None -> true
  | Some p, Some q -> List.length p = List.length q && List.for_all2 Fira.Op.equal p q
  | _ -> false

module Fp_tbl = Hashtbl.Make (Relational.Fingerprint)

let discover l ?(registry = Fira.Semfun.empty_registry)
    (config : Discover.config) ~source ~target =
  let t_start = Common.now_ns () in
  let target_info = Moves.target_info target in
  let target_profile = Heuristics.Profile.of_database target in
  let root = State.of_database source in
  l.setup_ns <- l.setup_ns +. since t_start;
  let goal = config.Discover.goal in
  let moves = { config.Discover.moves with Moves.goal } in
  let target_idb = Moves.target_idb target_info in
  let successors state =
    let idb = State.idb state in
    let t = Common.now_ns () in
    let ops = Moves.icandidates moves registry target_info idb in
    l.icand_ns <- l.icand_ns +. since t;
    l.proposed <- l.proposed + List.length ops;
    let seen : State.t Fp_tbl.t = Fp_tbl.create 32 in
    List.filter_map
      (fun op ->
        l.apply_calls <- l.apply_calls + 1;
        let t = Common.now_ns () in
        match
          Fira.Eval.apply_interned_delta ~semantics:`Syntactic registry op idb
        with
        | exception Fira.Eval.Error _ ->
            l.apply_ns <- l.apply_ns +. since t;
            l.apply_errors <- l.apply_errors + 1;
            None
        | idb', delta ->
            l.apply_ns <- l.apply_ns +. since t;
            if
              State.total_cells state + Fira.Eval.idelta_cells delta
              > moves.Moves.max_state_cells
            then begin
              l.prune_cells <- l.prune_cells + 1;
              None
            end
            else begin
              let t = Common.now_ns () in
              let s' = State.of_isuccessor state delta idb' in
              l.build_ns <- l.build_ns +. since t;
              let t = Common.now_ns () in
              let fp = State.fingerprint s' in
              let keep =
                match Fp_tbl.find_opt seen fp with
                | None -> true
                | Some _ ->
                    not
                      (List.exists
                         (fun s0 -> State.same_content s0 s')
                         (Fp_tbl.find_all seen fp))
              in
              if keep then Fp_tbl.add seen fp s';
              l.dedup_ns <- l.dedup_ns +. since t;
              if keep then begin
                l.kept <- l.kept + 1;
                Some (op, s')
              end
              else begin
                l.dedup_dropped <- l.dedup_dropped + 1;
                None
              end
            end)
      ops
  in
  let is_goal state =
    let t = Common.now_ns () in
    let r = Goal.reached_interned goal ~target:target_idb (State.idb state) in
    l.goal_ns <- l.goal_ns +. since t;
    l.goal_calls <- l.goal_calls + 1;
    r
  in
  (* Discover's estimate_for: h0 is free, cosine is scored from the
     state's incremental dot/norm parts, everything else from the state's
     profile; all of it memoized by fingerprint. *)
  let heuristic = config.Discover.heuristic in
  let estimate =
    let name = heuristic.Heuristics.Heuristic.name in
    if name = "h0" then fun _ -> 0
    else begin
      let memo : (Relational.Fingerprint.t, int) Heuristics.Memo.t =
        Heuristics.Memo.create ()
      in
      let eval =
        match heuristic.Heuristics.Heuristic.cosine_k with
        | Some k ->
            let tvec = Heuristics.Profile.vector target_profile in
            fun state ->
              Heuristics.Heuristic.cosine_scaled ~k
                (State.cosine_distance ~tvec state)
        | None ->
            fun state ->
              heuristic.Heuristics.Heuristic.estimate ~target:target_profile
                (State.profile state)
      in
      let acc =
        match Hashtbl.find_opt l.heuristic_ns name with
        | Some r -> r
        | None ->
            let r = ref 0. in
            Hashtbl.replace l.heuristic_ns name r;
            r
      in
      fun state ->
        let t = Common.now_ns () in
        l.heuristic_calls <- l.heuristic_calls + 1;
        let v =
          Heuristics.Memo.find_or_add memo (State.fingerprint state) (fun _ ->
              l.heuristic_evals <- l.heuristic_evals + 1;
              eval state)
        in
        acc := !acc +. since t;
        v
    end
  in
  let module Sp = struct
    type state = State.t
    type action = Fira.Op.t

    module Key = Relational.Fingerprint

    let key = State.fingerprint
    let successors = successors
    let is_goal = is_goal
  end in
  let budget = config.Discover.budget in
  let r =
    match config.Discover.algorithm with
    | Discover.Ida ->
        let module E = Search.Ida.Make (Sp) in
        E.search ~budget ~heuristic:estimate root
    | Discover.Ida_tt ->
        let module E = Search.Ida_tt.Make (Sp) in
        E.search ~budget ~heuristic:estimate root
    | Discover.Rbfs ->
        let module E = Search.Rbfs.Make (Sp) in
        E.search ~budget ~heuristic:estimate root
    | Discover.Astar ->
        let module E = Search.Astar.Make (Sp) in
        E.search ~budget ~heuristic:estimate root
    | Discover.Greedy ->
        let module E = Search.Greedy.Make (Sp) in
        E.search ~budget ~heuristic:estimate root
    | Discover.Beam width ->
        let module E = Search.Beam.Make (Sp) in
        E.search ~budget ~width ~heuristic:estimate root
    | Discover.Bfs ->
        let module E = Search.Bfs.Make (Sp) in
        E.search ~budget root
    | Discover.Portfolio -> invalid_arg "Traced.discover: portfolio"
  in
  l.wall_ns <- l.wall_ns +. since t_start;
  of_stats r.Search.Space.stats
    (match r.Search.Space.outcome with
    | Search.Space.Found { path; _ } -> Some path
    | _ -> None)

(* The search-layer metrics shared by discover-mix and the miss path of
   serve-open. [heuristics] names every heuristic the workload can use,
   so each traced run prints the same metric set. *)
let report l ~heuristics =
  let ms ns = ns /. 1e6 in
  let open Common in
  metric "tupelo.setup_ms" "ms" (ms l.setup_ns);
  metric "moves.icandidates_ms" "ms" (ms l.icand_ns);
  metric "moves.proposed" "count" (float_of_int l.proposed);
  metric "fira.apply_ms" "ms" (ms l.apply_ns);
  metric "fira.apply_calls" "count" (float_of_int l.apply_calls);
  metric "fira.apply_errors" "count" (float_of_int l.apply_errors);
  metric "state.build_ms" "ms" (ms l.build_ns);
  metric "dedup_ms" "ms" (ms l.dedup_ns);
  metric "dedup.dropped" "count" (float_of_int l.dedup_dropped);
  metric "prune.cells" "count" (float_of_int l.prune_cells);
  metric "successor.useful_ratio" "ratio"
    (ratio (float_of_int l.kept) (float_of_int l.proposed));
  metric "goal_ms" "ms" (ms l.goal_ns);
  metric "goal_calls" "count" (float_of_int l.goal_calls);
  List.iter
    (fun h ->
      metric ("heuristics.eval_ms." ^ h) "ms"
        (match Hashtbl.find_opt l.heuristic_ns h with
        | Some r -> ms !r
        | None -> 0.))
    heuristics;
  metric "heuristics.eval_calls" "count" (float_of_int l.heuristic_calls);
  metric "heuristics.memo_hit_ratio" "ratio"
    (ratio
       (float_of_int (l.heuristic_calls - l.heuristic_evals))
       (float_of_int l.heuristic_calls));
  metric "search.self_ms" "ms" (ms (self_ns l))
