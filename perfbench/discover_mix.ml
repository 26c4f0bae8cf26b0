(* discover-mix: a closed loop, one client, jobs = 1, of discovery queries
   drawn from the paper's four scenarios through [Tupelo.Discover.discover].

   - E1: synthetic schema matching ([Workloads.Synthetic]);
   - E2: BAMM deep-web pairs ([Workloads.Bamm]);
   - E3: Inventory and Real Estate II with k semantic functions;
   - E4: the flights directions of Fig. 1.

   Engines are the paper's IDA* and RBFS with its informed heuristics
   (h1, h3, euclid-norm, cosine, levenshtein), plus A*/h1, greedy/h1 and
   beam8/cosine. Every query has a budget cap, and every configuration in
   the pools below finds its mapping well inside it.

   The stream is a sequence of batches. Each batch holds every template
   of the two tail pools once -- queries whose time goes to the
   Levenshtein heuristic, and queries that examine thousands of states
   under a cheap heuristic -- plus [light] cheap queries drawn from the
   seed out of the whole parameter space, in an order shuffled from the
   seed. The tails keep every query under about 300 ms on a 2-core host,
   so each batch holds a dozen tail queries of each kind and no single
   query sets the total; holding the tails fixed keeps the percentiles
   steady from seed to seed. The timed window runs whole batches, at
   least [rss_batches] of them. *)

open Tupelo
open Relational

type kind = Light | Heuristic_bound | Successor_bound

let kind_name = function
  | Light -> "light"
  | Heuristic_bound -> "heuristic-bound"
  | Successor_bound -> "successor-bound"

type query = {
  label : string;
  kind : kind;
  registry : Fira.Semfun.registry;
  source : Database.t;
  target : Database.t;
  config : Discover.config;
}

let budget_cap = 50_000
let light = 12

(* Every heuristic and engine the mix can draw, for the per-layer names. *)
let heuristics = [ "h1"; "h3"; "euclid-norm"; "cosine"; "levenshtein" ]
let engines = [ "ida"; "rbfs"; "astar"; "greedy"; "beam8" ]

let engine_name = function
  | Discover.Ida -> "ida"
  | Discover.Rbfs -> "rbfs"
  | Discover.Astar -> "astar"
  | Discover.Greedy -> "greedy"
  | Discover.Beam 8 -> "beam8"
  | a -> invalid_arg ("discover-mix: engine " ^ Discover.algorithm_name a)

(* --- the scenario inputs, built once in set-up --- *)

type inputs = {
  synthetic : (Database.t * Database.t) array;  (** index n - 1, n = 1..32 *)
  bamm : (string * (Database.t * Database.t) array) array;
  inventory : Workloads.Inventory.task array;  (** index k - 1 *)
  real_estate : Workloads.Real_estate.task array;  (** index k - 1 *)
  flights : (string * (Database.t * Database.t)) list;
}

let setup () =
  {
    synthetic = Array.init 32 (fun i -> Workloads.Synthetic.matching_pair (i + 1));
    bamm =
      Array.of_list
        (List.map
           (fun d ->
             (Workloads.Bamm.domain_name d, Array.of_list (Workloads.Bamm.pairs d)))
           Workloads.Bamm.all_domains);
    inventory =
      Array.init Workloads.Inventory.max_functions (fun i ->
          Workloads.Inventory.task (i + 1));
    real_estate =
      Array.init Workloads.Real_estate.max_functions (fun i ->
          Workloads.Real_estate.task (i + 1));
    flights = List.map (fun (l, s, t) -> (l, (s, t))) Workloads.Flights.pairs;
  }

let query ~kind ~label ?(registry = Fira.Semfun.empty_registry) algorithm hname
    (source, target) =
  let heuristic =
    match Heuristics.Heuristic.by_name (Discover.scaling_for algorithm) hname with
    | Some h -> h
    | None -> invalid_arg ("discover-mix: heuristic " ^ hname)
  in
  {
    label =
      Printf.sprintf "%s %s/%s" label (Discover.algorithm_name algorithm) hname;
    kind;
    registry;
    source;
    target;
    config = Discover.config ~algorithm ~heuristic ~budget:budget_cap ();
  }

let e1 inp n = (Printf.sprintf "E1 n=%d" n, inp.synthetic.(n - 1))

let e2 inp domain i =
  (Printf.sprintf "E2 %s #%d" domain i, (List.assoc domain (Array.to_list inp.bamm)).(i))

let inv inp k =
  let t = inp.inventory.(k - 1) in
  ( Printf.sprintf "E3 inventory k=%d" k,
    t.Workloads.Inventory.registry,
    (t.Workloads.Inventory.source, t.Workloads.Inventory.target) )

let re inp k =
  let t = inp.real_estate.(k - 1) in
  ( Printf.sprintf "E3 real-estate k=%d" k,
    t.Workloads.Real_estate.registry,
    (t.Workloads.Real_estate.source, t.Workloads.Real_estate.target) )

let flights inp dir =
  (Printf.sprintf "E4 %s" dir, List.assoc dir inp.flights)

let fr = Workloads.Flights.registry

(* Tail pools: fixed (instance, engine, heuristic) templates. *)
let heuristic_bound_pool inp =
  let q ?registry (label, pair) alg = query ~kind:Heuristic_bound ~label ?registry alg "levenshtein" pair in
  let e3 (label, registry, pair) alg = q ~registry (label, pair) alg in
  [|
    q (e1 inp 8) Discover.Ida;
    q (e1 inp 8) Discover.Rbfs;
    e3 (inv inp 3) Discover.Ida;
    e3 (inv inp 4) Discover.Ida;
    e3 (inv inp 3) Discover.Rbfs;
    e3 (inv inp 4) Discover.Rbfs;
    e3 (re inp 3) Discover.Ida;
    e3 (re inp 3) Discover.Rbfs;
    q ~registry:fr (flights inp "B->A") Discover.Ida;
    q ~registry:fr (flights inp "B->A") Discover.Rbfs;
    q ~registry:fr (flights inp "B->C") Discover.Ida;
    q ~registry:fr (flights inp "B->C") Discover.Rbfs;
  |]

let successor_bound_pool inp =
  let q ?registry (label, pair) alg h = query ~kind:Successor_bound ~label ?registry alg h pair in
  let e3 (label, registry, pair) alg h = q ~registry (label, pair) alg h in
  [|
    q (e1 inp 7) Discover.Ida "cosine";
    q (e1 inp 8) Discover.Ida "cosine";
    q (e1 inp 9) Discover.Ida "euclid-norm";
    q (e1 inp 11) Discover.Astar "h1";
    q (e1 inp 12) Discover.Astar "h1";
    q (e1 inp 13) Discover.Astar "h1";
    q (e2 inp "Books" 1) Discover.Ida "cosine";
    q (e2 inp "Automobiles" 31) Discover.Ida "cosine";
    e3 (inv inp 6) Discover.Ida "cosine";
    e3 (re inp 6) Discover.Ida "cosine";
    e3 (re inp 6) Discover.Ida "euclid-norm";
    q ~registry:fr (flights inp "A->B") Discover.Ida "h3";
    q ~registry:fr (flights inp "A->B") Discover.Rbfs "h3";
    q ~registry:fr (flights inp "A->B") Discover.Rbfs "euclid-norm";
    q ~registry:fr (flights inp "B->A") Discover.Ida "h1";
    q ~registry:fr (flights inp "B->A") Discover.Ida "h3";
    q ~registry:fr (flights inp "B->A") Discover.Rbfs "h1";
  |]

(* The light space: every (instance, engine, heuristic) below finds its
   mapping in under about 30 ms. [light_space] enumerates it for the
   pool check; [draw_light] samples it. *)
let paper_engines = [ Discover.Ida; Discover.Rbfs ]
let set_based = [ "h1"; "h3" ]

let light_configs = function
  | `E1_small -> List.concat_map (fun a -> List.map (fun h -> (a, h)) [ "euclid-norm"; "cosine"; "levenshtein" ]) paper_engines
  | `E1 -> List.concat_map (fun a -> List.map (fun h -> (a, h)) set_based) paper_engines
           @ [ (Discover.Greedy, "h1") ]
  | `E1_beam -> [ (Discover.Beam 8, "cosine") ]
  | `E1_astar -> [ (Discover.Astar, "h1") ]
  | `E2 ->
      List.concat_map (fun a -> List.map (fun h -> (a, h)) [ "h1"; "h3"; "euclid-norm" ]) paper_engines
      @ [ (Discover.Rbfs, "cosine"); (Discover.Astar, "h1"); (Discover.Greedy, "h1"); (Discover.Beam 8, "cosine") ]
  | `E3_inventory ->
      List.concat_map (fun a -> List.map (fun h -> (a, h)) set_based) paper_engines
      @ [ (Discover.Astar, "h1"); (Discover.Greedy, "h1"); (Discover.Beam 8, "cosine") ]
  | `E3_real_estate ->
      List.concat_map (fun a -> List.map (fun h -> (a, h)) set_based) paper_engines
      @ [ (Discover.Rbfs, "euclid-norm") ]

let flights_light =
  [
    ("B->A", [ (Discover.Ida, "euclid-norm"); (Discover.Ida, "cosine"); (Discover.Rbfs, "euclid-norm"); (Discover.Rbfs, "cosine"); (Discover.Astar, "h1"); (Discover.Greedy, "h1"); (Discover.Beam 8, "cosine") ]);
    ("A->B", [ (Discover.Ida, "h1"); (Discover.Ida, "euclid-norm"); (Discover.Ida, "cosine"); (Discover.Astar, "h1"); (Discover.Greedy, "h1") ]);
    ( "B->C",
      List.concat_map (fun a -> List.map (fun h -> (a, h)) [ "h1"; "h3"; "euclid-norm"; "cosine" ]) paper_engines
      @ [ (Discover.Astar, "h1"); (Discover.Greedy, "h1"); (Discover.Beam 8, "cosine") ] );
  ]

(* Light instances per scenario, as (label, registry, pair, configs). *)
let light_instances inp scenario =
  let none = Fira.Semfun.empty_registry in
  match scenario with
  | 0 ->
      List.init 32 (fun i ->
          let n = i + 1 in
          let label, pair = e1 inp n in
          (label, none, pair,
           (if n >= 2 then light_configs `E1 else [])
           @ (if n <= 6 then light_configs `E1_small else [])
           @ (if n >= 2 && n <= 24 then light_configs `E1_beam else [])
           @ if n >= 2 && n <= 8 then light_configs `E1_astar else []))
  | 1 ->
      List.concat_map
        (fun (d, pairs) ->
          List.mapi
            (fun i pair -> (Printf.sprintf "E2 %s #%d" d i, none, pair, light_configs `E2))
            (Array.to_list pairs))
        (Array.to_list inp.bamm)
  | 2 ->
      List.init 8 (fun i ->
          let label, registry, pair = inv inp (i + 1) in
          (label, registry, pair, light_configs `E3_inventory))
      @ List.init 12 (fun i ->
            let label, registry, pair = re inp (i + 1) in
            (label, registry, pair, light_configs `E3_real_estate))
  | _ ->
      List.map
        (fun (dir, configs) ->
          let label, pair = flights inp dir in
          (label, fr, pair, configs))
        flights_light

let scenarios = 4

let light_space inp =
  List.concat_map
    (fun s ->
      List.concat_map
        (fun (label, registry, pair, configs) ->
          List.map (fun (a, h) -> query ~kind:Light ~label ~registry a h pair) configs)
        (light_instances inp s))
    (List.init scenarios Fun.id)

(* Light draws: a scenario uniformly, then an instance, then a config. *)
let draw_light inp =
  let per_scenario =
    Array.init scenarios (fun s ->
        Array.of_list
          (List.filter (fun (_, _, _, c) -> c <> []) (light_instances inp s)))
  in
  fun rng ->
    let inst = per_scenario.(Workloads.Prng.int rng scenarios) in
    let label, registry, pair, configs = inst.(Workloads.Prng.int rng (Array.length inst)) in
    let a, h = Workloads.Prng.pick rng configs in
    query ~kind:Light ~label ~registry a h pair

(* An endless seeded stream of shuffled batches. *)
let stream inp ~seed =
  let rng = Workloads.Prng.create seed in
  let tails = Array.to_list (heuristic_bound_pool inp) @ Array.to_list (successor_bound_pool inp) in
  let light_draw = draw_light inp in
  fun () -> Workloads.Prng.shuffle rng (tails @ List.init light (fun _ -> light_draw rng))

(* --- running and checking --- *)

(* [ms] is the query's wall time, [cpu_ms] the CPU time the process
   spent on it (one domain, so the query's and its GC's). *)
type sample = { q : query; ms : float; cpu_ms : float; outcome : Discover.outcome }

let discover q =
  Discover.discover ~registry:q.registry q.config ~source:q.source ~target:q.target

let timed q =
  let c0 = Common.cpu_now_s () in
  let t0 = Common.now_s () in
  let outcome = discover q in
  let t1 = Common.now_s () in
  let c1 = Common.cpu_now_s () in
  { q; ms = Common.ms_between t0 t1; cpu_ms = Common.ms_between c0 c1; outcome }

(* The specification check: the mapping replays through the boxed
   reference evaluator ([Fira.Eval.apply], via [Fira.Expr.eval]) to a
   database the goal test accepts against the target. *)
let check_sample verified s =
  Common.attempt ();
  match s.outcome with
  | Discover.Mapping m -> (
      let key = s.q.label ^ "\n" ^ Fira.Expr.to_string m.Mapping.expr in
      match Hashtbl.find_opt verified key with
      | Some ok -> if not ok then Common.fail_check "%s: mapping does not reach the target" s.q.label
      | None ->
          let ok =
            match Fira.Expr.eval s.q.registry m.Mapping.expr s.q.source with
            | db -> Goal.reached s.q.config.Discover.goal ~target:s.q.target db
            | exception e ->
                prerr_endline (s.q.label ^ ": replay raised " ^ Printexc.to_string e);
                false
          in
          Hashtbl.replace verified key ok;
          if not ok then Common.fail_check "%s: mapping does not reach the target" s.q.label)
  | Discover.No_mapping _ -> Common.fail_check "%s: no mapping" s.q.label
  | Discover.Gave_up _ -> Common.fail_check "%s: gave up at the budget cap" s.q.label

(* Peak RSS is read after this many batches. The heuristic memo table
   of every finished query stays live (each [Discover.discover] takes a
   fresh [Domain.DLS] key, and keys are never released), so the heap
   grows with the queries run: read at the end of the window, the peak
   would count the batches the host managed rather than the program's
   memory for a fixed amount of work. The heap grows in steps of a few
   MiB whose timing shifts with the seed's light draws, so the reading
   is taken late enough that one step is a small share of it. *)
let rss_batches = 8

(* Whole batches, until [seconds] have passed and at least [rss_batches]
   have run. Returns the batches in order, each with the peak RSS after
   it. *)
let window next ~seconds =
  let deadline = Common.now_s () +. seconds in
  let rec go acc =
    if Common.now_s () >= deadline && List.length acc >= rss_batches then List.rev acc
    else
      let batch = List.map timed (next ()) in
      go ((batch, Common.peak_rss_mb "self") :: acc)
  in
  go []

(* The gated figures are CPU time over the whole window: queries per CPU
   second and the percentiles of each query's CPU milliseconds. CPU time
   leaves out the time a shared host gave our vCPU to another guest,
   which the wall clock keeps; the wall-clock figures are printed beside
   them under the workload's own names. *)
let report_window batches ~wall_s =
  let samples = List.concat_map fst batches in
  let wall = Array.of_list (List.map (fun s -> s.ms) samples) in
  let cpu = Array.of_list (List.map (fun s -> s.cpu_ms) samples) in
  let s = Common.sorted_copy cpu in
  Common.metric "throughput_per_s" "1/s"
    (float_of_int (Array.length cpu) /. (Common.sum cpu /. 1000.));
  Common.metric "p50_ms" "ms" (Common.percentile s 0.5);
  Common.metric "p90_ms" "ms" (Common.percentile s 0.9);
  Common.latency_summary "discover_cpu" cpu;
  Common.info "discover_qps" "queries/s" (float_of_int (Array.length wall) /. wall_s);
  Common.latency_summary "discover" wall;
  Common.note "%d batches; CPU ms and peak RSS MiB after each: %s" (List.length batches)
    (String.concat ", "
       (List.map
          (fun (b, rss) ->
            Printf.sprintf "%.0f/%.1f" (List.fold_left (fun a s -> a +. s.cpu_ms) 0. b) rss)
          batches));
  List.iter
    (fun k ->
      let xs = List.filter_map (fun s -> if s.q.kind = k then Some s.ms else None) samples in
      if xs <> [] then
        Common.note "%s: %d queries, median %.3f ms, total %.1f ms" (kind_name k)
          (List.length xs) (Common.median xs) (List.fold_left ( +. ) 0. xs))
    [ Light; Heuristic_bound; Successor_bound ];
  Common.metric "peak_rss_mb" "MiB" (snd (List.nth batches (rss_batches - 1)));
  samples

(* The traced run replays a fixed prefix of the stream, the same work for
   a given seed on any host, so its counts can be compared exactly across
   commits. Each query runs untraced and traced, alternating which goes
   first so neither always meets a colder heap; the difference is the
   tracing overhead. *)
let traced_batches = 2

let traced_pass next =
  let l = Traced.layers () in
  let strings0, values0 = Intern.size () in
  let t_loop = Common.now_s () in
  let traced_ms = ref 0. in
  let queries = List.concat (List.init traced_batches (fun _ -> next ())) in
  let pairs =
    List.mapi
      (fun i q ->
        let traced () =
          let t0 = Common.now_s () in
          let r = Traced.discover l ~registry:q.registry q.config ~source:q.source ~target:q.target in
          traced_ms := !traced_ms +. Common.ms_between t0 (Common.now_s ());
          r
        in
        let s, r =
          if i mod 2 = 0 then
            let s = timed q in
            (s, traced ())
          else
            let r = traced () in
            (timed q, r)
        in
        Common.attempt ();
        if not (Traced.same (Traced.of_outcome s.outcome) r) then
          Common.fail_check "%s: traced search differs from Discover.discover" s.q.label;
        (s, r))
      queries
  in
  let loop_ms = Common.ms_between t_loop (Common.now_s ()) in
  let strings1, values1 = Intern.size () in
  let untraced = List.map fst pairs and traced = List.map snd pairs in
  let untraced_ms = List.fold_left (fun a s -> a +. s.ms) 0. untraced in
  let spans_ms = l.Traced.wall_ns /. 1e6 in
  (* Spans plus self time equal the per-query walls by construction; what
     must hold is that no span overlaps another (self >= 0) and that the
     per-query walls account for the traced calls' wall within 2 %. *)
  Common.note "traced pass: %d queries, untraced %.1f ms + traced %.1f ms of a %.1f ms loop"
    (List.length queries) untraced_ms !traced_ms loop_ms;
  if Traced.self_ns l < 0. then
    Common.fail_check "discover-mix: spans overlap (negative self time)";
  if Float.abs (!traced_ms -. spans_ms) > 0.02 *. !traced_ms then
    Common.fail_check "discover-mix: layer spans sum to %.1f ms of a %.1f ms traced wall (tolerance 2%%)"
      spans_ms !traced_ms;
  Traced.report l ~heuristics;
  let count f = float_of_int (List.fold_left (fun a r -> a + f r) 0 traced) in
  Common.metric "search.examined" "count" (count (fun r -> r.Traced.examined));
  Common.metric "search.generated" "count" (count (fun r -> r.Traced.generated));
  Common.metric "search.expanded" "count" (count (fun r -> r.Traced.expanded));
  List.iter
    (fun e ->
      let mine = List.filter (fun s -> engine_name s.q.config.Discover.algorithm = e) untraced in
      let states = List.fold_left (fun a s -> a + Discover.states_examined s.outcome) 0 mine in
      let ms = List.fold_left (fun a s -> a +. s.ms) 0. mine in
      Common.metric ("search.states_per_s." ^ e) "1/s"
        (Common.ratio (float_of_int states) (ms /. 1000.)))
    engines;
  Common.metric "relational.intern.strings" "count" (float_of_int (strings1 - strings0));
  Common.metric "relational.intern.values" "count" (float_of_int (values1 - values0));
  Common.note "tracing overhead: traced %.1f ms vs untraced %.1f ms over the same queries"
    !traced_ms untraced_ms;
  Common.metric "trace.overhead_pct" "%"
    (100. *. Common.ratio (!traced_ms -. untraced_ms) untraced_ms);
  untraced

let run ~seed ~seconds ~trace =
  Common.section "discover-mix: closed loop, 1 client, jobs = 1";
  let inp = setup () in
  Common.note "budget cap %d states; batch = %d heuristic-bound + %d successor-bound templates + %d light draws"
    budget_cap (Array.length (heuristic_bound_pool inp)) (Array.length (successor_bound_pool inp)) light;
  let next = stream inp ~seed in
  print_endline "READY";
  let samples =
    if trace then traced_pass next
    else begin
      let t0 = Common.now_s () in
      let batches = window next ~seconds in
      report_window batches ~wall_s:(Common.now_s () -. t0)
    end
  in
  let verified = Hashtbl.create 64 in
  List.iter (check_sample verified) samples

(* Run every template once and report failures and the slowest ones:
   the check that the pools above stay inside their time classes. *)
let pool_check () =
  let inp = setup () in
  let all =
    Array.to_list (heuristic_bound_pool inp)
    @ Array.to_list (successor_bound_pool inp)
    @ light_space inp
  in
  let verified = Hashtbl.create 64 in
  let results = List.map timed all in
  List.iter (check_sample verified) results;
  List.iter
    (fun k ->
      let mine = List.filter (fun s -> s.q.kind = k) results in
      let worst = List.fold_left (fun a s -> if s.ms > a.ms then s else a) (List.hd mine) mine in
      Printf.printf "%-16s %5d templates, median %8.2f ms, worst %8.2f ms (%s)\n"
        (kind_name k) (List.length mine)
        (Common.median (List.map (fun s -> s.ms) mine))
        worst.ms worst.q.label)
    [ Light; Heuristic_bound; Successor_bound ];
  List.iter
    (fun s -> if s.q.kind <> Light || s.ms > 30. then Printf.printf "  %8.2f ms %6d states  %s\n" s.ms (Discover.states_examined s.outcome) s.q.label)
    results
