(* E5: telemetry metrics folded into the report path.

   Runs the Fig. 1 flights discoveries under the three engines that
   re-expand states (IDA*, IDA*+TT, RBFS) with an in-memory aggregating
   sink and prints the aggregate through the standard report table, so
   --csv DIR exports it alongside every other table. The table doubles as
   a living sample of the event taxonomy: search counters reconciling
   with the states-examined numbers, heuristic timers, memo hit rates,
   expansion-cache hits and per-operator proposal counts. *)

let engines = Tupelo.Discover.[ Ida; Ida_tt; Rbfs ]

let run () =
  Report.section "E5: telemetry metrics (Fig. 1 flights discoveries)";
  let agg = Telemetry.Agg.create () in
  let telemetry = Telemetry.create (Telemetry.Agg.sink agg) in
  let total_examined = ref 0 in
  List.iter
    (fun algorithm ->
      List.iter
        (fun (name, source, target) ->
          let config =
            Tupelo.Discover.config ~algorithm
              ~heuristic:Heuristics.Heuristic.h1 ~budget:500_000 ~telemetry ()
          in
          let outcome =
            Tupelo.Discover.discover ~registry:Workloads.Flights.registry
              config ~source ~target
          in
          let examined = Tupelo.Discover.states_examined outcome in
          total_examined := !total_examined + examined;
          Printf.printf "%-6s %-8s %d states examined\n"
            (Tupelo.Discover.algorithm_name algorithm)
            name examined)
        Workloads.Flights.pairs)
    engines;
  let rows =
    List.map
      (fun (scope, metric, value) ->
        [ (if scope = "" then "-" else scope); metric; value ])
      (Telemetry.Agg.rows agg)
  in
  Report.print_table ~title:"Aggregated telemetry"
    ~header:[ "scope"; "metric"; "value" ]
    rows;
  (* Discover scopes each run's search events by engine name. *)
  List.iter
    (fun algorithm ->
      let scope = Tupelo.Discover.algorithm_name algorithm in
      let cached = Telemetry.Agg.counter agg ~scope "search.expand.cached" in
      let expanded = Telemetry.Agg.counter agg ~scope "search.expand" in
      Printf.printf
        "%-6s expansion-cache hit ratio %.3f (%d of %d expansions cached)\n"
        scope
        (if expanded = 0 then 0. else float_of_int cached /. float_of_int expanded)
        cached expanded)
    engines;
  (* The reconciliation the telemetry contract promises: summed
     search.examine counters equal the discoveries' reported stats. *)
  let traced = Telemetry.Agg.counter agg "search.examine" in
  Printf.printf "search.examine total %d; reported stats total %d%s\n" traced
    !total_examined
    (if traced = !total_examined then " (reconciled)" else " (MISMATCH)")
