(* Wall-clock micro-benchmarks (Bechamel). The paper reports a
   machine-independent metric; these complement it with timings of the
   substrate operations and of representative end-to-end discoveries on
   this machine. One Test.make per measured operation. *)

open Bechamel
open Toolkit

let discover_time ?registry ~algorithm ~heuristic ~source ~target () =
  let config =
    Tupelo.Discover.config ~algorithm ~heuristic ~budget:500_000 ()
  in
  ignore (Tupelo.Discover.discover ?registry config ~source ~target)

let tests () =
  let b = Workloads.Flights.b and a = Workloads.Flights.a in
  let c = Workloads.Flights.c in
  let prices = Relational.Database.find b "Prices" in
  let profile_b = Heuristics.Profile.of_database b in
  let profile_a = Heuristics.Profile.of_database a in
  let info_a = Tupelo.Moves.target_info a in
  let moves_config = Tupelo.Moves.default Tupelo.Goal.Superset in
  let synthetic8 = Workloads.Synthetic.matching_pair 8 in
  let inventory3 = Workloads.Inventory.task 3 in
  let inventory4 = Workloads.Inventory.task 4 in
  let inventory4_str db = Heuristics.Profile.(str (of_database db)) in
  let inventory4_source = inventory4_str inventory4.Workloads.Inventory.source in
  let inventory4_target = inventory4_str inventory4.Workloads.Inventory.target in
  [
    Test.make ~name:"relation: promote Route/Cost"
      (Staged.stage (fun () ->
           Relational.Relation.promote prices ~name_col:"Route"
             ~value_col:"Cost"));
    Test.make ~name:"relation: merge on Carrier"
      (Staged.stage (fun () -> Relational.Relation.merge prices "Carrier"));
    Test.make ~name:"tnf: encode FlightsC"
      (Staged.stage (fun () -> Tnf.encode c));
    Test.make ~name:"tnf: decode∘encode FlightsC"
      (Staged.stage (fun () -> Tnf.decode (Tnf.encode c)));
    Test.make ~name:"heuristics: profile of FlightsB"
      (Staged.stage (fun () -> Heuristics.Profile.of_database b));
    Test.make ~name:"heuristics: levenshtein on string(d)"
      (Staged.stage (fun () ->
           Heuristics.Text.levenshtein
             (Heuristics.Profile.str profile_b)
             (Heuristics.Profile.str profile_a)));
    Test.make ~name:"heuristics: levenshtein on string(d) (E3 inventory k=4)"
      (Staged.stage (fun () ->
           Heuristics.Text.levenshtein inventory4_source inventory4_target));
    Test.make ~name:"heuristics: cosine distance"
      (Staged.stage (fun () ->
           Heuristics.Vector.cosine_distance
             (Heuristics.Profile.vector profile_b)
             (Heuristics.Profile.vector profile_a)));
    Test.make ~name:"moves: successors of FlightsB (target A)"
      (Staged.stage (fun () ->
           Tupelo.Moves.successors moves_config Workloads.Flights.registry
             info_a
             (Tupelo.State.of_database b)));
    Test.make ~name:"sql: join query on catalog"
      (Staged.stage (fun () ->
           Relational.Sql.query b
             "SELECT c.ATT FROM __columns c, __tables t WHERE c.REL = t.REL"));
    Test.make ~name:"discover: flights B->A (IDA/h1)"
      (Staged.stage (fun () ->
           discover_time ~registry:Workloads.Flights.registry
             ~algorithm:Tupelo.Discover.Ida ~heuristic:Heuristics.Heuristic.h1
             ~source:b ~target:a ()));
    Test.make ~name:"discover: synthetic n=8 (RBFS/cosine)"
      (Staged.stage (fun () ->
           let source, target = synthetic8 in
           discover_time ~algorithm:Tupelo.Discover.Rbfs
             ~heuristic:
               (Heuristics.Heuristic.cosine
                  ~k:Heuristics.Heuristic.Scaling.rbfs.k_cosine)
             ~source ~target ()));
    Test.make ~name:"discover: inventory k=3 (IDA/h1)"
      (Staged.stage (fun () ->
           discover_time ~registry:inventory3.Workloads.Inventory.registry
             ~algorithm:Tupelo.Discover.Ida ~heuristic:Heuristics.Heuristic.h1
             ~source:inventory3.Workloads.Inventory.source
             ~target:inventory3.Workloads.Inventory.target ()));
  ]

let run () =
  Report.section "Micro-benchmarks (Bechamel, wall clock)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let grouped = Test.make_grouped ~name:"tupelo" (tests ()) in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  (* Print nanoseconds per run for the monotonic clock. *)
  Hashtbl.iter
    (fun measure per_test ->
      if measure = Measure.label Instance.monotonic_clock then begin
        let rows = ref [] in
        Hashtbl.iter
          (fun name ols_result ->
            let est =
              match Analyze.OLS.estimates ols_result with
              | Some (t :: _) -> t
              | _ -> nan
            in
            rows := (name, est) :: !rows)
          per_test;
        let rows =
          List.sort (fun (_, a) (_, b) -> compare a b) !rows
          |> List.map (fun (name, ns) ->
                 [ name;
                   (if Float.is_nan ns then "n/a"
                    else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
                    else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
                    else Printf.sprintf "%.0f ns" ns) ])
        in
        Report.print_table ~title:"time per operation"
          ~header:[ "operation"; "time/run" ] rows
      end)
    merged
