(* The benchmark executable. run.py builds it and drives it:

     bench.exe run --workload W --seed N --seconds S --trace 0|1 [options]
     bench.exe setup --workload W --seed N [options]
     bench.exe gen --workload migrate-csv --seed N --work DIR
     bench.exe pool-check

   [run] prints host facts, the report and, last, a RESULT line with the
   JSON object run.py passes on. [setup] does a run's set-up and exits
   (run.py times it several times for setup_s). [gen] writes the seeded
   CSV inputs of migrate-csv. [pool-check] runs every discover-mix
   template once. Options: --work DIR (scratch files), --cli PATH (the
   tupelo executable serve-open starts), --nproc N, --commit ID,
   --metrics FILE (the metric names and units the RESULT line carries,
   one "name unit" per line). *)

let usage () =
  prerr_endline
    "usage: bench.exe (run|setup|gen|pool-check) --workload W --seed N \
     [--seconds S] [--trace 0|1] [--work DIR] [--cli PATH] [--nproc N] \
     [--commit ID] [--metrics FILE]";
  exit 2

let () =
  let args = Array.to_list Sys.argv in
  let mode, opts = match args with _ :: m :: rest -> (m, rest) | _ -> usage () in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] opts in
  let get k = List.assoc_opt k opts in
  let get_int k d = match get k with Some v -> int_of_string v | None -> d in
  let workload = Option.value (get "workload") ~default:"" in
  let seed = get_int "seed" 1 in
  let seconds = float_of_int (get_int "seconds" 10) in
  let trace = get_int "trace" 0 = 1 in
  let work = Option.value (get "work") ~default:"." in
  let nproc = get_int "nproc" (Common.host_domains ()) in
  if Common.fp_verify_on () then begin
    prerr_endline
      "TUPELO_FP_VERIFY is on: paranoid mode re-runs every successor through \
       the boxed evaluator; unset it to benchmark";
    exit 2
  end;
  let metric_names () =
    match get "metrics" with
    | None -> usage ()
    | Some path ->
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter_map (fun line ->
               match String.split_on_char ' ' (String.trim line) with
               | [ name; unit ] -> Some (name, unit)
               | _ -> None)
  in
  let cli () = match get "cli" with Some c -> c | None -> usage () in
  let host () =
    Printf.printf
      "host: nproc=%d domains=%d ocaml=%s commit=%s workload=%s seed=%d \
       TUPELO_FP_VERIFY=%s\n%!"
      nproc (Common.host_domains ()) Sys.ocaml_version
      (Option.value (get "commit") ~default:"n/a")
      workload seed (Common.fp_verify_setting ())
  in
  match (mode, workload) with
  | "pool-check", _ -> Discover_mix.pool_check ()
  | "run", "discover-mix" ->
      let names = metric_names () in
      host ();
      Discover_mix.run ~seed ~seconds ~trace;
      Common.print_result names
  | "setup", "discover-mix" ->
      let (_next : unit -> Discover_mix.query list) =
        Discover_mix.stream (Discover_mix.setup ()) ~seed
      in
      print_endline "READY"
  | "run", "serve-open" ->
      let names = metric_names () in
      host ();
      Serve_open.run ~cli:(cli ()) ~work ~nproc ~seed ~seconds ~trace;
      Common.print_result names
  | "setup", "serve-open" ->
      ignore (Serve_open.setup ~cli:(cli ()) ~work ~nproc ~seed);
      print_endline "READY";
      Serve_open.stop_daemon ()
  | "run", "migrate-csv" ->
      let names = metric_names () in
      host ();
      Migrate_csv.run ~work ~seconds ~trace;
      Common.print_result names
  | "setup", "migrate-csv" ->
      ignore (Migrate_csv.setup ~work);
      print_endline "READY"
  | "gen", "migrate-csv" -> Migrate_csv.gen ~work ~seed
  | _ -> usage ()
