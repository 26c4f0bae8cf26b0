(* migrate-csv: in process, jobs = host domains, the path `tupelo migrate`
   takes: [Migrate.ingest_channel] -> [Migrate.run] -> [Migrate.Cdb.to_idb]
   -> [Migrate.emit_channel], from CSV files to CSV files.

   The seeded inputs are written untimed by [gen] (run.py calls it before
   set-up). One job migrates one shape's file; the timed window cycles
   through the three E7 shapes:

   - wide: 16 attributes; promote, two drops, a rename and a merge on the
     unique id;
   - partition: a partition on a 64-name group column;
   - merge: a merge on a key whose 2-row groups carry complementary
     nulls, so the merge folds every pair.

   Every job's result must equal the first job's of its shape, and after
   the window the CSV each shape's last job emitted, parsed back, must be
   [Idb.canonical_equal] to the boxed reference evaluator ([Fira.Eval],
   via [Fira.Expr.eval]) on the same input. *)

open Relational

let rows = 20_000
let chunk_rows = 4096

type shape = { name : string; program : string }

let shapes =
  [
    { name = "wide"; program = "promote[tag/v0](R)\ndrop[tag](R)\ndrop[v1](R)\nrename_att[v2->metric](R)\nmerge[id](R)" };
    { name = "partition"; program = "partition[g](R)" };
    { name = "merge"; program = "merge[key](R)" };
  ]

let kinds = [ "promote"; "drop"; "rename_att"; "merge"; "partition" ]

let expr_of shape =
  match Fira.Parser.expr_of_string shape.program with
  | Ok e -> e
  | Error m -> failwith ("migrate-csv: " ^ m)

let input ~work shape = Filename.concat work (shape.name ^ ".csv")
let outdir ~work shape = Filename.concat work (shape.name ^ ".out")

(* --- seeded inputs --- *)

let gen ~work ~seed =
  let rng = Workloads.Prng.create seed in
  let payload () = string_of_int (Workloads.Prng.int rng 1024) in
  let write shape header cell =
    let buf = Buffer.create (1 lsl 16) in
    Out_channel.with_open_bin (input ~work shape) (fun oc ->
        Csv.add_row buf header;
        for i = 0 to rows - 1 do
          Csv.add_row buf (List.mapi (fun j _ -> cell i j) header);
          if Buffer.length buf > 1 lsl 15 then begin
            Buffer.output_buffer oc buf;
            Buffer.clear buf
          end
        done;
        Buffer.output_buffer oc buf)
  in
  let tags = Array.of_list (Workloads.Prng.shuffle rng (List.init 8 (Printf.sprintf "c%d"))) in
  let id_base = Workloads.Prng.int rng 1_000_000 in
  List.iter
    (fun shape ->
      match shape.name with
      | "wide" ->
          write shape ("id" :: "tag" :: List.init 14 (Printf.sprintf "v%d")) (fun i j ->
              if j = 0 then string_of_int (id_base + i) else if j = 1 then tags.(i mod 8) else payload ())
      | "partition" ->
          write shape ("id" :: "g" :: List.init 6 (Printf.sprintf "v%d")) (fun i j ->
              if j = 0 then string_of_int (id_base + i)
              else if j = 1 then Printf.sprintf "g%02d" (Workloads.Prng.int rng 64)
              else payload ())
      | _ ->
          write shape ("key" :: List.init 7 (Printf.sprintf "v%d")) (fun i j ->
              if j = 0 then string_of_int (id_base + (i / 2))
              else if j mod 2 = i mod 2 then ""
              else payload ()))
    shapes

(* --- one job --- *)

let config () = Migrate.config ~chunk_rows ~jobs:(Common.host_domains ()) ()

let ingest cfg ~work shape =
  In_channel.with_open_bin (input ~work shape) (fun ic ->
      Migrate.ingest_channel cfg Migrate.Cdb.empty ~name:"R" ic)

let emit cfg ~work shape idb =
  let dir = outdir ~work shape in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Idb.iter
    (fun name r ->
      Out_channel.with_open_bin
        (Filename.concat dir (Intern.string_of_id name ^ ".csv"))
        (fun oc -> Migrate.emit_channel cfg oc r))
    idb

type job = { shape : shape; ms : float; rows_in : int; idb : Idb.t }

let job cfg ~work shape expr =
  let t0 = Common.now_s () in
  let cdb = ingest cfg ~work shape in
  let out, stats = Migrate.run cfg expr cdb in
  let idb = Migrate.Cdb.to_idb out in
  emit cfg ~work shape idb;
  { shape; ms = Common.ms_between t0 (Common.now_s ()); rows_in = stats.Migrate.rows_in; idb }

(* --- checks --- *)

(* The emitted files, parsed back, against the boxed evaluator on the
   parsed input. *)
let check_emitted ~work shape (idb : Idb.t) =
  let dir = outdir ~work shape in
  let emitted =
    Idb.fold
      (fun name _ db ->
        let n = Intern.string_of_id name in
        let text = In_channel.with_open_bin (Filename.concat dir (n ^ ".csv")) In_channel.input_all in
        Database.add db n (Csv.parse_relation text))
      idb Database.empty
  in
  let source =
    Database.of_list
      [ ("R", Csv.parse_relation (In_channel.with_open_bin (input ~work shape) In_channel.input_all)) ]
  in
  let reference = Fira.Expr.eval Fira.Semfun.empty_registry (expr_of shape) source in
  Idb.canonical_equal (Idb.of_database emitted) (Idb.of_database reference)

(* --- the traced job: one [Migrate.run] per step --- *)

type steps = {
  mutable ingest_ms : float;
  op_ms : (string, float ref) Hashtbl.t;
  row_visits : (string, int ref) Hashtbl.t;
  mutable to_idb_ms : float;
  mutable emit_ms : float;
  mutable wall_ms : float;
}

let bump tbl k v zero add =
  match Hashtbl.find_opt tbl k with
  | Some r -> r := add !r v
  | None -> Hashtbl.replace tbl k (ref (add zero v))

let traced_job st cfg ~work shape expr =
  let t_start = Common.now_s () in
  let cdb = ingest cfg ~work shape in
  let t1 = Common.now_s () in
  st.ingest_ms <- st.ingest_ms +. Common.ms_between t_start t1;
  let out =
    List.fold_left
      (fun cdb op ->
        let t = Common.now_s () in
        let out, stats = Migrate.run cfg (Fira.Expr.of_ops [ op ]) cdb in
        let k = Fira.Op.kind_name op in
        bump st.op_ms k (Common.ms_between t (Common.now_s ())) 0. ( +. );
        bump st.row_visits k stats.Migrate.row_visits 0 ( + );
        out)
      cdb (Fira.Expr.ops expr)
  in
  let t2 = Common.now_s () in
  let idb = Migrate.Cdb.to_idb out in
  let t3 = Common.now_s () in
  st.to_idb_ms <- st.to_idb_ms +. Common.ms_between t2 t3;
  emit cfg ~work shape idb;
  let t4 = Common.now_s () in
  st.emit_ms <- st.emit_ms +. Common.ms_between t3 t4;
  st.wall_ms <- st.wall_ms +. Common.ms_between t_start t4;
  idb

let traced_pass cfg ~work exprs =
  let st =
    { ingest_ms = 0.; op_ms = Hashtbl.create 8; row_visits = Hashtbl.create 8; to_idb_ms = 0.; emit_ms = 0.; wall_ms = 0. }
  in
  let strings0, values0 = Intern.size () in
  let untraced_ms = ref 0. and traced_ms = ref 0. in
  let jobs =
    List.mapi
      (fun i (shape, expr) ->
        (* Alternate which side runs first, so neither always pays for a
           cold heap or a first-time interning. *)
        let untraced () =
          let j = job cfg ~work shape expr in
          untraced_ms := !untraced_ms +. j.ms;
          j
        in
        let traced () =
          let t = Common.now_s () in
          let idb = traced_job st cfg ~work shape expr in
          traced_ms := !traced_ms +. Common.ms_between t (Common.now_s ());
          idb
        in
        let j, idb =
          if i mod 2 = 0 then let j = untraced () in (j, traced ())
          else let idb = traced () in (untraced (), idb)
        in
        Common.attempt ();
        if not (Idb.canonical_equal j.idb idb) then
          Common.fail_check "migrate-csv %s: step-by-step run differs from the whole program" shape.name;
        j)
      exprs
  in
  let strings1, values1 = Intern.size () in
  let ops_ms = Hashtbl.fold (fun _ r a -> a +. !r) st.op_ms 0. in
  let spans = st.ingest_ms +. ops_ms +. st.to_idb_ms +. st.emit_ms in
  Common.note "traced jobs: steps sum to %.1f ms of a %.1f ms wall (tolerance 2%%)" spans st.wall_ms;
  if Float.abs (spans -. st.wall_ms) > 0.02 *. st.wall_ms then
    Common.fail_check "migrate-csv: steps sum to %.1f ms of a %.1f ms wall" spans st.wall_ms;
  Common.metric "migrate.ingest_ms" "ms" st.ingest_ms;
  List.iter
    (fun k ->
      Common.metric ("migrate.op_ms." ^ k) "ms" (match Hashtbl.find_opt st.op_ms k with Some r -> !r | None -> 0.);
      Common.metric ("migrate.row_visits." ^ k) "count"
        (match Hashtbl.find_opt st.row_visits k with Some r -> float_of_int !r | None -> 0.))
    kinds;
  Common.metric "migrate.to_idb_ms" "ms" st.to_idb_ms;
  Common.metric "migrate.emit_ms" "ms" st.emit_ms;
  Common.metric "relational.intern.strings" "count" (float_of_int (strings1 - strings0));
  Common.metric "relational.intern.values" "count" (float_of_int (values1 - values0));
  Common.note "tracing overhead: traced %.1f ms vs untraced %.1f ms over the same jobs" !traced_ms !untraced_ms;
  Common.metric "trace.overhead_pct" "%" (100. *. Common.ratio (!traced_ms -. !untraced_ms) !untraced_ms);
  jobs

(* --- the workload --- *)

let setup ~work =
  List.iter
    (fun shape -> if not (Sys.file_exists (input ~work shape)) then failwith ("migrate-csv: missing input " ^ shape.name))
    shapes;
  (config (), List.map (fun shape -> (shape, expr_of shape)) shapes)

(* Each job's result is compared with the first job's of its shape as it
   finishes (untimed), so the window holds on to no more than one result
   per shape; the last job's emitted CSV is checked after the window. *)
let run ~work ~seconds ~trace =
  Common.section "migrate-csv: CSV in -> Migrate.run -> CSV out, in process";
  let cfg, exprs = setup ~work in
  Common.note "jobs %s, chunk rows %d, %d source rows per job; shapes %s"
    (Common.jobs_label cfg.Migrate.jobs) chunk_rows rows
    (String.concat ", " (List.map (fun s -> s.name) shapes));
  print_endline "READY";
  let first = Hashtbl.create 3 and runs = Hashtbl.create 3 in
  let record j =
    Common.attempt ();
    (match Hashtbl.find_opt first j.shape.name with
    | None -> Hashtbl.replace first j.shape.name j.idb
    | Some idb0 ->
        if not (Idb.canonical_equal j.idb idb0) then
          Common.fail_check "migrate-csv %s: job output differs from the first job's" j.shape.name);
    Hashtbl.replace runs j.shape.name (1 + Option.value (Hashtbl.find_opt runs j.shape.name) ~default:0)
  in
  (if trace then List.iter record (traced_pass cfg ~work exprs)
   else begin
     let cycle = Array.of_list exprs in
     let deadline = Common.now_s () +. seconds in
     let lat = ref [] and rows_in = ref 0 in
     let i = ref 0 in
     while Common.now_s () < deadline do
       let shape, expr = cycle.(!i mod Array.length cycle) in
       let j = job cfg ~work shape expr in
       lat := j.ms :: !lat;
       rows_in := !rows_in + j.rows_in;
       record j;
       incr i
     done;
     let rss = Common.peak_rss_mb "self" in
     let lat = Array.of_list !lat in
     let rate = float_of_int !rows_in /. (Common.sum lat /. 1000.) in
     let s = Common.sorted_copy lat in
     Common.metric "throughput_per_s" "1/s" rate;
     Common.metric "p50_ms" "ms" (Common.percentile s 0.5);
     Common.metric "p90_ms" "ms" (Common.percentile s 0.9);
     Common.metric "peak_rss_mb" "MiB" rss;
     Common.info "migrate_rows_per_s" "rows/s" rate;
     Common.latency_summary "migrate_job" lat
   end);
  (* A wrong emitted CSV makes every job of its shape a failure. *)
  List.iter
    (fun (shape, _) ->
      match Hashtbl.find_opt first shape.name with
      | None -> ()
      | Some idb ->
          if not (check_emitted ~work shape idb) then
            Common.fail_checks (Hashtbl.find runs shape.name)
              "migrate-csv %s: emitted CSV differs from Fira.Eval" shape.name)
    exprs
