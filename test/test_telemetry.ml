(* The telemetry subsystem: JSONL sink schema stability, aggregation
   reconciling with the engine's own counters, and the disabled path
   doing strictly nothing.

   The JSONL lines are validated with a deliberately tiny JSON-object
   parser written here — the schema is flat (string and number values
   only), and parsing it independently keeps the test honest about what
   external consumers of --trace will see. *)

type json_value = Str of string | Num of float

exception Bad of string

(* Parse exactly one flat JSON object; returns fields in order. *)
let parse_json_object line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> raise (Bad (Printf.sprintf "expected %c at %d in %s" c !pos line))
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> raise (Bad "unterminated string")
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some (('"' | '\\' | '/') as c) ->
              Buffer.add_char buf c;
              advance ();
              go ()
          | Some 'b' -> Buffer.add_char buf '\b'; advance (); go ()
          | Some 'f' -> Buffer.add_char buf '\012'; advance (); go ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
          | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then raise (Bad "truncated \\u escape");
              let code =
                int_of_string ("0x" ^ String.sub line !pos 4)
              in
              pos := !pos + 4;
              (* The schema only escapes control characters, all < 0x80. *)
              Buffer.add_char buf (Char.chr (code land 0x7f));
              go ()
          | _ -> raise (Bad "bad escape"))
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    if !pos = start then raise (Bad "expected number");
    match float_of_string_opt (String.sub line start (!pos - start)) with
    | Some f -> f
    | None -> raise (Bad "malformed number")
  in
  expect '{';
  let fields = ref [] in
  let rec members () =
    let key = parse_string () in
    expect ':';
    let value =
      match peek () with
      | Some '"' -> Str (parse_string ())
      | _ -> Num (parse_number ())
    in
    fields := (key, value) :: !fields;
    match peek () with
    | Some ',' -> advance (); members ()
    | Some '}' -> advance ()
    | _ -> raise (Bad "expected , or }")
  in
  members ();
  if !pos <> n then raise (Bad "trailing garbage");
  List.rev !fields

(* A small known discovery, identical for every test so the counters are
   comparable run to run. *)
let known_discovery telemetry =
  let g = Workloads.Prng.create 42 in
  let source, target = Workloads.Random_db.rename_task g 3 in
  Tupelo.Discover.discover
    (Tupelo.Discover.config ~algorithm:Tupelo.Discover.Ida
       ~heuristic:Heuristics.Heuristic.h1 ~budget:200_000 ~telemetry ())
    ~source ~target

let stats_of = function
  | Tupelo.Discover.Mapping m -> m.Tupelo.Mapping.stats
  | Tupelo.Discover.No_mapping s | Tupelo.Discover.Gave_up s -> s

let payload_key_for = function
  | "counter" -> Some "incr"
  | "gauge" -> Some "value"
  | "timer" | "span_end" -> Some "elapsed_s"
  | "span_begin" -> None
  | "message" -> Some "detail"
  | t -> raise (Bad ("unknown event type " ^ t))

let test_jsonl_schema () =
  let buf = Buffer.create 4096 in
  let telemetry = Telemetry.create (Telemetry.Sink.jsonl (Buffer.add_string buf)) in
  ignore (known_discovery telemetry);
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check bool) "events were traced" true (List.length lines > 10);
  List.iter
    (fun line ->
      let fields = parse_json_object line in
      let keys = List.map fst fields in
      (* Stable key order: at, domain, scope, type, name, payload. *)
      let expected_prefix = [ "at"; "domain"; "scope"; "type"; "name" ] in
      Alcotest.(check (list string))
        "key prefix" expected_prefix
        (List.filteri (fun i _ -> i < 5) keys);
      let str k =
        match List.assoc k fields with
        | Str s -> s
        | Num _ -> raise (Bad (k ^ " should be a string"))
      in
      let num k =
        match List.assoc k fields with
        | Num f -> f
        | Str _ -> raise (Bad (k ^ " should be a number"))
      in
      Alcotest.(check bool) "at >= 0" true (num "at" >= 0.0);
      Alcotest.(check bool) "domain >= 0" true (num "domain" >= 0.0);
      Alcotest.(check bool) "name non-empty" true (String.length (str "name") > 0);
      match payload_key_for (str "type") with
      | None -> Alcotest.(check int) "span_begin has no payload" 5 (List.length fields)
      | Some payload ->
          Alcotest.(check int) "one payload field" 6 (List.length fields);
          Alcotest.(check string) "payload key" payload (fst (List.nth fields 5)))
    lines

let test_agg_matches_space_counters () =
  let agg = Telemetry.Agg.create () in
  let telemetry = Telemetry.create (Telemetry.Agg.sink agg) in
  let outcome = known_discovery telemetry in
  let stats = stats_of outcome in
  Alcotest.(check int) "search.examine = stats.examined"
    stats.Search.Space.examined
    (Telemetry.Agg.counter agg "search.examine");
  Alcotest.(check int) "search.expand = stats.expanded"
    stats.Search.Space.expanded
    (Telemetry.Agg.counter agg "search.expand");
  Alcotest.(check int) "search.generate = stats.generated"
    stats.Search.Space.generated
    (Telemetry.Agg.counter agg "search.generate");
  Alcotest.(check bool) "search.expand.cached <= search.expand" true
    (Telemetry.Agg.counter agg "search.expand.cached"
    <= Telemetry.Agg.counter agg "search.expand");
  Alcotest.(check int) "search.iteration = stats.iterations"
    stats.Search.Space.iterations
    (Telemetry.Agg.counter agg "search.iteration");
  Alcotest.(check int) "exactly one outcome message row" 1
    (List.length
       (List.filter
          (fun (_, metric, _) -> metric = "message:search.outcome")
          (Telemetry.Agg.rows agg)))

let test_agg_matches_jsonl_sum () =
  (* The same run through a tee: the aggregated counter must equal the
     sum of the per-event increments in the trace. *)
  let buf = Buffer.create 4096 in
  let agg = Telemetry.Agg.create () in
  let telemetry =
    Telemetry.create
      (Telemetry.Sink.tee
         [ Telemetry.Sink.jsonl (Buffer.add_string buf); Telemetry.Agg.sink agg ])
  in
  ignore (known_discovery telemetry);
  let traced_examine =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
    |> List.fold_left
         (fun acc line ->
           let fields = parse_json_object line in
           match (List.assoc "name" fields, List.assoc_opt "incr" fields) with
           | Str "search.examine", Some (Num incr) -> acc + int_of_float incr
           | _ -> acc)
         0
  in
  Alcotest.(check int) "trace sum = aggregate" traced_examine
    (Telemetry.Agg.counter agg "search.examine")

let test_disabled_is_inert () =
  Alcotest.(check bool) "disabled handle reports disabled" false
    (Telemetry.enabled Telemetry.disabled);
  Alcotest.(check bool) "with_scope keeps it disabled" false
    (Telemetry.enabled (Telemetry.with_scope Telemetry.disabled "x"));
  (* The message thunk must never run on the disabled path. *)
  Telemetry.message Telemetry.disabled "never" (fun () ->
      Alcotest.fail "detail thunk ran while disabled");
  (* Spans and timers degrade to plain calls. *)
  Alcotest.(check int) "span returns the result" 7
    (Telemetry.span Telemetry.disabled "s" (fun () -> 7));
  Alcotest.(check int) "timed returns the result" 9
    (Telemetry.timed Telemetry.disabled "t" (fun () -> 9));
  (* A discovery without telemetry emits nothing into a fresh aggregate
     and reports the same stats as an instrumented run (no behavioural
     drift from instrumentation). *)
  let untouched = Telemetry.Agg.create () in
  let plain = known_discovery Telemetry.disabled in
  Alcotest.(check int) "no events while disabled" 0
    (Telemetry.Agg.events untouched);
  let agg = Telemetry.Agg.create () in
  let traced = known_discovery (Telemetry.create (Telemetry.Agg.sink agg)) in
  Alcotest.(check int) "same examined with and without telemetry"
    (stats_of plain).Search.Space.examined
    (stats_of traced).Search.Space.examined

let test_noop_sink_accepts_events () =
  let telemetry = Telemetry.create Telemetry.Sink.noop in
  Alcotest.(check bool) "live handle" true (Telemetry.enabled telemetry);
  Telemetry.count telemetry "c" 1;
  Telemetry.gauge telemetry "g" 1.0;
  Telemetry.message telemetry "m" (fun () -> "detail");
  Alcotest.(check int) "span still returns" 3
    (Telemetry.span telemetry "s" (fun () -> 3));
  Telemetry.flush telemetry

let test_agg_scopes () =
  let agg = Telemetry.Agg.create () in
  let telemetry = Telemetry.create (Telemetry.Agg.sink agg) in
  Telemetry.count (Telemetry.with_scope telemetry "a") "k" 2;
  Telemetry.count (Telemetry.with_scope telemetry "b") "k" 3;
  Alcotest.(check int) "scope a" 2 (Telemetry.Agg.counter agg ~scope:"a" "k");
  Alcotest.(check int) "scope b" 3 (Telemetry.Agg.counter agg ~scope:"b" "k");
  Alcotest.(check int) "all scopes" 5 (Telemetry.Agg.counter agg "k")

(* IDA* re-expands the shallow flights states on every iteration; the
   expansion cache serves those re-expansions without changing what the
   search reports. *)
let test_expansion_cache_counter () =
  List.iter
    (fun (name, source, target) ->
      let agg = Telemetry.Agg.create () in
      let telemetry = Telemetry.create (Telemetry.Agg.sink agg) in
      let stats =
        stats_of
          (Tupelo.Discover.discover ~registry:Workloads.Flights.registry
             (Tupelo.Discover.config ~algorithm:Tupelo.Discover.Ida
                ~heuristic:Heuristics.Heuristic.h1 ~budget:500_000 ~telemetry
                ())
             ~source ~target)
      in
      let expand = Telemetry.Agg.counter agg "search.expand" in
      let cached = Telemetry.Agg.counter agg "search.expand.cached" in
      Alcotest.(check int) (name ^ ": search.expand = stats.expanded")
        stats.Search.Space.expanded expand;
      Alcotest.(check bool) (name ^ ": search.expand.cached <= search.expand")
        true (cached <= expand);
      Alcotest.(check bool) (name ^ ": search.expand.cached > 0") true
        (cached > 0))
    Workloads.Flights.pairs

let suite =
  [
    Alcotest.test_case "jsonl: lines parse and keep the schema" `Quick
      test_jsonl_schema;
    Alcotest.test_case "agg: counters match Space stats" `Quick
      test_agg_matches_space_counters;
    Alcotest.test_case "agg: expansion-cache hits on IDA* flights" `Quick
      test_expansion_cache_counter;
    Alcotest.test_case "agg: aggregate equals trace sum" `Quick
      test_agg_matches_jsonl_sum;
    Alcotest.test_case "disabled: inert and allocation-free path" `Quick
      test_disabled_is_inert;
    Alcotest.test_case "noop sink: accepts and discards" `Quick
      test_noop_sink_accepts_events;
    Alcotest.test_case "agg: per-scope and cross-scope sums" `Quick
      test_agg_scopes;
  ]
