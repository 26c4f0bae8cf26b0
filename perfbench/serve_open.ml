(* serve-open: an open loop against a `tupelo serve` child process over
   loopback.

   The daemon runs with at most nproc - 1 worker domains. One generator
   (a single domain of this process) drives it over at most nproc
   connections: cache hits on the first nproc - 1 of them, pipelined, and
   misses on the last one. Requests are sent on a fixed schedule whatever
   the responses do, and each is timed from its due time, so a stall is
   charged to every request queued behind it.

   Set-up starts the daemon and warms [warm_pairs] instance pairs with one
   search each. Requests come in three classes:

   - hits: the warmed pairs, drawn from the seed; answered on the event
     loop from the sharded cache with no search;
   - cold misses: term-disjoint synthetic rename pairs, alternately with
     the protocol default RBFS/cosine and with A*/h1;
   - drift misses: one-cell drifts of warmed pairs, which the cache
     warm-starts from the nearest stored program.

   The first half of the timed phase alternates [base_pairs] hits-only
   windows at the base rate with as many capacity windows (every
   connection keeps 16 hits in flight); the gated hit latency and
   capacity come from these, on a daemon that has served no miss yet,
   as medians over the windows, so that a stretch a busy neighbour on a
   shared host slowed moves them little. The second half climbs the
   ladder of hit rates three times in [ladder_windows] windows, with
   [miss_rate] misses/s beside every rung.

   Hit latency beside misses is reported but not gated: on a 2-core host
   the generator, the reactor and a searching worker contend for the
   cores, and the hit p90 of such windows varied tenfold between runs of
   the same code, and grew with the number of misses the daemon had served.

   A rate meets the SLO when, in each of its windows, the hit p90 is at
   most [hit_slo_ms], the miss p90 at most [miss_slo_ms], nothing failed,
   achieved >= 95 % of offered and /stats shows an empty queue after the
   window. *)

open Server

let hit_slo_ms = 5.
let miss_slo_ms = 250.
let ladder = [ 1000.; 2000.; 4000. ]
let miss_rate = 4.
let base_pairs = 10
let ladder_windows = 10

type phase = Rung of { rate : float; mrate : float } | Capacity

(* Every window with its share of the timed phase. *)
let base_share = 0.5 /. float_of_int (2 * base_pairs)
let ladder_share = 0.5 /. float_of_int ladder_windows

let schedule =
  List.concat
    (List.init base_pairs (fun _ ->
         [ (Rung { rate = List.hd ladder; mrate = 0. }, base_share); (Capacity, base_share) ]))
  @ List.init ladder_windows (fun i ->
        (Rung { rate = List.nth ladder (i mod List.length ladder); mrate = miss_rate }, ladder_share))

let warm_pairs = 16
let kept_hits = 256
let budget = 50_000

(* --- instance pairs, as the CSV documents a client sends --- *)

let names prefix n = List.init n (fun i -> Printf.sprintf "%s%02d" prefix (i + 1))

(* The synthetic rename task: R(A..) to R(B..) over one illustrating
   tuple. Every name and value carries the tag, so pairs with different
   tags share no fingerprint term. [last] overrides the last cell. *)
let pair ?last ~renames tag =
  let cells = names (Printf.sprintf "a%s_" tag) renames in
  let cells =
    match last with
    | None -> cells
    | Some v -> List.mapi (fun i c -> if i = renames - 1 then v else c) cells
  in
  let body = String.concat "," cells ^ "\n" in
  ( [ ("R", String.concat "," (names (Printf.sprintf "A%s_" tag) renames) ^ "\n" ^ body) ],
    [ ("R", String.concat "," (names (Printf.sprintf "B%s_" tag) renames) ^ "\n" ^ body) ] )

let request ~algorithm ~heuristic (source, target) =
  Protocol.request ~algorithm ~heuristic ~budget ~source ~target ()

let http_post body =
  Printf.sprintf
    "POST /discover HTTP/1.1\r\nhost: tupelo\r\ncontent-type: application/json\r\ncontent-length: %d\r\n\r\n%s"
    (String.length body) body

let body_of req = Json.to_string (Protocol.encode_request req)

type cls = Hit of int | Cold of int | Drift of int

type planned = {
  cls : cls;
  req : Protocol.discover_request;
  body : string;  (** the JSON body *)
  due : float;
  conn : int;
}

(* --- the daemon --- *)

type daemon = { pid : int; port : int }

let daemon_ref = ref None

let stop_daemon () =
  match !daemon_ref with
  | None -> ()
  | Some d ->
      daemon_ref := None;
      (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)

let () = at_exit stop_daemon

let start_daemon ~cli ~work ~workers =
  let out = Filename.concat work "serve-open.out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process cli
      [|
        cli; "serve"; "--host"; "127.0.0.1"; "--port"; "0"; "--workers";
        string_of_int workers; "--jobs"; "1"; "--cache"; "4096";
      |]
      Unix.stdin fd fd
  in
  Unix.close fd;
  daemon_ref := Some { pid; port = 0 };
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait () =
    let text = try In_channel.with_open_bin out In_channel.input_all with Sys_error _ -> "" in
    match Scanf.sscanf text "tupelo server listening on %_s@:%d" Fun.id with
    | port -> port
    | exception _ ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            daemon_ref := None;
            failwith ("serve-open: tupelo serve exited: " ^ text));
        if Unix.gettimeofday () > deadline then failwith "serve-open: tupelo serve did not start";
        Unix.sleepf 0.005;
        wait ()
  in
  let port = wait () in
  let d = { pid; port } in
  daemon_ref := Some d;
  d

let get_stats d =
  match Client.once ~host:"127.0.0.1" ~port:d.port ~meth:"GET" ~path:"/stats" () with
  | Ok (200, body) -> (
      match Json.parse body with Ok j -> j | Error m -> failwith ("/stats: " ^ m))
  | Ok (s, _) -> failwith (Printf.sprintf "/stats: HTTP %d" s)
  | Error m -> failwith ("/stats: " ^ m)

let stat j path =
  let rec go j = function
    | [] -> ( match Json.to_num j with Some v -> v | None -> nan)
    | k :: rest -> ( match Json.member k j with Some j -> go j rest | None -> nan)
  in
  go j path

(* --- output checks --- *)

let database_of rels =
  List.fold_left
    (fun db (name, csv) -> Relational.Database.add db name (Relational.Csv.parse_relation csv))
    Relational.Database.empty rels

(* A 200 response's program replays through the boxed evaluator to a
   database the goal test accepts against the request's target. *)
let replays (req : Protocol.discover_request) (resp : Protocol.discover_response) =
  match resp.Protocol.expr with
  | None -> false
  | Some text -> (
      match Fira.Parser.expr_of_string text with
      | Error _ -> false
      | Ok expr -> (
          match Fira.Expr.eval Fira.Semfun.empty_registry expr (database_of req.Protocol.source) with
          | db -> Tupelo.Goal.reached Tupelo.Goal.Superset ~target:(database_of req.Protocol.target) db
          | exception _ -> false))

(* --- set-up: start the daemon and warm the hit pairs --- *)

type warmed = {
  w_req : Protocol.discover_request;
  w_bytes : string;  (** the full HTTP request *)
  w_needle : string;  (** the stored program as it appears in a response *)
}

let setup ~cli ~work ~nproc ~seed =
  let workers = max 1 (nproc - 1) in
  let d = start_daemon ~cli ~work ~workers in
  let conn = Client.connect ~host:"127.0.0.1" ~port:d.port in
  let warmed =
    Fun.protect
      ~finally:(fun () -> Client.close conn)
      (fun () ->
        Array.init warm_pairs (fun k ->
            let algorithm, heuristic = if k mod 2 = 0 then ("rbfs", "cosine") else ("astar", "h1") in
            let req = request ~algorithm ~heuristic (pair ~renames:(3 + (k mod 4)) (Printf.sprintf "h%d_%d" seed k)) in
            Common.attempt ();
            match Client.discover conn req with
            | Ok (200, Ok resp) when resp.Protocol.outcome = "mapping" && resp.Protocol.cache = "miss" ->
                if not (replays req resp) then Common.fail_check "warm-up %d: mapping does not reach the target" k;
                let expr = Option.value resp.Protocol.expr ~default:"" in
                { w_req = req; w_bytes = http_post (body_of req);
                  w_needle = "\"expr\":" ^ Json.to_string (Json.Str expr) }
            | Ok (s, _) -> failwith (Printf.sprintf "serve-open: warm-up %d: HTTP %d" k s)
            | Error m -> failwith ("serve-open: warm-up: " ^ m)))
  in
  (d, workers, warmed)

(* --- the generator --- *)

let bytes_find buf ~from ~upto needle =
  let nn = String.length needle in
  let last = upto - nn in
  let rec go i =
    if i > last then -1
    else
      let rec eq j = j = nn || (Bytes.get buf (i + j) = needle.[j] && eq (j + 1)) in
      if Bytes.get buf i = needle.[0] && eq 1 then i else go (i + 1)
  in
  if from > last then -1 else go from

let bytes_int buf ~from ~upto =
  let rec go i acc any =
    if i >= upto then if any then acc else -1
    else
      match Bytes.get buf i with
      | '0' .. '9' as c -> go (i + 1) ((acc * 10) + Char.code c - 48) true
      | _ -> if any then acc else -1
  in
  go from 0 false

(* A non-negative decimal number in place, without allocating. *)
let bytes_float buf ~from ~upto =
  let rec go i acc scale seen_dot =
    if i >= upto then acc
    else
      match Bytes.get buf i with
      | '0' .. '9' as c ->
          let d = float_of_int (Char.code c - 48) in
          if seen_dot then go (i + 1) (acc +. (d *. scale)) (scale /. 10.) true
          else go (i + 1) ((acc *. 10.) +. d) scale false
      | '.' when not seen_dot -> go (i + 1) acc 0.1 true
      | _ -> acc
  in
  go from 0. 1. false

type outcome = {
  mutable lat_ms : float;  (** completion - due *)
  mutable late_ms : float;  (** send - due *)
  mutable ok : bool;  (** 200, and for a hit: the cache label and program *)
  mutable server_ms : float;  (** the response's elapsed_ms *)
  mutable body : string;  (** checked and replayed after the rung *)
}

(* One keep-alive connection of the generator: requests are written in
   batches, responses are scanned in place out of a flat input buffer and
   come back in request order. *)
type conn = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable len : int;
  pending : int Queue.t;  (** request indices awaiting a response *)
  outb : Buffer.t;
}

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  { fd; buf = Bytes.create (1 lsl 20); len = 0; pending = Queue.create (); outb = Buffer.create 65536 }

let flush c =
  let s = Buffer.contents c.outb in
  Buffer.clear c.outb;
  let len = String.length s in
  let rec go off = if off < len then go (off + Unix.write_substring c.fd s off (len - off)) in
  go 0

(* Read what is available; false when the connection is unusable. *)
let fill c =
  let cap = Bytes.length c.buf - c.len in
  cap > 0
  &&
  match Unix.read c.fd c.buf c.len cap with
  | 0 -> false
  | k ->
      c.len <- c.len + k;
      true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> true
  | exception Unix.Unix_error _ -> false

(* Hand every complete response to [f i ~status_ok ~bstart ~bend], where
   [i] is the request it answers, then compact the buffer. False on a
   malformed response or one nobody asked for. *)
let responses c f =
  let off = ref 0 and ok = ref true and again = ref true in
  while !again do
    again := false;
    match bytes_find c.buf ~from:!off ~upto:c.len "\r\n\r\n" with
    | -1 -> ()
    | he -> (
        let cl =
          match bytes_find c.buf ~from:!off ~upto:he "\r\ncontent-length: " with
          | -1 -> -1
          | p -> bytes_int c.buf ~from:(p + 18) ~upto:he
        in
        let bstart = he + 4 in
        if cl < 0 then ok := false
        else if c.len - bstart >= cl then
          match Queue.take_opt c.pending with
          | None -> ok := false
          | Some i ->
              let status_ok = bytes_find c.buf ~from:!off ~upto:(!off + 13) "HTTP/1.1 200 " = !off in
              f i ~status_ok ~bstart ~bend:(bstart + cl);
              off := bstart + cl;
              again := true)
  done;
  if !off > 0 then begin
    Bytes.blit c.buf !off c.buf 0 (c.len - !off);
    c.len <- c.len - !off
  end;
  !ok

(* A hit is right when it is a 200 served from the cache with the
   program the pair's warm-up stored. *)
let hit_ok c (w : warmed) ~status_ok ~bstart ~bend =
  status_ok
  && bytes_find c.buf ~from:bstart ~upto:bend "\"cache\":\"hit\"" >= 0
  && bytes_find c.buf ~from:bstart ~upto:bend w.w_needle >= 0

(* Wait until some connection is readable (or [timeout] passes) and feed
   its responses to [on_response]; false when a connection broke. *)
let poll conns ~timeout on_response =
  match Unix.select (Array.to_list (Array.map (fun c -> c.fd) conns)) [] [] timeout with
  | [], _, _ -> true
  | rd, _, _ ->
      let tnow = Unix.gettimeofday () in
      Array.for_all
        (fun c -> (not (List.memq c.fd rd)) || (fill c && responses c (on_response c tnow)))
        conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

let close_all conns = Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns

(* Drive one rung: every planned request goes out at its due time on its
   connection. Runs in a domain of its own so the generator never shares
   a runtime lock with anything else in this process. Returns the
   outcomes and the time of the first due request and of the last
   completion. *)
let drive ~port ~conns ~(warmed : warmed array) (plan : planned array) =
  Domain.join
    (Domain.spawn (fun () ->
         let n = Array.length plan in
         let cs = Array.init conns (fun _ -> connect port) in
         let out = Array.init n (fun _ -> { lat_ms = nan; late_ms = nan; ok = false; server_ms = nan; body = "" }) in
         let wire = Array.map (fun p -> match p.cls with Hit k -> warmed.(k).w_bytes | _ -> http_post p.body) plan in
         let completed = ref 0 and next = ref 0 and t_end = ref 0. in
         let t0 = if n = 0 then Unix.gettimeofday () else plan.(0).due in
         let deadline = (if n = 0 then t0 else plan.(n - 1).due) +. 30. in
         let on_response c tnow i ~status_ok ~bstart ~bend =
           let o = out.(i) in
           o.lat_ms <- (tnow -. plan.(i).due) *. 1000.;
           (match bytes_find c.buf ~from:bstart ~upto:bend "\"elapsed_ms\":" with
           | -1 -> ()
           | p -> o.server_ms <- bytes_float c.buf ~from:(p + 13) ~upto:bend);
           o.ok <-
             (match plan.(i).cls with
             | Hit k -> hit_ok c warmed.(k) ~status_ok ~bstart ~bend
             | Cold _ | Drift _ -> status_ok);
           (* Misses are parsed after the rung; of the hits only the
              first few are kept, for the encode replay, so the
              generator's heap stays flat. *)
           (match plan.(i).cls with
           | Hit _ when i >= kept_hits -> ()
           | _ -> o.body <- Bytes.sub_string c.buf bstart (bend - bstart));
           incr completed;
           t_end := tnow
         in
         while !completed < n do
           let now = Unix.gettimeofday () in
           if now > deadline then completed := n
           else begin
             if !next < n && plan.(!next).due <= now then begin
               while !next < n && plan.(!next).due <= now do
                 let p = plan.(!next) in
                 Buffer.add_string cs.(p.conn).outb wire.(!next);
                 Queue.add !next cs.(p.conn).pending;
                 out.(!next).late_ms <- (now -. p.due) *. 1000.;
                 incr next
               done;
               Array.iter (fun c -> if Buffer.length c.outb > 0 then flush c) cs
             end;
             let timeout =
               if !next >= n then 0.5
               else max 0.0002 (min 0.5 (plan.(!next).due -. Unix.gettimeofday ()))
             in
             if not (poll cs ~timeout on_response) then completed := n
           end
         done;
         close_all cs;
         (out, t0, !t_end)))

(* Hit capacity: every connection keeps [depth] hits in flight for
   [seconds]; completions after the first fifth of the phase count.
   Returns completed hits/s, requests sent and requests that failed. *)
let saturate ~port ~conns ~(warmed : warmed array) ~rng ~seconds =
  let depth = 16 in
  let keys = Array.init 4096 (fun _ -> Workloads.Prng.int rng warm_pairs) in
  Domain.join
    (Domain.spawn (fun () ->
         let cs = Array.init conns (fun _ -> connect port) in
         let t0 = Unix.gettimeofday () in
         let t_count = t0 +. (0.2 *. seconds) and t_stop = t0 +. seconds in
         let sent = ref 0 and counted = ref 0 and bad = ref 0 and broken = ref false in
         let on_response c tnow i ~status_ok ~bstart ~bend =
           if not (hit_ok c warmed.(keys.(i)) ~status_ok ~bstart ~bend) then incr bad;
           if tnow >= t_count && tnow < t_stop then incr counted
         in
         let in_flight () = Array.fold_left (fun a c -> a + Queue.length c.pending) 0 cs in
         while (not !broken) && (Unix.gettimeofday () < t_stop || in_flight () > 0) do
           if Unix.gettimeofday () < t_stop then
             Array.iter
               (fun c ->
                 while Queue.length c.pending < depth do
                   let i = !sent mod Array.length keys in
                   Buffer.add_string c.outb warmed.(keys.(i)).w_bytes;
                   Queue.add i c.pending;
                   incr sent
                 done;
                 flush c)
               cs;
           if Unix.gettimeofday () > t_stop +. 30. then broken := true
           else if not (poll cs ~timeout:0.5 on_response) then broken := true
         done;
         close_all cs;
         let lost = if !broken then in_flight () else 0 in
         (float_of_int !counted /. (t_stop -. t_count), !sent, !bad + lost)))

(* --- the ladder --- *)

type rung = {
  rate : float;  (** offered hits/s *)
  mrate : float;  (** offered misses/s, on top *)
  plan : planned array;
  out : outcome array;
  achieved : float;  (** completed requests/s *)
  depth : float;  (** /stats queue depth after the rung *)
}

let offered r = r.rate +. r.mrate

let class_lat r f =
  let xs = ref [] in
  Array.iteri (fun i p -> if f p.cls then xs := r.out.(i).lat_ms :: !xs) r.plan;
  Array.of_list !xs

let is_hit = function Hit _ -> true | _ -> false
let is_miss c = not (is_hit c)
let p90 a = Common.percentile (Common.sorted_copy a) 0.9
let failures r = Array.fold_left (fun a o -> if o.ok then a else a + 1) 0 r.out

let meets_slo r =
  p90 (class_lat r is_hit) <= hit_slo_ms
  && (let m = class_lat r is_miss in
      Array.length m = 0 || p90 m <= miss_slo_ms)
  && failures r = 0
  && r.achieved >= 0.95 *. offered r
  && r.depth = 0.

let plan_rung rng ~seed ~rung ~rate ~mrate ~seconds ~conns ~(warmed : warmed array) ~t0 =
  let hits = int_of_float (rate *. seconds) and misses = int_of_float (mrate *. seconds) in
  let hit_conns = max 1 (conns - 1) in
  let miss_conn = conns - 1 in
  let hit i =
    let k = Workloads.Prng.int rng warm_pairs in
    { cls = Hit k; req = warmed.(k).w_req; body = ""; due = t0 +. (float_of_int i /. rate); conn = i mod hit_conns }
  in
  let miss j =
    let due = t0 +. ((float_of_int j +. 0.5) /. mrate) in
    let id = (rung * 100_000) + j in
    let tag = Printf.sprintf "c%d_%d" seed id in
    let cls, req =
      match j mod 3 with
      | 0 -> (Cold id, request ~algorithm:"rbfs" ~heuristic:"cosine" (pair ~renames:12 tag))
      | 1 -> (Cold id, request ~algorithm:"astar" ~heuristic:"h1" (pair ~renames:10 tag))
      | _ ->
          let k = Workloads.Prng.int rng warm_pairs in
          let w = warmed.(k).w_req in
          let renames = 3 + (k mod 4) in
          ( Drift id,
            request ~algorithm:w.Protocol.algorithm ~heuristic:w.Protocol.heuristic
              (pair ~renames ~last:(Printf.sprintf "d%s" tag) (Printf.sprintf "h%d_%d" seed k)) )
    in
    { cls; req; body = body_of req; due; conn = miss_conn }
  in
  let all = Array.append (Array.init hits hit) (Array.init misses miss) in
  Array.stable_sort (fun a b -> Float.compare a.due b.due) all;
  all

let check_misses r =
  Array.iteri
    (fun i p ->
      match p.cls with
      | Hit _ -> ()
      | Cold _ | Drift _ ->
          let o = r.out.(i) in
          if o.ok then
            match Result.bind (Json.parse o.body) Protocol.decode_response with
            | Ok resp when resp.Protocol.outcome = "mapping" && replays p.req resp -> ()
            | _ -> o.ok <- false)
    r.plan

(* A percentile of the hit times the daemon reports. It takes elapsed_ms
   from gettimeofday, in whole microseconds, and a hit takes about fifteen
   of them, so a nearest-rank percentile moves in steps of several per
   cent. Each microsecond is treated as a bin, and the percentile is
   interpolated linearly inside the bin its rank falls in, as for grouped
   data. *)
let binned_percentile ms p =
  let us = Array.map (fun x -> Float.round (x *. 1000.)) ms in
  Array.sort Float.compare us;
  let n = Array.length us in
  if n = 0 then nan
  else
    let rank = p *. float_of_int n in
    let k = max 0 (min (n - 1) (int_of_float (ceil rank) - 1)) in
    let v = us.(k) in
    let lo = ref k and hi = ref k in
    while !lo > 0 && us.(!lo - 1) = v do decr lo done;
    while !hi < n - 1 && us.(!hi + 1) = v do incr hi done;
    (v -. 0.5 +. (rank -. float_of_int !lo) /. float_of_int (!hi - !lo + 1)) /. 1000.

(* CPU seconds (user + system) the process has used, from
   /proc/PID/stat in clock ticks of 1/100 s. *)
let cpu_seconds pid =
  let text = In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all in
  let rest = String.sub text (String.rindex text ')' + 2) (String.length text - String.rindex text ')' - 2) in
  match String.split_on_char ' ' rest with
  | _state :: fields ->
      (* utime and stime are the 14th and 15th fields of the line, the
         11th and 12th after the state *)
      float_of_string (List.nth fields 10) +. float_of_string (List.nth fields 11) |> fun ticks -> ticks /. 100.
  | [] -> nan

(* A capacity window: hits/s over the wall clock, hits per CPU second the
   daemon spent, the hits sent and the ones that failed. *)
type capacity = { wall_rate : float; per_cpu_s : float; sent : int; bad : int }

(* Run the schedule: the rung windows and the capacity windows. *)
let run_schedule ~d ~conns ~warmed ~seed ~seconds =
  let rng = Workloads.Prng.create seed in
  let results =
    List.mapi
      (fun i (phase, share) ->
        let each = share *. seconds in
        match phase with
        | Rung { rate; mrate } ->
            let t0 = Unix.gettimeofday () +. 0.05 in
            let plan = plan_rung rng ~seed ~rung:i ~rate ~mrate ~seconds:each ~conns ~warmed ~t0 in
            let out, t0, t_end = drive ~port:d.port ~conns ~warmed plan in
            let achieved = float_of_int (Array.length plan) /. Float.max 1e-9 (t_end -. t0) in
            let depth = stat (get_stats d) [ "queue"; "depth" ] in
            let r = { rate; mrate; plan; out; achieved; depth } in
            check_misses r;
            `Rung r
        | Capacity ->
            let c0 = cpu_seconds d.pid in
            let wall_rate, sent, bad = saturate ~port:d.port ~conns ~warmed ~rng ~seconds:each in
            let cpu = cpu_seconds d.pid -. c0 in
            `Capacity { wall_rate; per_cpu_s = float_of_int sent /. cpu; sent; bad })
      schedule
  in
  ( List.filter_map (function `Rung r -> Some r | `Capacity _ -> None) results,
    List.filter_map (function `Capacity c -> Some c | `Rung _ -> None) results )

let report_rung r =
  let late = Common.sorted_copy (Array.map (fun o -> o.late_ms) r.out) in
  Common.note
    "rung %.0f hit/s + %.0f miss/s: achieved %.1f req/s (%.3f of offered), hit p90 %.3f ms, miss p90 %.1f ms, late p99 %.3f ms, failures %d, queue %.0f -> %s"
    r.rate r.mrate r.achieved (r.achieved /. offered r)
    (p90 (class_lat r is_hit)) (p90 (class_lat r is_miss))
    (Common.percentile late 0.99) (failures r) r.depth
    (if meets_slo r then "meets SLO" else "misses SLO")

(* --- per-layer replays, from the bytes the windows sent --- *)

(* The hit path's decode, routing and encode, replayed on the request
   bytes the base rung sent (the same pair bodies the daemon parsed) and
   on the kept hit responses. Averages per request, in microseconds. *)
let replay_hit_path (base : rung) =
  let since t0 = Int64.to_float (Int64.sub (Common.now_ns ()) t0) in
  let bodies = Hashtbl.create 16 in
  let decode_ns = ref 0. and route_ns = ref 0. and encode_ns = ref 0. in
  let decoded = ref 0 and encoded = ref 0 in
  Array.iteri
    (fun i p ->
      let o = base.out.(i) in
      if is_hit p.cls && o.ok then begin
        let body =
          match Hashtbl.find_opt bodies p.req with
          | Some b -> b
          | None ->
              let b = body_of p.req in
              Hashtbl.replace bodies p.req b;
              b
        in
        let t = Common.now_ns () in
        let req =
          match Result.bind (Json.parse body) Protocol.decode_request with
          | Ok r -> r
          | Error m -> failwith ("serve-open replay: " ^ m)
        in
        let source = database_of req.Protocol.source and target = database_of req.Protocol.target in
        decode_ns := !decode_ns +. since t;
        let t = Common.now_ns () in
        let key = (Relational.Fingerprint.of_database source, Relational.Fingerprint.of_database target) in
        let route = Cache.route_of_pair ~source ~target in
        route_ns := !route_ns +. since t;
        ignore (Sys.opaque_identity (key, route));
        incr decoded;
        if o.body <> "" then begin
          let resp =
            match Result.bind (Json.parse o.body) Protocol.decode_response with
            | Ok r -> r
            | Error m -> failwith ("serve-open replay: " ^ m)
          in
          let t = Common.now_ns () in
          ignore (Sys.opaque_identity (Json.to_string (Protocol.encode_response resp)));
          encode_ns := !encode_ns +. since t;
          incr encoded
        end
      end)
    base.plan;
  let per ns n = ns /. float_of_int (max 1 n) /. 1e3 in
  Common.metric "server.decode_us" "us" (per !decode_ns !decoded);
  Common.metric "server.route_us" "us" (per !route_ns !decoded);
  Common.metric "server.encode_us" "us" (per !encode_ns !encoded)

(* The miss path's search, replayed in this process: each cold miss of the
   windows with misses runs untraced through [Discover.discover] with the
   daemon's configuration and traced, in alternating order, and both must
   examine exactly the states the daemon reported. *)
let replay_miss_search (rs : rung list) =
  let l = Traced.layers () in
  let replayed = ref 0 in
  let untraced_ms = ref 0. and traced_ms = ref 0. in
  let counts = ref (0, 0, 0) in
  let replay (p : planned) (resp : Protocol.discover_response) =
    let r = p.req in
    let algorithm = Option.get (Tupelo.Discover.algorithm_of_string r.Protocol.algorithm) in
    let heuristic =
      Option.get (Heuristics.Heuristic.by_name (Tupelo.Discover.scaling_for algorithm) r.Protocol.heuristic)
    in
    let config = Tupelo.Discover.config ~algorithm ~heuristic ~budget:r.Protocol.budget () in
    let source = database_of r.Protocol.source and target = database_of r.Protocol.target in
    let untraced () =
      let t0 = Common.now_s () in
      let u = Traced.of_outcome (Tupelo.Discover.discover config ~source ~target) in
      untraced_ms := !untraced_ms +. Common.ms_between t0 (Common.now_s ());
      u
    in
    let traced () =
      let t0 = Common.now_s () in
      let t = Traced.discover l config ~source ~target in
      traced_ms := !traced_ms +. Common.ms_between t0 (Common.now_s ());
      t
    in
    incr replayed;
    let u, t =
      if !replayed mod 2 = 0 then
        let u = untraced () in
        (u, traced ())
      else
        let t = traced () in
        (untraced (), t)
    in
    let e, g, x = !counts in
    counts := (e + t.Traced.examined, g + t.Traced.generated, x + t.Traced.expanded);
    Common.attempt ();
    if not (Traced.same u t && t.Traced.examined = resp.Protocol.states_examined) then
      Common.fail_check "serve-open: replayed miss search differs from the daemon's"
  in
  List.iter
    (fun (w : rung) ->
      Array.iteri
        (fun i p ->
          match (p.cls, Result.bind (Json.parse w.out.(i).body) Protocol.decode_response) with
          | Cold _, Ok resp when resp.Protocol.cache = "miss" -> replay p resp
          | _ -> ())
        w.plan)
    rs;
  Traced.report l ~heuristics:Discover_mix.heuristics;
  let e, g, x = !counts in
  Common.metric "search.examined" "count" (float_of_int e);
  Common.metric "search.generated" "count" (float_of_int g);
  Common.metric "search.expanded" "count" (float_of_int x);
  (!traced_ms, !untraced_ms)

let report_layers ~stats ~base ~mixed ~rungs =
  let all f = Array.concat (List.map f base) in
  let late = Common.sorted_copy (all (fun r -> Array.map (fun o -> o.late_ms) r.out)) in
  Common.metric "gen.late_p99_ms" "ms" (Common.percentile late 0.99);
  Common.metric "gen.achieved_ratio" "ratio" (Common.median (List.map (fun r -> r.achieved /. offered r) base));
  let outside =
    all (fun r ->
        Array.of_list
          (List.filter_map
             (fun (p, o) -> if is_hit p.cls && o.ok then Some (o.lat_ms -. o.server_ms) else None)
             (List.combine (Array.to_list r.plan) (Array.to_list r.out))))
  in
  Common.metric "server.outside_ms.hit" "ms" (Common.percentile (Common.sorted_copy outside) 0.5);
  let strings0, values0 = Relational.Intern.size () in
  replay_hit_path (List.hd base);
  let elapsed = ref [] and states = ref [] in
  List.iter
    (fun r ->
      Array.iteri
        (fun i p ->
          if is_miss p.cls then
            match Result.bind (Json.parse r.out.(i).body) Protocol.decode_response with
            | Ok resp ->
                elapsed := resp.Protocol.elapsed_ms :: !elapsed;
                states := float_of_int resp.Protocol.states_examined :: !states
            | Error _ -> ())
        r.plan)
    rungs;
  let mean xs = Common.ratio (List.fold_left ( +. ) 0. xs) (float_of_int (List.length xs)) in
  Common.metric "server.elapsed_ms.miss" "ms" (mean !elapsed);
  Common.metric "server.miss_states" "count" (mean !states);
  let hits = stat stats [ "cache"; "hits" ] and misses = stat stats [ "cache"; "misses" ] in
  Common.metric "server.cache.hit_ratio" "ratio" (Common.ratio hits (hits +. misses));
  Common.metric "server.cache.warm_ratio" "ratio" (Common.ratio (stat stats [ "cache"; "warms" ]) misses);
  Common.metric "server.rejected" "count"
    (stat stats [ "rejected"; "busy" ] +. stat stats [ "rejected"; "timeout" ]);
  let traced_ms, untraced_ms = replay_miss_search mixed in
  let strings1, values1 = Relational.Intern.size () in
  Common.metric "relational.intern.strings" "count" (float_of_int (strings1 - strings0));
  Common.metric "relational.intern.values" "count" (float_of_int (values1 - values0));
  Common.note "tracing overhead: the live traffic is never traced; replayed miss searches took %.1f ms traced vs %.1f ms untraced"
    traced_ms untraced_ms;
  Common.metric "trace.overhead_pct" "%" (100. *. Common.ratio (traced_ms -. untraced_ms) untraced_ms)

let run ~cli ~work ~nproc ~seed ~seconds ~trace =
  Common.section "serve-open: open loop against tupelo serve over loopback";
  let d, workers, warmed = setup ~cli ~work ~nproc ~seed in
  let conns = max 2 (min nproc 4) in
  Common.note
    "daemon pid %d: workers %s, jobs 1; generator: 1 process, %d connections; %d hits-only windows at %.0f hit/s alternating with as many capacity windows, %.2f s each, then %d windows of %.2f s on the ladder %s hit/s with %.0f miss/s beside; SLO hit p90 <= %.0f ms, miss p90 <= %.0f ms"
    d.pid (Common.jobs_label workers) conns base_pairs (List.hd ladder) (base_share *. seconds)
    ladder_windows (ladder_share *. seconds)
    (String.concat "/" (List.map (Printf.sprintf "%.0f") ladder))
    miss_rate hit_slo_ms miss_slo_ms;
  print_endline "READY";
  let rungs, capacity = run_schedule ~d ~conns ~warmed ~seed ~seconds in
  let stats = get_stats d in
  let rss = Common.peak_rss_mb (string_of_int d.pid) in
  stop_daemon ();
  List.iter report_rung rungs;
  List.iter
    (fun c -> Common.note "capacity window: %.0f hits/s, %.0f hits per daemon CPU second" c.wall_rate c.per_cpu_s)
    capacity;
  let base = List.filter (fun r -> r.mrate = 0.) rungs in
  let mixed = List.filter (fun r -> r.mrate > 0.) rungs in
  let lat f rs = Array.concat (List.map (fun r -> class_lat r f) rs) in
  if trace then report_layers ~stats ~base ~mixed ~rungs
  else begin
    (* The gated latency is the hit processing time the daemon reports in
       each response (elapsed_ms): each window's percentile, as a median
       over the hits-only windows. *)
    let server_ms r =
      Array.of_list
        (List.filter_map
           (fun (p, o) -> if is_hit p.cls && o.ok then Some o.server_ms else None)
           (List.combine (Array.to_list r.plan) (Array.to_list r.out)))
    in
    let window_pct p r = binned_percentile (server_ms r) p in
    Common.metric "p50_ms" "ms" (Common.median (List.map (window_pct 0.5) base));
    Common.metric "p90_ms" "ms" (Common.median (List.map (window_pct 0.9) base));
    Common.latency_summary "hit_server" (Array.concat (List.map server_ms base));
    Common.metric "throughput_per_s" "1/s" (Common.median (List.map (fun c -> c.per_cpu_s) capacity));
    Common.metric "peak_rss_mb" "MiB" rss;
    Common.latency_summary "hit" (lat is_hit base);
    Common.latency_summary "hit_beside_misses"
      (lat is_hit (List.filter (fun r -> r.rate = List.hd ladder) mixed));
    Common.latency_summary "miss" (lat is_miss mixed);
    let meets rate = List.for_all meets_slo (List.filter (fun r -> r.rate = rate) mixed) in
    Common.info "max_rps_at_slo" "req/s"
      (List.fold_left (fun a rate -> if meets rate then rate +. miss_rate else a) 0. ladder);
    Common.info "hit_capacity" "req/s" (Common.median (List.map (fun c -> c.wall_rate) capacity))
  end;
  List.iter
    (fun { sent; bad; _ } ->
      for _ = 1 to sent do Common.attempt () done;
      if bad > 0 then Common.fail_checks bad "serve-open: capacity-window hits failed or returned a wrong program")
    capacity;
  List.iter
    (fun r ->
      Array.iter (fun _ -> Common.attempt ()) r.out;
      List.iter
        (fun (label, f) ->
          let n = ref 0 in
          Array.iteri (fun i p -> if f p.cls && not r.out.(i).ok then incr n) r.plan;
          if !n > 0 then
            Common.fail_checks !n "serve-open: %s requests at %.0f hit/s failed or returned a wrong program"
              label r.rate)
        [ ("hit", is_hit); ("cold miss", (function Cold _ -> true | _ -> false));
          ("drift miss", (function Drift _ -> true | _ -> false)) ])
    rungs
