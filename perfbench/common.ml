(* Shared plumbing: the clock, sample statistics, output checks and the
   report every workload prints. *)

let now_ns () = Monotonic_clock.now ()
let now_s () = Int64.to_float (now_ns ()) *. 1e-9
let ms_between t0 t1 = (t1 -. t0) *. 1000.

(* CPU seconds (user + system) this process has used, from getrusage.
   With paravirtual steal accounting the kernel leaves out the time a
   shared host ran someone else on our vCPU, which the wall clock keeps. *)
let cpu_now_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let sorted_copy a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an already sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median xs = percentile (sorted_copy (Array.of_list xs)) 0.5
let sum a = Array.fold_left ( +. ) 0. a
let ratio num den = if den = 0. then 0. else num /. den

(* The highest of p90/p99 that keeps at least ten samples beyond it. *)
let tail_supported n p = float_of_int n *. (1. -. p) >= 10.

(* --- output checks: every failure counts against the attempts --- *)

let attempted = ref 0
let failed = ref 0

let attempt () = incr attempted

(* [n] attempts failed for the reason given. *)
let fail_checks n fmt =
  Printf.ksprintf
    (fun m ->
      failed := !failed + n;
      prerr_endline (Printf.sprintf "check failed (%d): %s" n m))
    fmt

let fail_check fmt = fail_checks 1 fmt

(* --- the report --- *)

let recorded : (string, float * string) Hashtbl.t = Hashtbl.create 64

(* Record a metric for the result line, and print it. *)
let metric name unit value =
  Hashtbl.replace recorded name (value, unit);
  Printf.printf "  %-36s %16.4f %s\n%!" name value unit

(* Print a figure that is reported by name but is not part of the result
   line (the workload-specific names and ungated percentiles). *)
let info name unit value = Printf.printf "  %-36s %16.4f %s\n%!" name value unit

let note fmt = Printf.ksprintf (fun m -> Printf.printf "  # %s\n%!" m) fmt
let section title = Printf.printf "== %s\n%!" title

(* Latency summary printed under a workload-specific prefix: median,
   p90 and p99 where the sample supports it, and the sample count. *)
let latency_summary prefix samples =
  let s = sorted_copy samples in
  let n = Array.length s in
  info (prefix ^ "_p50_ms") "ms" (percentile s 0.5);
  info (prefix ^ "_p90_ms") "ms" (percentile s 0.9);
  if tail_supported n 0.99 then info (prefix ^ "_p99_ms") "ms" (percentile s 0.99);
  note "%s: %d samples%s" prefix n
    (if tail_supported n 0.9 then "" else " (fewer than ten beyond p90)")

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

(* The machine-readable last line: RESULT and the JSON object, with
   exactly the metrics named in [names] (BENCHMARK.json's list for the
   mode). A layer the workload does not exercise reads 0: its calls were
   counted and there were none. *)
let print_result names =
  let values =
    List.map
      (fun (name, unit) ->
        match Hashtbl.find_opt recorded name with
        | Some (v, u) ->
            if u <> unit then fail_check "metric %s has unit %s, not %s" name u unit;
            if not (Float.is_finite v) then fail_check "metric %s is not finite" name;
            (name, (if Float.is_finite v then v else 0.), unit)
        | None -> (name, 0., unit))
      names
  in
  Hashtbl.iter
    (fun name _ ->
      if not (List.mem_assoc name names) then
        fail_check "metric %s is not in the benchmark's list" name)
    recorded;
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_float v) unit)
         values)
  in
  Printf.printf
    "RESULT {\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n%!"
    (!failed = 0) (max 1 !attempted) !failed body

(* --- process facts --- *)

(* VmHWM (peak resident set) of a process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> nan
            | line ->
                if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                  Scanf.sscanf
                    (String.sub line 6 (String.length line - 6))
                    " %f kB"
                    (fun kb -> kb /. 1024.)
                else go ()
          in
          go ())

let host_domains () = Domain.recommended_domain_count ()

(* A parallel setting is only meaningful when the host has the domains
   for it; anything above is reported as n/a, never as a ratio. *)
let jobs_label jobs =
  if jobs > host_domains () then Printf.sprintf "%d (n/a: host has %d domains)" jobs (host_domains ())
  else string_of_int jobs

let fp_verify_setting () =
  match Sys.getenv_opt "TUPELO_FP_VERIFY" with
  | None -> "unset"
  | Some v -> v

let fp_verify_on () =
  match String.lowercase_ascii (fp_verify_setting ()) with
  | "1" | "true" | "yes" -> true
  | _ -> false
