(* End-to-end benchmark of the three user paths.

   main.exe --workload offline_check|campaign|fleet --seed N --seconds S
            --trace 0|1 [--commit SHA]

   Prints every metric by name and unit, a metadata line, and as the last
   line of stdout one JSON object {correct, attempted, failed, metrics}:
   the end-to-end metrics with --trace 0, the per-layer ledger of a
   separate traced run with --trace 1.  See perfbench/README.md. *)

(* name, unit — must match BENCHMARK.json. *)
let end_to_end =
  [ ("ns_per_frame", "ns/frame");
    ("tick_latency_p50_ms", "ms");
    ("tick_latency_p99_ms", "ms");
    ("setup_s", "s");
    ("peak_heap_mb", "MB") ]

let per_layer =
  [ ("can.parse_ns_per_frame", "ns/frame");
    ("can.decode_ns_per_frame", "ns/frame");
    ("can.undecodable", "count");
    ("trace.snapshots_ns_per_tick", "ns/tick");
    ("trace.columns_ns_per_tick", "ns/tick");
    ("trace.feed_ns_per_tick", "ns/tick");
    ("trace.ticks", "count");
    ("mtl.plan_compile_us", "us");
    ("mtl.plan_nodes", "count");
    ("mtl.plan_shared", "count");
    ("mtl.eval_ns_per_tick", "ns/tick");
    ("mtl.eval_robust_ns_per_tick", "ns/tick");
    ("mtl.online_ns_per_tick", "ns/tick");
    ("oracle.check_ns_per_tick", "ns/tick");
    ("oracle.check_unexplained_frac", "fraction");
    ("oracle.vacuity_ns_per_tick", "ns/tick");
    ("oracle.report_us", "us");
    ("oracle.ticks_true", "count");
    ("oracle.ticks_false", "count");
    ("oracle.ticks_unknown", "count");
    ("hil.sim_ms_per_run", "ms");
    ("hil.frames_per_run", "count");
    ("hil.bus_bits_per_run", "count");
    ("pool.busy_frac", "fraction");
    ("pool.tasks", "count");
    ("pool.queue_high_water", "count");
    ("pool.speedup", "x");
    ("fleet.ingest_ns_per_frame", "ns/frame");
    ("fleet.pump_ns_per_frame", "ns/frame");
    ("fleet.shutdown_ms", "ms");
    ("fleet.pump_residual_frac", "fraction");
    ("fleet.queue_high_water", "count");
    ("fleet.shed", "count");
    ("fleet.rejected", "count");
    ("fleet.generator_lag_ms", "ms");
    ("ledger.can_frac", "fraction");
    ("ledger.oracle_frac", "fraction");
    ("ledger.hil_frac", "fraction");
    ("ledger.fleet_frac", "fraction");
    ("ledger.coverage_frac", "fraction");
    ("ledger.uncovered_frac", "fraction");
    ("obs.trace_overhead_frac", "fraction");
    ("fail_ratio", "fraction") ]

let workloads =
  [ ("offline_check", Offline_check.run);
    ("campaign", Campaign_run.run);
    ("fleet", Fleet_ingest.run) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload offline_check|campaign|fleet --seed N \
     --seconds S --trace 0|1 [--commit SHA]";
  exit 2

let json_string s = Printf.sprintf "%S" s

(* A metric value in JSON, with all its digits; a non-finite value is a
   broken measurement and fails the run. *)
let json_number name v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else begin
    Common.check ("finite value for " ^ name) false;
    "0"
  end

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  match get "child-offline" with
  | Some file -> Offline_check.child ~file ~traced:(get "trace" = Some "1")
  | None ->
    let workload, seed, seconds, traced =
      match (get "workload", get "seed", get "seconds", get "trace") with
      | Some w, Some s, Some secs, Some t -> (
        match
          ( List.assoc_opt w workloads,
            Int64.of_string_opt s,
            float_of_string_opt secs,
            t )
        with
        | Some _, Some s, Some secs, ("0" | "1") when secs > 0.0 ->
          (w, s, secs, t = "1")
        | _ -> usage ())
      | _ -> usage ()
    in
    let run = List.assoc workload workloads in
    let t0 = Common.now_ns () in
    let o = run ~seed ~seconds ~traced in
    let elapsed = Common.s_of_ns (Common.now_ns () - t0) in
    let table = if traced then per_layer else end_to_end in
    let rows =
      List.map
        (fun (name, unit) ->
          match List.assoc_opt name o.Common.metrics with
          | Some v -> (name, v, unit)
          | None ->
            (* A per-layer metric the workload does not exercise. *)
            if not traced then Common.check ("measured " ^ name) false;
            (name, 0.0, unit))
        table
    in
    List.iter
      (fun (name, v, unit) -> Printf.printf "%-32s %16.6f %s\n" name v unit)
      rows;
    let meta =
      [ ("workload", json_string workload);
        ("seed", Int64.to_string seed);
        ("trace", if traced then "1" else "0");
        ("run_seconds", Printf.sprintf "%g" seconds);
        ("elapsed_s", Printf.sprintf "%.3f" elapsed);
        ("nproc", string_of_int (Domain.recommended_domain_count ()));
        ("workers", string_of_int o.Common.workers);
        ("ocaml", json_string Sys.ocaml_version);
        ("commit", json_string (Option.value ~default:"unknown" (get "commit"))) ]
    in
    Printf.printf "{\"meta\": {%s}}\n"
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) meta));
    let metrics =
      List.map
        (fun (name, v, unit) ->
          Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
            (json_number name v) (json_string unit))
        rows
    in
    Printf.printf
      "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
      (Common.all_correct ()) (max 1 o.Common.attempted) o.Common.failed
      (String.concat ", " metrics)
