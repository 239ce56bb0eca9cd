(* Workload [offline_check]: one long seeded road-mode drive rendered to
   candump text, checked the way `repro check --robust` checks a log.
   Every measured pass runs in a fresh child process, so each one pays
   what a one-shot invocation pays (cold heap, no warmed caches). *)

open Common
module Candump = Monitor_can.Candump
module Sim = Monitor_hil.Sim
module Oracle = Monitor_oracle.Oracle
module Vacuity = Monitor_oracle.Vacuity
module Report = Monitor_oracle.Report
module Columns = Monitor_trace.Columns
module Plan = Monitor_mtl.Plan
module Plan_exec = Monitor_mtl.Plan_exec
module Offline = Monitor_mtl.Offline
module Verdict = Monitor_mtl.Verdict

let dbc = Monitor_fsracc.Io.dbc
let specs = Monitor_oracle.Rules.all
let drive_seconds = 600.0
let min_passes = 3

let generate seed =
  let scenario =
    Monitor_hil.Scenario.urban_following ~duration:drive_seconds ()
  in
  let result = Sim.run (Sim.default_config ~environment:Sim.Road ~seed scenario) in
  Candump.to_string (frames_of_trace dbc result.Sim.trace)

(* The measured region: candump text to the rendered report, including
   the vacuity notes `repro check` prints. *)
let pipeline text =
  let frames =
    Ledger.span "can.parse" (fun () ->
        match Candump.of_string text with
        | Ok (frames, _) -> frames
        | Error msg -> failwith ("candump: " ^ msg))
  in
  let trace = Ledger.span "can.decode" (fun () -> Candump.decode dbc frames) in
  let outcomes =
    Ledger.span "oracle.check" (fun () -> Oracle.check ~robust:true specs trace)
  in
  let vacuity =
    Ledger.span "oracle.vacuity" (fun () -> Vacuity.analyze_many specs trace)
  in
  let report =
    Ledger.span "oracle.report" (fun () ->
        Report.render_outcomes outcomes
        ^ String.concat ""
            (List.filter_map
               (fun (v : Vacuity.t) ->
                 if v.vacuous then Some (Vacuity.render v) else None)
               vacuity))
  in
  (frames, trace, outcomes, report)

let pipeline_stages =
  [ "can.parse"; "can.decode"; "oracle.check"; "oracle.vacuity"; "oracle.report" ]

(* Verdict tallies summed over rules, the counts that must repeat. *)
let tallies (outcomes : Oracle.rule_outcome list) =
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  [ ("ticks", (List.hd outcomes).Oracle.ticks_total);
    ("ticks_true", sum (fun o -> o.Oracle.ticks_true));
    ("ticks_false", sum (fun o -> o.Oracle.ticks_false));
    ("ticks_unknown", sum (fun o -> o.Oracle.ticks_unknown)) ]

(* The stages inside [Oracle.check], called one by one on the same trace
   after the timed pipeline: they explain the check's time but are not
   part of the end-to-end wall. *)
let decompose trace =
  let snaps =
    Ledger.span "trace.snapshots" (fun () ->
        Array.of_list (Oracle.snapshots_of_trace trace))
  in
  let cols = Ledger.span "trace.columns" (fun () -> Columns.of_snapshots snaps) in
  let plan = Ledger.span "mtl.plan_compile" (fun () -> Plan.compile specs) in
  ignore (Ledger.span "mtl.eval" (fun () -> Plan_exec.eval_columns plan snaps cols));
  ignore
    (Ledger.span "mtl.eval_robust" (fun () ->
         Plan_exec.eval_columns_robust plan snaps cols));
  (Plan.node_count plan, Plan.shared_count plan)

(* Child process: one pass over the candump file, results as
   "key value" lines on stdout. *)
let child ~file ~traced =
  let text = In_channel.with_open_bin file In_channel.input_all in
  let pass () =
    let t0 = now_ns () in
    let frames, trace, outcomes, report = pipeline text in
    let wall = now_ns () - t0 in
    let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
    let counts = tallies outcomes in
    let extra =
      if not traced then []
      else begin
        let nodes, shared = decompose trace in
        ("plan_nodes", nodes) :: ("plan_shared", shared)
        :: List.map (fun n -> ("self." ^ n, Ledger.self n))
             (pipeline_stages
             @ [ "trace.snapshots"; "trace.columns"; "mtl.plan_compile";
                 "mtl.eval"; "mtl.eval_robust" ])
      end
    in
    List.iter
      (fun (k, v) -> Printf.printf "%s %d\n" k v)
      ((("wall_ns", wall) :: ("frames", List.length frames)
        :: ("top_heap_words", top_heap) :: counts)
      @ extra);
    Printf.printf "digest %s\n" (Digest.to_hex (Digest.string report))
  in
  if traced then Ledger.record pass else pass ()

let spawn_child ~file ~traced =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      [| exe; "--child-offline"; file; "--trace"; (if traced then "1" else "0") |]
  in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "offline_check: child pass failed");
  List.filter_map
    (fun line ->
      match String.index_opt line ' ' with
      | Some i ->
        Some (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
      | None -> None)
    (String.split_on_char '\n' out)

let int_field kv k = int_of_string (List.assoc k kv)

(* Untimed reference: the fused verdicts behind [Oracle.check] must equal
   the naive reference evaluator's, rule by rule, and the outcome's tick
   tallies and episodes must be the naive verdicts'. *)
let check_against_naive trace (outcomes : Oracle.rule_outcome list) =
  let snaps = Array.of_list (Oracle.snapshots_of_trace trace) in
  let fused =
    Plan_exec.eval_columns (Plan.compile specs) snaps (Columns.of_snapshots snaps)
  in
  let shape (e : Oracle.episode) = (e.start_time, e.end_time, e.ticks) in
  List.iteri
    (fun r (spec : Monitor_mtl.Spec.t) ->
      let naive = Offline.Naive.eval_array spec snaps in
      let o = List.nth outcomes r in
      let v = naive.Offline.verdicts in
      let name what = Printf.sprintf "offline_check: %s %s" spec.name what in
      check (name "fused verdicts equal naive") (v = fused.(r).Offline.verdicts);
      check (name "tallies equal naive")
        (Array.length v = o.ticks_total
        && Offline.count v Verdict.True = o.ticks_true
        && Offline.count v Verdict.False = o.ticks_false
        && Offline.count v Verdict.Unknown = o.ticks_unknown);
      check (name "episodes equal naive")
        (List.map shape (Oracle.episodes_of_verdicts ~times:naive.Offline.times v)
        = List.map shape o.episodes))
    specs

let run ~seed ~seconds ~traced =
  let text, setup_s = timed_setup ~seed ~key:Digest.string generate in
  let dir = Filename.concat "perfbench" ".work" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let file = Filename.concat dir (Printf.sprintf "offline-%d.log" (Unix.getpid ())) in
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let frames, trace, outcomes, report = pipeline text in
  let nframes = List.length frames in
  let _, undecodable = Candump.decode_diagnosed dbc frames in
  let undecodable = List.length undecodable in
  check_against_naive trace outcomes;
  let expected = ("frames", nframes) :: tallies outcomes in
  let digest = Digest.to_hex (Digest.string report) in
  let pass ~traced =
    let kv = spawn_child ~file ~traced in
    Printf.eprintf "offline_check: %s pass %.3f s\n%!"
      (if traced then "traced" else "plain")
      (float_of_int (int_field kv "wall_ns") /. 1e9);
    check "offline_check: pass renders the reference report"
      (List.assoc "digest" kv = digest);
    List.iter
      (fun (k, v) ->
        check ("offline_check: pass repeats count " ^ k) (int_field kv k = v))
      expected;
    kv
  in
  let wall kv = float_of_int (int_field kv "wall_ns") in
  let ticks = List.assoc "ticks" expected in
  let base =
    [ ("fail_ratio", float_of_int undecodable /. float_of_int nframes);
      ("can.undecodable", float_of_int undecodable);
      ("trace.ticks", float_of_int ticks) ]
    @ List.map
        (fun (k, v) -> ("oracle." ^ k, float_of_int v))
        (List.tl (tallies outcomes))
  in
  let passes = ref [] in
  let start = now_ns () in
  if not traced then begin
    while
      keep_going ~start ~seconds ~min_passes ~passes:(List.length !passes)
    do
      passes := pass ~traced:false :: !passes
    done;
    let walls = List.map wall !passes in
    let heaps =
      List.map
        (fun kv ->
          float_of_int (int_field kv "top_heap_words" * (Sys.word_size / 8))
          /. (1024. *. 1024.))
        !passes
    in
    { attempted = nframes * List.length !passes;
      failed = undecodable * List.length !passes;
      workers = 0;
      metrics =
        base
        @ [ ("ns_per_frame", median walls /. float_of_int nframes);
            ("tick_latency_p50_ms", median walls /. 1e6);
            ("tick_latency_p99_ms", quantile 0.99 walls /. 1e6);
            ("setup_s", setup_s);
            ("peak_heap_mb", median heaps) ] }
  end
  else begin
    (* Alternate plain and traced passes so drift hits both alike. *)
    let plain = ref [] in
    while
      keep_going ~start ~seconds ~min_passes ~passes:(List.length !passes)
    do
      plain := pass ~traced:false :: !plain;
      passes := pass ~traced:true :: !passes
    done;
    (* Sums over the traced passes, so the stage shares of one wall add up. *)
    let sum f = List.fold_left (fun acc kv -> acc +. f kv) 0.0 !passes in
    let traced_wall = sum wall in
    let self n = sum (fun kv -> float_of_int (int_field kv ("self." ^ n))) in
    let npasses = float_of_int (List.length !passes) in
    let per_frame n = self n /. npasses /. float_of_int nframes in
    let per_tick n = self n /. npasses /. float_of_int ticks in
    let frac n = self n /. traced_wall in
    let covered = List.fold_left (fun acc n -> acc +. frac n) 0.0 pipeline_stages in
    let check_parts =
      List.fold_left
        (fun acc n -> acc +. self n)
        0.0
        [ "trace.snapshots"; "trace.columns"; "mtl.plan_compile"; "mtl.eval";
          "mtl.eval_robust" ]
    in
    let kv0 = List.hd !passes in
    { attempted = nframes * List.length !passes;
      failed = undecodable * List.length !passes;
      workers = 0;
      metrics =
        base
        @ [ ("can.parse_ns_per_frame", per_frame "can.parse");
            ("can.decode_ns_per_frame", per_frame "can.decode");
            ("trace.snapshots_ns_per_tick", per_tick "trace.snapshots");
            ("trace.columns_ns_per_tick", per_tick "trace.columns");
            ("mtl.plan_compile_us", self "mtl.plan_compile" /. npasses /. 1e3);
            ("mtl.plan_nodes", float_of_int (int_field kv0 "plan_nodes"));
            ("mtl.plan_shared", float_of_int (int_field kv0 "plan_shared"));
            ("mtl.eval_ns_per_tick", per_tick "mtl.eval");
            ("mtl.eval_robust_ns_per_tick", per_tick "mtl.eval_robust");
            ("oracle.check_ns_per_tick", per_tick "oracle.check");
            ("oracle.check_unexplained_frac", 1.0 -. (check_parts /. self "oracle.check"));
            ("oracle.vacuity_ns_per_tick", per_tick "oracle.vacuity");
            ("oracle.report_us", self "oracle.report" /. npasses /. 1e3);
            ("ledger.can_frac", frac "can.parse" +. frac "can.decode");
            ("ledger.oracle_frac",
             frac "oracle.check" +. frac "oracle.vacuity" +. frac "oracle.report");
            ("ledger.coverage_frac", covered);
            ("ledger.uncovered_frac", 1.0 -. covered);
            ("obs.trace_overhead_frac",
             (traced_wall /. List.fold_left (fun acc kv -> acc +. wall kv) 0.0 !plain)
             -. 1.0) ] }
  end
