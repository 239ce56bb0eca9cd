(* Workload [campaign]: a fixed seeded slice of the Table I campaign
   (one value per Random/Ballista test, one flip per size, one value per
   multi-target test: 48 injections plus the nominal run) through
   [Table1.run] on a pool of nproc worker domains.  Many short traces:
   the simulator dominates and the oracle's fixed per-trace costs are
   paid once per run. *)

open Common
module Table1 = Monitor_experiments.Table1
module Campaign = Monitor_inject.Campaign
module Sim = Monitor_hil.Sim
module Pool = Monitor_util.Pool
module Oracle = Monitor_oracle.Oracle
module Vacuity = Monitor_oracle.Vacuity

let specs = Monitor_oracle.Rules.all
let min_passes = 2

let options seed =
  { Table1.seed; values_per_test = 1; flips_per_size = 1;
    multi_values_per_test = 1 }

(* The scenario [Table1]'s own runner simulates for every run. *)
let scenario () =
  Monitor_hil.Scenario.steady_follow
    ~duration:(Campaign.default_start +. Campaign.hold_duration +. 12.0) ()

type inputs = { rows : Campaign.row list; nominal : Sim.result }

(* Set-up: the slice's injection plans, and one nominal simulation whose
   frame count is every run's (the bus schedule does not depend on the
   injected values; the traced run asserts it). *)
let generate seed =
  let o = options seed in
  { rows =
      Campaign.table1 ~seed ~values_per_test:o.values_per_test
        ~flips_per_size:o.flips_per_size
        ~multi_values_per_test:o.multi_values_per_test ();
    nominal = Sim.run (Sim.default_config (scenario ())) }

let describe inputs =
  List.concat_map
    (fun (row : Campaign.row) ->
      List.map
        (fun (r : Campaign.run) ->
          r.run_label
          ^ String.concat ""
              (List.map
                 (fun (t, cmd) ->
                   Printf.sprintf " %h:%s" t
                     (match cmd with
                     | Sim.Set (s, v) ->
                       s ^ "=" ^ Monitor_signal.Value.to_string v
                     | Sim.Set_transform (s, _) -> s ^ "~"
                     | Sim.Clear s -> "clear " ^ s
                     | Sim.Clear_all -> "clear"))
                 r.plan))
        row.runs)
    inputs.rows
  |> String.concat "\n"
  |> fun plans -> (plans, inputs.nominal.Sim.frames_captured)

(* Verdict tallies over every completed injection run. *)
let tallies (t : Table1.t) =
  let outs =
    List.concat_map (fun (r : Table1.row_result) -> List.concat r.outcomes_per_run)
      t.rows
  in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outs in
  ( sum (fun o -> o.Oracle.ticks_true),
    sum (fun o -> o.Oracle.ticks_false),
    sum (fun o -> o.Oracle.ticks_unknown) )

let timed f =
  fresh_heap ();
  let t0 = now_ns () in
  let x = f () in
  (x, float_of_int (now_ns () - t0))

let run ~seed ~seconds ~traced =
  let inputs, setup_s = timed_setup ~seed ~key:describe generate in
  let options = options seed in
  let nruns =
    1 + List.fold_left (fun acc (r : Campaign.row) -> acc + List.length r.runs)
          0 inputs.rows
  in
  let frames_per_run = inputs.nominal.Sim.frames_captured in
  let nproc = Domain.recommended_domain_count () in
  let reference = ref None in
  let check_table (t : Table1.t) =
    check "campaign: nominal row is all S"
      (t.nominal_letters <> [] && List.for_all (String.equal "S") t.nominal_letters);
    check "campaign: no run errored" (t.errored = []);
    check "campaign: every run executed" (t.runs_executed = nruns);
    let key = (Table1.rendered t, tallies t) in
    match !reference with
    | None -> reference := Some key
    | Some k ->
      check "campaign: rendering and tallies repeat byte-identically" (key = k)
  in
  let common t =
    let tt, tf, tu = tallies t in
    [ ("fail_ratio", float_of_int (List.length t.Table1.errored) /. float_of_int nruns);
      ("oracle.ticks_true", float_of_int tt);
      ("oracle.ticks_false", float_of_int tf);
      ("oracle.ticks_unknown", float_of_int tu) ]
  in
  if not traced then begin
    let pool = Pool.create ~num_domains:nproc () in
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
    let walls = ref [] and last = ref None in
    let start = now_ns () in
    Heap.measure (fun () ->
        while
          keep_going ~start ~seconds ~min_passes ~passes:(List.length !walls)
        do
          let t, wall = timed (fun () -> Table1.run ~options ~pool ()) in
          walls := wall :: !walls;
          Printf.eprintf "campaign: plain pass %.3f s\n%!" (wall /. 1e9);
          check_table t;
          last := Some t;
          Heap.sample ()
        done);
    let t = Option.get !last in
    let passes = List.length !walls in
    { attempted = nruns * passes;
      failed = List.length t.errored * passes;
      workers = Pool.num_domains pool;
      metrics =
        common t
        @ [ ("ns_per_frame",
             median !walls /. float_of_int (nruns * frames_per_run));
            ("tick_latency_p50_ms", median !walls /. 1e6);
            ("tick_latency_p99_ms", quantile 0.99 !walls /. 1e6);
            ("setup_s", setup_s);
            ("peak_heap_mb", Heap.peak_mb ()) ] }
  end
  else begin
    (* Table1's own run step, with spans around each public call. *)
    let frames = ref [] and bits = ref 0 and ticks = ref 0 in
    let runner plan =
      let result =
        Ledger.span "hil.sim" (fun () ->
            Sim.run ~plan (Sim.default_config (scenario ())))
      in
      frames := result.Sim.frames_captured :: !frames;
      bits := !bits + result.Sim.bus_bits;
      let outcomes =
        Ledger.span "oracle.check" (fun () ->
            Oracle.check ~robust:true specs result.Sim.trace)
      in
      ticks := !ticks + (List.hd outcomes).Oracle.ticks_total;
      ( outcomes,
        Ledger.span "oracle.vacuity" (fun () ->
            Vacuity.analyze_many specs result.Sim.trace) )
    in
    (* Plain, traced, plain on one sequential pool: the overhead compares
       the traced pass with the mean of the plain passes around it. *)
    let seq = Pool.create ~num_domains:1 () in
    let t_seq, wall_before = timed (fun () -> Table1.run ~options ~pool:seq ()) in
    let t_traced, wall_traced =
      Ledger.record (fun () ->
          timed (fun () -> Table1.run ~options ~pool:seq ~runner ()))
    in
    let self n = float_of_int (Ledger.self n) in
    let sim, chk, vac = (self "hil.sim", self "oracle.check", self "oracle.vacuity") in
    let _, wall_after = timed (fun () -> Table1.run ~options ~pool:seq ()) in
    let wall_seq = (wall_before +. wall_after) /. 2.0 in
    Pool.shutdown seq;
    let pool = Pool.create ~num_domains:nproc () in
    let t_par, wall_par = timed (fun () -> Table1.run ~options ~pool ()) in
    Pool.shutdown pool;
    let stats = Pool.stats pool in
    List.iter check_table [ t_traced; t_seq; t_par ];
    check "campaign: the pool ran one task per run" (stats.tasks_completed = nruns);
    check "campaign: every run captures the nominal frame count"
      (List.length !frames = nruns
      && List.for_all (( = ) frames_per_run) !frames);
    let nominal_trace = inputs.nominal.Sim.trace in
    let reps = 5 in
    let nodes, shared =
      Ledger.record (fun () ->
          let r = ref (0, 0) in
          for _ = 1 to reps do
            r := Offline_check.decompose nominal_trace
          done;
          !r)
    in
    let nominal_ticks = List.length (Oracle.snapshots_of_trace nominal_trace) in
    let per_nominal_tick n =
      self n /. float_of_int (reps * nominal_ticks)
    in
    let busy =
      Array.fold_left (fun acc (w : Pool.worker_stats) -> acc + w.busy_ns) 0
        stats.workers
    in
    let covered = (sim +. chk +. vac) /. wall_traced in
    { attempted = nruns;
      failed = List.length t_traced.errored;
      workers = Pool.num_domains pool;
      metrics =
        common t_traced
        @ [ ("hil.sim_ms_per_run", sim /. 1e6 /. float_of_int nruns);
            ("hil.frames_per_run", float_of_int frames_per_run);
            ("hil.bus_bits_per_run", float_of_int !bits /. float_of_int nruns);
            ("trace.ticks", float_of_int !ticks);
            ("oracle.check_ns_per_tick", chk /. float_of_int !ticks);
            ("oracle.vacuity_ns_per_tick", vac /. float_of_int !ticks);
            ("trace.snapshots_ns_per_tick", per_nominal_tick "trace.snapshots");
            ("trace.columns_ns_per_tick", per_nominal_tick "trace.columns");
            ("mtl.eval_ns_per_tick", per_nominal_tick "mtl.eval");
            ("mtl.eval_robust_ns_per_tick", per_nominal_tick "mtl.eval_robust");
            ("mtl.plan_compile_us", self "mtl.plan_compile" /. 1e3 /. float_of_int reps);
            ("mtl.plan_nodes", float_of_int nodes);
            ("mtl.plan_shared", float_of_int shared);
            ("pool.busy_frac",
             float_of_int busy
             /. (float_of_int (Array.length stats.workers) *. wall_par));
            ("pool.tasks", float_of_int stats.tasks_completed);
            ("pool.queue_high_water", float_of_int stats.queue_high_water);
            ("pool.speedup", wall_seq /. wall_par);
            ("ledger.hil_frac", sim /. wall_traced);
            ("ledger.oracle_frac", (chk +. vac) /. wall_traced);
            ("ledger.coverage_frac", covered);
            ("ledger.uncovered_frac", 1.0 -. covered);
            ("obs.trace_overhead_frac", (wall_traced /. wall_seq) -. 1.0) ] }
  end
