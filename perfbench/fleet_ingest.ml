(* Workload [fleet]: [sessions] per-VIN sessions, each watching its own
   seeded Bernoulli-lossy view of one seeded drive, served by one fleet.
   Frames are decoded once per tap during set-up, as `repro fleet` does,
   and the per-session losses are drawn during set-up too, so the
   measured region is ingest, pump and drain only.  Two kinds of pass
   alternate until the time is up:

   - saturating (closed loop): ingest one tap for every session, pump,
     repeat; then drain.  Gives ns_per_frame.
   - paced (open loop): tap k is due at k / [paced_rate] seconds, well
     below capacity; each tap's latency runs from its due time to the
     return of the pump that stepped it. *)

open Common
module Fleet = Monitor_fleet.Fleet
module Channel = Monitor_inject.Channel
module Prng = Monitor_util.Prng
module Pool = Monitor_util.Pool
module Sim = Monitor_hil.Sim
module Oracle = Monitor_oracle.Oracle
module Feed = Monitor_trace.Multirate.Feed
module Online = Monitor_mtl.Online
module Plan = Monitor_mtl.Plan
module Spec = Monitor_mtl.Spec

let dbc = Monitor_fsracc.Io.dbc
let specs = Monitor_oracle.Rules.all
let sessions = 1000
let loss = 0.05

(* 2.2 s of bus traffic is ~1040 taps: enough paced samples that the
   p99 latency has ten samples beyond it. *)
let drive_seconds = 2.2

(* Taps per second in the paced phase: ~100 k frames/s, well under the
   saturating capacity of two workers. *)
let paced_rate = 100.0

(* The end-to-end figures come from a fleet that steps its shards in the
   producer's domain ([Pool] with one domain spawns no workers).  With
   worker domains on a 2-core host, every pump hands eight shards over
   and waits for them, a thousand times a pass, and the wall time swung
   2x between runs with the host's scheduling.  The pool's effect is
   measured by the traced run's pool.speedup and pool.busy_frac. *)
let serving_domains = 1

let config seed =
  { (Fleet.default_config ~specs) with
    Fleet.periods = Monitor_can.Dbc.signal_period dbc;
    seed;
    record_verdicts = false }

let vins = Array.init sessions (Printf.sprintf "VIN%05d")

(* One tap: a frame's time and decoded updates, and which sessions'
   lossy channels deliver it (one byte per session).  Kept free of
   per-frame heap blocks, so the inputs add almost nothing to the major
   GC's work; the [Fleet.frame]s are built as they are ingested, as a
   server builds them on arrival. *)
type tap = {
  time : float;
  updates : (string * Monitor_signal.Value.t) list;
  delivered : Bytes.t;
}

let generate seed =
  let scenario = Monitor_hil.Scenario.steady_follow ~duration:drive_seconds () in
  let result = Sim.run (Sim.default_config ~seed scenario) in
  let channels =
    Array.init sessions (fun i ->
        Channel.model ~seed:(Prng.derive seed (100_000 + i)) (Channel.Bernoulli loss))
  in
  frames_of_trace dbc result.Sim.trace
  |> List.map (fun (time, frame) ->
         { time;
           updates = Monitor_can.Dbc.decode_frame dbc frame;
           delivered =
             Bytes.init sessions (fun i ->
                 match channels.(i) ~time frame with
                 | `Deliver -> '\001'
                 | `Drop | `Corrupt -> '\000') })
  |> Array.of_list

let describe taps =
  Digest.string
    (String.concat "\n"
       (Array.to_list
          (Array.map
             (fun t -> Printf.sprintf "%h;%s" t.time (Bytes.to_string t.delivered))
             taps)))

(* The sessions' frames of one tap, in session order. *)
let iter_frames f tap =
  Bytes.iteri
    (fun i d ->
      if d = '\001' then
        f { Fleet.vin = vins.(i); time = tap.time; updates = tap.updates })
    tap.delivered

type counts = { offered : int; shed : int; rejected : int }

let ingest_tap fleet c tap =
  let c = ref c in
  iter_frames
    (fun f ->
      let k = !c in
      c :=
        match Fleet.ingest fleet f with
        | `Accepted -> { k with offered = k.offered + 1 }
        | `Shed _ -> { k with offered = k.offered + 1; shed = k.shed + 1 }
        | `Rejected -> { k with offered = k.offered + 1; rejected = k.rejected + 1 })
    tap;
  !c

let zero = { offered = 0; shed = 0; rejected = 0 }

(* Frame conservation and drain idempotence, untimed. *)
let check_summary fleet c (s : Fleet.summary) =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 s.sessions in
  check "fleet: offered = admitted + shed + rejected"
    (c.offered
     = sum (fun r -> r.Fleet.s_frames) + sum (fun r -> r.Fleet.s_dropped)
       + s.shed_total + s.rejected_total
    && c.shed = s.shed_total && c.rejected = s.rejected_total);
  check "fleet: a second shutdown returns the same summary"
    (Fleet.shutdown fleet = s)

(* One closed-loop pass over every tap, from the first ingest to the
   return of the drain. *)
let saturate ~pool cfg taps =
  fresh_heap ();
  let fleet = Fleet.create ~pool cfg in
  let c = ref zero in
  let t0 = now_ns () in
  Array.iter
    (fun tap ->
      c := Ledger.span "fleet.ingest" (fun () -> ingest_tap fleet !c tap);
      Ledger.span "fleet.pump" (fun () -> Fleet.pump fleet))
    taps;
  let summary = Ledger.span "fleet.shutdown" (fun () -> Fleet.shutdown fleet) in
  let wall = float_of_int (now_ns () - t0) in
  check_summary fleet !c summary;
  (summary, !c, wall)

(* The open loop.  The first tap, which creates every session, is
   ingested and pumped before the clock starts; tap k >= 1 is then due at
   [start + (k - 1) / paced_rate]. *)
let paced ~pool cfg taps =
  fresh_heap ();
  let fleet = Fleet.create ~pool cfg in
  let c = ref (ingest_tap fleet zero taps.(0)) in
  Fleet.pump fleet;
  let period = 1e9 /. paced_rate in
  let start = now_ns () + 1_000_000 in
  let latency = ref [] and lag = ref [] in
  for k = 1 to Array.length taps - 1 do
    let due = start + int_of_float (float_of_int (k - 1) *. period) in
    let rec wait () =
      let ahead = due - now_ns () in
      if ahead > 0 then begin
        if ahead > 1_000_000 then Unix.sleepf (float_of_int (ahead - 500_000) /. 1e9);
        wait ()
      end
    in
    wait ();
    lag := float_of_int (now_ns () - due) :: !lag;
    c := ingest_tap fleet !c taps.(k);
    Fleet.pump fleet;
    latency := float_of_int (now_ns () - due) :: !latency
  done;
  let summary = Fleet.shutdown fleet in
  check_summary fleet !c summary;
  (summary, !latency, !lag)

(* Each session's delivered (time, updates) stream, by VIN. *)
let per_session taps =
  let h = Hashtbl.create sessions in
  Array.iter
    (iter_frames (fun (f : Fleet.frame) ->
         let l = Option.value ~default:[] (Hashtbl.find_opt h f.vin) in
         Hashtbl.replace h f.vin ((f.time, f.updates) :: l)))
    taps;
  Hashtbl.fold (fun vin l acc -> (vin, List.rev l) :: acc) h []
  |> List.sort compare

(* Every clean served session's digest must equal the isolated oracle's
   over the frames it was delivered. *)
let check_digests cfg streams (s : Fleet.summary) =
  let clean = ref 0 in
  List.iter
    (fun (r : Fleet.session_summary) ->
      match r.s_disposition with
      | Fleet.Served when r.s_restarts = 0 && r.s_faults = [] && r.s_dropped = 0
                          && r.s_shed = 0 ->
        incr clean;
        let _, digest =
          Fleet.isolated_stream ~periods:cfg.Fleet.periods ~specs
            (Option.value ~default:[] (List.assoc_opt r.s_vin streams))
        in
        check ("fleet: digest of " ^ r.s_vin ^ " equals the isolated oracle")
          (digest = r.s_digest)
      | _ -> ())
    s.sessions;
  check "fleet: every session served cleanly" (!clean = sessions)

(* Replay of the fleet's per-session work outside the fleet: the same
   delivered frames through [Feed.observe] and [Online.Fused], timed
   separately.  What pump and drain spend beyond this is the residual. *)
let replay cfg streams =
  let staleness =
    Oracle.stale_deadlines ~k:cfg.Fleet.watchdog_k ~periods:cfg.periods
  in
  let wrapped = List.map (Spec.stale_guarded ?hold:cfg.stale_hold) cfg.specs in
  let plan = Plan.compile wrapped in
  let feed_ns = ref 0 and fused_ns = ref 0 and ticks = ref 0 in
  List.iter
    (fun (_, frames) ->
      let t0 = now_ns () in
      let feed = Feed.create ~staleness ~period:cfg.period () in
      let snaps = ref [] in
      let emit s = snaps := s :: !snaps in
      List.iter (fun (time, ups) -> Feed.observe feed ~time ups emit) frames;
      Feed.drain feed emit;
      let snaps = List.rev !snaps in
      let t1 = now_ns () in
      let m = Online.Fused.create ~shared:(Online.shared_for wrapped) plan in
      List.iter (fun s -> Online.Fused.step_iter m s (fun _ _ _ _ -> ())) snaps;
      Online.Fused.finalize_iter m (fun _ _ _ _ -> ());
      feed_ns := !feed_ns + (t1 - t0);
      fused_ns := !fused_ns + (now_ns () - t1);
      ticks := !ticks + List.length snaps)
    streams;
  (float_of_int !feed_ns, float_of_int !fused_ns, !ticks, plan)

let admitted c = c.offered - c.rejected

let failed_frames c (s : Fleet.summary) =
  c.shed + c.rejected
  + List.fold_left (fun acc r -> acc + r.Fleet.s_dropped) 0 s.sessions

let tallies (s : Fleet.summary) =
  let sum f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 s.sessions) in
  [ ("trace.ticks", sum (fun r -> r.Fleet.s_ticks));
    ("oracle.ticks_true", sum (fun r -> r.Fleet.s_true));
    ("oracle.ticks_false", sum (fun r -> r.Fleet.s_false));
    ("oracle.ticks_unknown", sum (fun r -> r.Fleet.s_unknown)) ]

let run ~seed ~seconds ~traced =
  let taps, setup_s = timed_setup ~seed ~key:describe generate in
  let cfg = config seed in
  let nproc = Domain.recommended_domain_count () in
  let reference = ref None in
  let same_as_reference what (s : Fleet.summary) =
    match !reference with
    | None ->
      check_digests cfg (per_session taps) s;
      reference := Some s
    | Some r -> check ("fleet: " ^ what ^ " summary repeats exactly") (s = r)
  in
  let with_pool n f =
    let pool = Pool.create ~num_domains:n () in
    let r = Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool) in
    (r, pool)
  in
  if not traced then begin
    (* Saturating and paced passes alternate until the time is up, so
       both kinds of sample are spread over the whole run. *)
    let passes = ref [] and latency = ref [] in
    let (c, s), pool =
      with_pool serving_domains (fun pool ->
          Heap.measure (fun () ->
              let start = now_ns () in
              let last = ref None in
              while
                keep_going ~start ~seconds ~min_passes:2
                  ~passes:(List.length !passes)
              do
                let s, c, wall = saturate ~pool cfg taps in
                Printf.eprintf "fleet: plain pass %.3f s\n%!" (wall /. 1e9);
                same_as_reference "saturating" s;
                passes := (c, wall) :: !passes;
                let s, l, _ = paced ~pool cfg taps in
                same_as_reference "paced" s;
                latency := l @ !latency;
                last := Some (c, s);
                Heap.sample ()
              done;
              Option.get !last))
    in
    let latency = !latency in
    let n = List.length !passes in
    { attempted = c.offered * n;
      failed = failed_frames c s * n;
      workers = Pool.num_domains pool;
      metrics =
        tallies s
        @ [ ("fail_ratio", float_of_int (failed_frames c s) /. float_of_int c.offered);
            ("ns_per_frame",
             median (List.map (fun (c, w) -> w /. float_of_int (admitted c)) !passes));
            ("tick_latency_p50_ms", median latency /. 1e6);
            ("tick_latency_p99_ms", quantile 0.99 latency /. 1e6);
            ("setup_s", setup_s);
            ("peak_heap_mb", Heap.peak_mb ()) ] }
  end
  else begin
    (* Plain and traced passes alternate on one sequential pool (three
       plain, two traced): the overhead compares their mean walls. *)
    let seq = Pool.create ~num_domains:1 () in
    let plain () =
      let s, _, wall = saturate ~pool:seq cfg taps in
      same_as_reference "sequential" s;
      wall
    in
    let traced () =
      Ledger.record (fun () ->
          let s, c, wall = saturate ~pool:seq cfg taps in
          same_as_reference "traced" s;
          (s, c, wall))
    in
    let p1 = plain () in
    let s_traced, c, t1 = traced () in
    let p2 = plain () in
    let _, _, t2 = traced () in
    let p3 = plain () in
    let self n = float_of_int (Ledger.self n) /. 2.0 in
    let ingest, pump, shutdown =
      (self "fleet.ingest", self "fleet.pump", self "fleet.shutdown")
    in
    let wall_traced = (t1 +. t2) /. 2.0 in
    let wall_seq = (p1 +. p2 +. p3) /. 3.0 in
    Pool.shutdown seq;
    let (s_par, _, wall_par), pool = with_pool nproc (fun pool -> saturate ~pool cfg taps) in
    same_as_reference "parallel" s_par;
    let stats = Pool.stats pool in
    let (s_paced, _, lag), _ =
      with_pool serving_domains (fun pool -> paced ~pool cfg taps)
    in
    same_as_reference "paced" s_paced;
    let feed, fused, ticks, plan = replay cfg (per_session taps) in
    let tally = tallies s_par in
    check "fleet: the replay cuts as many ticks as the fleet stepped"
      (float_of_int ticks = List.assoc "trace.ticks" tally);
    let busy =
      Array.fold_left (fun acc (w : Pool.worker_stats) -> acc + w.busy_ns) 0
        stats.workers
    in
    let frames = float_of_int (admitted c) in
    let covered = (ingest +. pump +. shutdown) /. wall_traced in
    { attempted = c.offered;
      failed = failed_frames c s_traced;
      workers = Pool.num_domains pool;
      metrics =
        tally
        @ [ ("fail_ratio", float_of_int (failed_frames c s_traced) /. float_of_int c.offered);
            ("fleet.ingest_ns_per_frame", ingest /. frames);
            ("fleet.pump_ns_per_frame", pump /. frames);
            ("fleet.shutdown_ms", shutdown /. 1e6);
            ("fleet.pump_residual_frac", 1.0 -. ((feed +. fused) /. (pump +. shutdown)));
            ("fleet.queue_high_water",
             float_of_int
               (List.fold_left
                  (fun acc (sh : Fleet.shard_summary) -> max acc sh.sh_queue_high_water)
                  0 s_par.shard_stats));
            ("fleet.shed", float_of_int s_par.shed_total);
            ("fleet.rejected", float_of_int s_par.rejected_total);
            ("fleet.generator_lag_ms", quantile 0.99 lag /. 1e6);
            ("trace.feed_ns_per_tick", feed /. float_of_int ticks);
            ("mtl.online_ns_per_tick", fused /. float_of_int ticks);
            ("mtl.plan_nodes", float_of_int (Plan.node_count plan));
            ("mtl.plan_shared", float_of_int (Plan.shared_count plan));
            ("pool.busy_frac",
             float_of_int busy /. (float_of_int (Array.length stats.workers) *. wall_par));
            ("pool.tasks", float_of_int stats.tasks_completed);
            ("pool.queue_high_water", float_of_int stats.queue_high_water);
            ("pool.speedup", wall_seq /. wall_par);
            ("ledger.fleet_frac", covered);
            ("ledger.coverage_frac", covered);
            ("ledger.uncovered_frac", 1.0 -. covered);
            ("obs.trace_overhead_frac", (wall_traced /. wall_seq) -. 1.0) ] }
  end
