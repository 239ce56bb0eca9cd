(* Shared plumbing for the workloads: monotonic time, order statistics,
   the correctness-check registry, the heap sampler and the span ledger. *)

let now_ns = Monitor_obs.Clock.now_ns
let s_of_ns ns = float_of_int ns /. 1e9

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> invalid_arg "quantile: no samples"
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = truncate pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* Seconds measured so far, and whether a timed loop should stop. *)
let keep_going ~start ~seconds ~min_passes ~passes =
  passes < min_passes || s_of_ns (now_ns () - start) < seconds

(* Every timed pass starts from a compacted heap, so the garbage of set-up
   and of earlier passes is not collected on a later pass's clock. *)
let fresh_heap () = Gc.compact ()

(* Correctness checks: every failed check turns [correct] false and is
   named on stderr; the run still completes so its metrics can be read. *)
let failures = ref []

let check name ok =
  if not ok then begin
    failures := name :: !failures;
    Printf.eprintf "CHECK FAILED: %s\n%!" name
  end

let all_correct () = !failures = []

(* Peak major-heap size over a measured region: sampled at the end of
   every major cycle and at the boundaries the workloads call [sample]
   from, so a peak inside a library call is still seen by the alarm. *)
module Heap = struct
  let peak_words = Atomic.make 0

  let sample () =
    let w = (Gc.quick_stat ()).Gc.heap_words in
    let rec bump () =
      let cur = Atomic.get peak_words in
      if w > cur && not (Atomic.compare_and_set peak_words cur w) then bump ()
    in
    bump ()

  let measure f =
    Atomic.set peak_words 0;
    sample ();
    let alarm = Gc.create_alarm sample in
    Fun.protect ~finally:(fun () -> Gc.delete_alarm alarm) (fun () ->
        let r = f () in
        sample ();
        r)

  let peak_mb () =
    float_of_int (Atomic.get peak_words * (Sys.word_size / 8))
    /. (1024. *. 1024.)
end

(* The benchmark's own span recorder.  Spans are opened around public
   calls into the library from the benchmark's code, on the main domain
   only; a span's self time is its duration minus the time its child
   spans cover.  Self times are summed per span name, in memory. *)
module Ledger = struct
  type open_span = { start : int; mutable children : int }

  let enabled = ref false
  let stack : open_span list ref = ref []
  let self_ns : (string, int) Hashtbl.t = Hashtbl.create 16

  let self name = Option.value ~default:0 (Hashtbl.find_opt self_ns name)

  let span name f =
    if not !enabled then f ()
    else begin
      let s = { start = now_ns (); children = 0 } in
      stack := s :: !stack;
      Fun.protect f ~finally:(fun () ->
          let d = now_ns () - s.start in
          stack := List.tl !stack;
          (match !stack with
          | parent :: _ -> parent.children <- parent.children + d
          | [] -> ());
          Hashtbl.replace self_ns name (self name + d - s.children))
    end

  (* Run [f] with recording on; self times accumulate across calls. *)
  let record f =
    enabled := true;
    Fun.protect ~finally:(fun () -> enabled := false) f
end

(* Re-encode a decoded trace into CAN frames at the recorded times: a
   frame is emitted whenever the last signal of its message updates, the
   shape a passive tap on the simulated bus captures (as `repro simulate
   --format candump` and `repro fleet` build their frames). *)
let frames_of_trace dbc trace =
  let frames = ref [] in
  let store : (string, Monitor_signal.Value.t) Hashtbl.t = Hashtbl.create 32 in
  Monitor_trace.Trace.iter
    (fun (r : Monitor_trace.Record.t) ->
      Hashtbl.replace store r.name r.value;
      match Monitor_can.Dbc.message_of_signal dbc r.name with
      | Some m ->
        let signals = Monitor_can.Message.signal_names m in
        if String.equal (List.nth signals (List.length signals - 1)) r.name
        then
          frames :=
            (r.time, Monitor_can.Message.encode m ~lookup:(Hashtbl.find_opt store))
            :: !frames
      | None -> ())
    trace;
  List.rev !frames

(* Set-up is repeated [setup_reps] times with the run's seed; the
   repeats must generate identical inputs (compared through [key]), and
   one further, untimed generation with the next seed must differ. *)
let setup_reps = 3

let timed_setup ~seed ~key gen =
  let times = ref [] and first = ref None in
  for _ = 1 to setup_reps do
    let t0 = now_ns () in
    let x = gen seed in
    times := s_of_ns (now_ns () - t0) :: !times;
    match !first with
    | None -> first := Some x
    | Some x0 -> check "setup repeats exactly for one seed" (key x = key x0)
  done;
  let x = Option.get !first in
  check "a second seed changes the generated inputs"
    (key (gen (Int64.succ seed)) <> key x);
  (x, median !times)

(* What a workload run hands back to [Main]: the operation counts and
   every metric it measured, by name.  [Main] picks the end-to-end or
   per-layer names out of [metrics] according to [--trace]. *)
type outcome = {
  attempted : int;
  failed : int;
  workers : int;  (* worker domains of the measured pool (0: sequential) *)
  metrics : (string * float) list;
}
