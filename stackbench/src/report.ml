(* From accumulated measurements to named metrics, and the traced run. *)

open Workloads

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* The end-to-end metrics every workload reports and BENCHMARK.json gates;
   the wall-clock [rounds_per_s] is reported beside them, ungated. The
   workload-specific ones follow in {!end_to_end}. *)
let gated = [ "setup_s"; "rounds_per_cpu_s"; "alloc_words_per_event"; "heap_peak_mb" ]

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let end_to_end (w : workload) acc =
  let common =
    [
      m "setup_s" "s" (Stats.median acc.setups);
      m "rounds_per_cpu_s" "1/s" (Stats.median acc.cpu_rates);
      m "rounds_per_s" "1/s" (Stats.median acc.rates);
      m "alloc_words_per_event" "words/event"
        (Stats.ratio acc.p_words (float_of_int acc.p_steps));
      m "heap_peak_mb" "MB" (heap_peak_mb ());
    ]
  in
  let recovery =
    if w.recovery then
      [
        m "recovery_s" "s" (Stats.median acc.rec_wall);
        m "recovery_rounds" "rounds" (Stats.median (List.map float_of_int acc.rec_rounds));
      ]
    else []
  in
  let services =
    if w.services then
      [
        m "ops_per_s" "1/s" (Stats.ratio (float_of_int acc.win_ops) acc.win_wall);
        m "read_p50_rounds" "rounds" (Stats.percentile 0.5 acc.lat_read);
        m "read_p99_rounds" "rounds" (Stats.percentile 0.99 acc.lat_read);
        m "write_p50_rounds" "rounds" (Stats.percentile 0.5 acc.lat_write);
        m "write_p99_rounds" "rounds" (Stats.percentile 0.99 acc.lat_write);
      ]
    else []
  in
  common @ recovery @ services
  @ [ m "failed_ratio" "ratio" (Stats.ratio_int acc.failed acc.attempted) ]

(* --- the traced run --- *)

(* What must not change when the layers are timed: steps, rounds, ops and
   telemetry counters per prefix unit, latencies, recovery rounds and the
   check outcomes. *)
let deterministic acc =
  ( acc.digest,
    (acc.lat_read, acc.lat_write, acc.rec_rounds),
    (acc.joiners, acc.attempted, acc.failed) )

type traced = {
  plain : acc;
  timed : acc;
  faithful : bool;
  layer_shares : (string * float) list;  (** self time over the window, by layer *)
}

let run_traced (w : workload) ~seed ~prefix =
  let plain = fresh () in
  w.run ~traced:false ~seed ~mode:Prefix ~prefix plain;
  Ledger.reset ();
  let timed = fresh () in
  w.run ~traced:true ~seed ~mode:Prefix ~prefix timed;
  let wall = timed.p_wall in
  let layer_shares =
    ("sim.engine_self", Stats.ratio (Ledger.outside_seconds ~wall) wall)
    :: List.map
         (fun l -> (Ledger.name l, Stats.ratio (Ledger.self_seconds l) wall))
         Ledger.all
  in
  { plain; timed; faithful = deterministic plain = deterministic timed; layer_shares }

let top_layers t n =
  List.sort (fun (_, a) (_, b) -> Float.compare b a) t.layer_shares
  |> List.filteri (fun i _ -> i < n)

let per_layer t =
  let a = t.timed and p = t.plain in
  let share name = List.assoc name t.layer_shares in
  let per_round x = Stats.ratio_int x a.p_rounds in
  let per_op x = Stats.ratio_int x a.p_ops in
  let count x = float_of_int x in
  let sent kind = counted a ("stack.sent{kind=" ^ kind ^ "}") in
  [
    m "sim.engine_self_share" "share" (share "sim.engine_self");
    m "sim.events_per_round" "1/round" (per_round a.p_steps);
    m "sim.channel_drop_ratio" "ratio" (Stats.ratio_int a.p_dropped a.p_sent);
    m "runtime.sends_per_round" "1/round" (per_round (Ledger.call_count Ledger.Send));
    m "runtime.send_share" "share" (share "runtime.send");
    m "stack.timer_self_share" "share" (share "stack.timer");
    m "recsa.recv_share" "share" (share "recsa.recv");
    m "recsa.msgs_per_round" "1/round" (per_round (sent "sa"));
    m "recsa.resets" "count" (count (counted a "recsa.resets"));
    m "recsa.conflicts" "count" (count (counted a "recsa.conflicts"));
    m "recsa.installs" "count" (count (counted a "recsa.installs"));
    m "recma.recv_share" "share" (share "recma.recv");
    m "recma.eval_conf_calls" "count" (count (Ledger.call_count Ledger.Eval_conf));
    m "recma.triggers" "count" (count (counted a "recma.triggers"));
    m "detector.heartbeats_per_round" "1/round" (per_round (sent "heartbeat"));
    m "detector.recv_heartbeat_share" "share" (share "detector.recv_heartbeat");
    m "datalink.recv_snap_share" "share" (share "datalink.recv_snap");
    m "join.recv_share" "share" (share "join.recv");
    m "join.pass_query_calls" "count" (count (Ledger.call_count Ledger.Pass_query));
    m "join.joiners_participating" "count" (count a.joiners);
    m "faults.inject_share" "share" (share "faults.inject");
    m "plugin.recv_share" "share" (share "plugin.recv");
    m "plugin.tick_share" "share" (share "plugin.tick");
    m "app.recv_share" "share" (share "app.recv");
    m "app.msgs_per_op" "1/op" (per_op (sent "app"));
    m "counter.aborts_per_op" "1/op" (per_op (counted a "counter.aborts"));
    m "vs.installs" "count" (count (counted a "vs.installs"));
    m "vs.view_change_p50_s" "s" (Stats.median a.view_change);
    m "gc.minor_collections_per_round" "1/round" (Stats.ratio_int p.p_minors p.p_rounds);
    m "gc.promoted_words_per_event" "words/event"
      (Stats.ratio p.p_promoted (float_of_int p.p_steps));
    m "bench.harness_share" "share" (share "bench.harness");
    m "trace.overhead_ratio" "ratio" (Stats.ratio a.p_wall p.p_wall);
    m "trace.faithful" "count" (if t.faithful then 1.0 else 0.0);
  ]
