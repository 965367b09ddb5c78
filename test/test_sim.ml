(* Tests for the simulation kernel: pids, rng, event queue, channel, trace,
   engine. *)

open Sim

let qtest = QCheck_alcotest.to_alcotest

(* --- Pid --- *)

let test_pid_set_lex () =
  let s = Pid.set_of_list in
  Alcotest.(check bool) "equal sets" true (Pid.compare_sets_lex (s [ 1; 2 ]) (s [ 2; 1 ]) = 0);
  Alcotest.(check bool) "prefix smaller" true (Pid.compare_sets_lex (s [ 1 ]) (s [ 1; 2 ]) < 0);
  Alcotest.(check bool) "pointwise" true (Pid.compare_sets_lex (s [ 1; 3 ]) (s [ 1; 4 ]) < 0);
  Alcotest.(check bool) "empty smallest" true (Pid.compare_sets_lex Pid.Set.empty (s [ 0 ]) < 0)

let prop_pid_lex_total_order =
  QCheck.Test.make ~name:"pid set lex order is antisymmetric"
    QCheck.(pair (small_list small_nat) (small_list small_nat))
    (fun (a, b) ->
      let sa = Pid.set_of_list a and sb = Pid.set_of_list b in
      let c1 = Pid.compare_sets_lex sa sb and c2 = Pid.compare_sets_lex sb sa in
      (c1 = 0 && c2 = 0 && Pid.Set.equal sa sb) || c1 * c2 < 0)

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17);
    let f = Rng.float r in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 1.0)
  done

let test_rng_shuffle_permutes () =
  let r = Rng.create 11 in
  let l = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let s = Rng.shuffle r l in
  Alcotest.(check (list int)) "same elements" l (List.sort compare s)

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_chance_extremes () =
  let r = Rng.create 1 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=1 always" true (Rng.chance r 1.0);
    Alcotest.(check bool) "p=0 never" false (Rng.chance r 0.0)
  done

(* The first outputs of every draw at seeds 7 and 42, captured from the
   record-based splitmix64 generator this one replaced. Seeded runs depend
   on the exact stream, so any change to it must show up here. *)
type rng_pin = {
  pin_int : int list;  (** [Rng.int r 1_000_000_007] from a fresh generator *)
  pin_float : float list;
  pin_bool : bool list;
  pin_bits : int64 list;
  pin_split : int64 list;
      (** 16 [bits64] of [split] of a fresh generator, then 4 of the parent *)
  pin_copy : int64 list;  (** 16 [bits64] of a [copy] taken after 5 draws *)
}

let rng_pins =
  [
    ( 7,
      {
        pin_int =
          [ 128427146; 353689766; 855910128; 20941459; 754576360; 733039805; 107891642;
            234271554; 974465905; 333818703; 870880944; 366514466; 9145780; 938849605;
            597220120; 556042007 ];
        pin_float =
          [ 0x1.0c77123e98157p-1; 0x1.3563ef4a0babcp-2; 0x1.e1ca420e19806p-1;
            0x1.c436a0686dd2fp-1; 0x1.53ced9ff082a5p-1; 0x1.60e097496b38p-2;
            0x1.980a57f430be8p-2; 0x1.359ae713428abp-1; 0x1.9f6fe141e86bcp-1;
            0x1.6650ef5667a58p-4; 0x1.d327c95c6cbp-1; 0x1.5c87d83edafc8p-3;
            0x1.fcf2f9f0ec9f7p-1; 0x1.2561e1bfbdd69p-1; 0x1.03e46fc5851f6p-2;
            0x1.9a58e8997d2e2p-1 ];
        pin_bool =
          [ true; true; false; true; true; false; false; false; false; false; false; true;
            false; false; true; true ];
        pin_bits =
          [ 0x863b891f4c0abd4fL; 0x4d58fbd282eaf415L; 0xf0e521070cc03750L;
            0xe21b503436e97f5bL; 0xa9e76cff841529f5L; 0x583825d25ace04f8L;
            0x660295fd0c2fa166L; 0x9acd7389a1455c90L; 0xcfb7f0a0f435e0e6L;
            0x16650ef5667a5bc0L; 0xe993e4ae36580724L; 0x2b90fb07db5f92c9L;
            0xfe797cf8764fbb76L; 0x92b0f0dfdeeb4d50L; 0x40f91bf16147d9d9L;
            0xcd2c744cbe97132bL ];
        pin_split =
          [ 0xbc5c680bc83c6952L; 0xedbffbd62e8fa50eL; 0x8c58a9e76ab70dfbL;
            0x8ac4be70d4c285e0L; 0x2a66128a7a87d6e4L; 0x429269f5a505bd45L;
            0x6847efdfc8f61ee5L; 0x9922dd2235ca05c6L; 0xe8d82a6748a4a72dL;
            0xf1259ecfc97fc444L; 0x5b52f2ec3711bf0aL; 0x59b54126e78145cL;
            0xd4953212d9204f32L; 0x542429d394bd9023L; 0xb53d812f43f6ce7bL;
            0xca5efc5fdd8441ebL; 0x4d58fbd282eaf415L; 0xf0e521070cc03750L;
            0xe21b503436e97f5bL; 0xa9e76cff841529f5L ];
        pin_copy =
          [ 0x583825d25ace04f8L; 0x660295fd0c2fa166L; 0x9acd7389a1455c90L;
            0xcfb7f0a0f435e0e6L; 0x16650ef5667a5bc0L; 0xe993e4ae36580724L;
            0x2b90fb07db5f92c9L; 0xfe797cf8764fbb76L; 0x92b0f0dfdeeb4d50L;
            0x40f91bf16147d9d9L; 0xcd2c744cbe97132bL; 0xbe96e7d756b2c642L;
            0xfcc0b41fab6eb199L; 0x445cee5fef8b6e4eL; 0x2e94291eca46f5aL;
            0x89006ffa71280960L ];
      } );
    ( 42,
      {
        pin_int =
          [ 296285241; 651164127; 746698345; 969961882; 513955454; 830787710; 68281078;
            720910415; 614241470; 47234252; 153059305; 534649322; 980854083; 326366579;
            464692092; 38827289 ];
        pin_float =
          [ 0x1.31367e26140c7p-1; 0x1.486da5f92b86cp-3; 0x1.54c85f31d00d8p-3;
            0x1.896d649de031p-5; 0x1.f62d40dca5d82p-1; 0x1.e187e2fea8348p-3;
            0x1.1e0b12d313f7cp-2; 0x1.392025051c93p-3; 0x1.8578493c50ec1p-1;
            0x1.f34e1428846dcp-3; 0x1.87656a3f8c3d9p-1; 0x1.c5be13f199e4dp-1;
            0x1.ccc9f62cda7b8p-1; 0x1.494766cf71b6p-4; 0x1.36f1f7e8c90ap-5;
            0x1.b53d1af09b619p-1 ];
        pin_bool =
          [ true; true; true; false; true; true; true; false; true; true; false; false;
            false; false; false; true ];
        pin_bits =
          [ 0x989b3f130a063869L; 0x290db4bf2570ded7L; 0x2a990be63a01b2d5L;
            0xc4b6b24ef01890eL; 0xfb16a06e52ec10a7L; 0x3c30fc5fd50692c3L;
            0x4782c4b4c4fdf7c9L; 0x272404a0a3926552L; 0xc2bc249e28760ccdL;
            0x3e69c285108dbb77L; 0xc3b2b51fc61ec914L; 0xe2df09f8ccf26f14L;
            0xe664fb166d3dc14cL; 0x1494766cf71b64b6L; 0x9b78fbf46485568L;
            0xda9e8d784db0c8f7L ];
        pin_split =
          [ 0x5599b3e06d073327L; 0xd6171d07a31128dfL; 0xed057ba08584c10bL;
            0x9ea45beebee33b1cL; 0xb0d03117ca5e86c7L; 0x1fee6a4909479ccfL;
            0xede4bcce07480405L; 0x6b330122e9c444dbL; 0xaa673561b50eddcaL;
            0xab5322ea97c1f41bL; 0x906af08d9ac2e9deL; 0xc6f581110d62036aL;
            0xc203fe6568f1ba63L; 0xd8fbb83208656640L; 0xc8e4caa796a6cbabL;
            0x262281a3c6095d58L; 0x290db4bf2570ded7L; 0x2a990be63a01b2d5L;
            0xc4b6b24ef01890eL; 0xfb16a06e52ec10a7L ];
        pin_copy =
          [ 0x3c30fc5fd50692c3L; 0x4782c4b4c4fdf7c9L; 0x272404a0a3926552L;
            0xc2bc249e28760ccdL; 0x3e69c285108dbb77L; 0xc3b2b51fc61ec914L;
            0xe2df09f8ccf26f14L; 0xe664fb166d3dc14cL; 0x1494766cf71b64b6L;
            0x9b78fbf46485568L; 0xda9e8d784db0c8f7L; 0x1158ab517a8ca0d3L;
            0x394f8bb12fc92c37L; 0x1633bb32a8a81b0aL; 0xaa1d5be576d44e89L;
            0x56f1a2422b95b9b3L ];
      } );
  ]

let test_rng_stream_pinned () =
  let n = 16 in
  List.iter
    (fun (seed, p) ->
      let draws f =
        let r = Rng.create seed in
        List.init n (fun _ -> f r)
      in
      let name what = Printf.sprintf "seed %d %s" seed what in
      Alcotest.(check (list int)) (name "int") p.pin_int
        (draws (fun r -> Rng.int r 1_000_000_007));
      Alcotest.(check (list (float 0.0))) (name "float") p.pin_float (draws Rng.float);
      Alcotest.(check (list bool)) (name "bool") p.pin_bool (draws Rng.bool);
      Alcotest.(check (list int64)) (name "bits64") p.pin_bits (draws Rng.bits64);
      let r = Rng.create seed in
      let c = Rng.split r in
      let child = List.init n (fun _ -> Rng.bits64 c) in
      Alcotest.(check (list int64)) (name "split") p.pin_split
        (child @ List.init 4 (fun _ -> Rng.bits64 r));
      let r = Rng.create seed in
      for _ = 1 to 5 do
        ignore (Rng.bits64 r)
      done;
      let c = Rng.copy r in
      Alcotest.(check (list int64)) (name "copy") p.pin_copy
        (List.init n (fun _ -> Rng.bits64 c));
      Alcotest.(check (list int64)) (name "copy is independent") p.pin_copy
        (List.init n (fun _ -> Rng.bits64 r)))
    rng_pins

(* --- Event queue --- *)

let drain_kinds q =
  let rec go acc =
    if Event_queue.is_empty q then List.rev acc else go (Event_queue.pop q :: acc)
  in
  go []

let test_event_queue_sorts () =
  let q = Event_queue.create () in
  List.iter (fun at -> Event_queue.push q ~at:(float_of_int at) at) [ 5; 3; 8; 1; 9; 2; 7 ];
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 5; 7; 8; 9 ] (drain_kinds q)

let test_event_queue_empty_raises () =
  let q = Event_queue.create () in
  Alcotest.check_raises "pop empty" Not_found (fun () -> ignore (Event_queue.pop q));
  Alcotest.check_raises "min_at empty" Not_found (fun () -> ignore (Event_queue.min_at q));
  Alcotest.check_raises "NaN time" (Invalid_argument "Event_queue.push: NaN time")
    (fun () -> Event_queue.push q ~at:Float.nan 0)

(* ties at equal times pop in push order, the engine's (at, seq) order *)
let prop_event_queue_pop_order =
  QCheck.Test.make ~name:"pops in (at, seq) order"
    QCheck.(list small_int)
    (fun ats ->
      let q = Event_queue.create () in
      List.iteri (fun i at -> Event_queue.push q ~at:(float_of_int (at mod 8)) i) ats;
      let expected =
        List.mapi (fun i at -> (at mod 8, i)) ats
        |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
        |> List.map snd
      in
      drain_kinds q = expected)

(* --- Channel --- *)

let test_channel_capacity () =
  let rng = Rng.create 2 in
  let ch = Channel.create ~capacity:4 in
  for i = 1 to 20 do
    Channel.send ch rng i
  done;
  Alcotest.(check bool) "bounded" true (Channel.length ch <= 4);
  Alcotest.(check int) "sent counted" 20 (Channel.stats ch).Channel.sent;
  Alcotest.(check bool) "drops counted" true ((Channel.stats ch).Channel.dropped >= 16)

let test_channel_corrupt_and_clear () =
  let ch = Channel.create ~capacity:3 in
  Channel.corrupt ch [ 9; 8; 7; 6; 5 ];
  Alcotest.(check int) "truncated to capacity" 3 (Channel.length ch);
  Channel.clear ch;
  Alcotest.(check bool) "cleared" true (Channel.is_empty ch);
  Alcotest.check_raises "take empty" (Invalid_argument "Channel.take: empty channel")
    (fun () -> ignore (Channel.take ch (Rng.create 2)))

(* --- Trace --- *)

let test_trace_tags () =
  let tr = Trace.create () in
  Trace.record tr ~time:1.0 ~node:1 ~tag:"a" "x";
  Trace.record tr ~time:2.0 ~tag:"b" "y";
  Trace.record tr ~time:3.0 ~node:2 ~tag:"a" "z";
  Alcotest.(check int) "count a" 2 (Trace.count tr "a");
  Alcotest.(check int) "count b" 1 (Trace.count tr "b");
  match Trace.with_tag tr "a" with
  | [ e1; e2 ] ->
    Alcotest.(check string) "order" "x" e1.Trace.detail;
    Alcotest.(check string) "order" "z" e2.Trace.detail
  | _ -> Alcotest.fail "expected two entries"

(* --- Engine --- *)

(* A trivial gossip protocol: every node broadcasts its value; receivers
   keep the max. *)
type gossip = { mutable value : int; peers : Pid.t list }

let gossip_behavior pids =
  {
    Engine.init = (fun p -> { value = p * 10; peers = List.filter (fun q -> q <> p) pids });
    on_timer =
      (fun ctx s ->
        List.iter (fun q -> Engine.send ctx q s.value) s.peers;
        s);
    on_message =
      (fun _ctx _from v s ->
        if v > s.value then s.value <- v;
        s);
  }

let test_engine_gossip_converges () =
  let pids = [ 1; 2; 3; 4; 5 ] in
  let eng = Engine.create ~seed:1 ~behavior:(gossip_behavior pids) ~pids () in
  let converged t =
    List.for_all (fun p -> (Engine.state t p).value = 50) (Engine.live_pids t)
  in
  Alcotest.(check bool) "gossip converges" true (Engine.run_until eng ~max_steps:20_000 converged)

let test_engine_rounds_advance () =
  let pids = [ 1; 2; 3 ] in
  let eng = Engine.create ~seed:2 ~behavior:(gossip_behavior pids) ~pids () in
  Engine.run_rounds eng 10;
  Alcotest.(check bool) "rounds >= 10" true (Engine.rounds eng >= 10)

let test_engine_crash_stops_node () =
  let pids = [ 1; 2 ] in
  let eng = Engine.create ~seed:3 ~behavior:(gossip_behavior pids) ~pids () in
  Engine.run_rounds eng 2;
  Engine.crash eng 2;
  let v_before = (Engine.state eng 2).value in
  Engine.run_rounds eng 10;
  Alcotest.(check int) "crashed state frozen" v_before (Engine.state eng 2).value;
  Alcotest.(check (list int)) "live pids" [ 1 ] (Engine.live_pids eng)

let test_engine_add_node () =
  let pids = [ 1; 2 ] in
  (* the new node's peer list must include it for gossip; use a closure over
     all prospective pids *)
  let all = [ 1; 2; 3 ] in
  let eng = Engine.create ~seed:4 ~behavior:(gossip_behavior all) ~pids () in
  Engine.run_rounds eng 3;
  Engine.add_node eng 3;
  let converged t =
    List.for_all (fun p -> (Engine.state t p).value = 30) (Engine.live_pids t)
  in
  Alcotest.(check bool) "new node's value wins" true
    (Engine.run_until eng ~max_steps:50_000 converged)

let test_engine_partition_blocks_gossip () =
  let pids = [ 1; 2; 3; 4 ] in
  let eng = Engine.create ~seed:7 ~behavior:(gossip_behavior pids) ~pids () in
  (* cut {1,2} off from {3,4} before any gossip spreads *)
  Engine.partition eng (Pid.set_of_list [ 1; 2 ]);
  Engine.run_rounds eng 30;
  Alcotest.(check int) "max did not cross the cut" 20 (Engine.state eng 1).value;
  Alcotest.(check int) "other side kept its own max" 40 (Engine.state eng 3).value;
  (* healing lets the global max win *)
  Engine.heal eng;
  let converged t =
    List.for_all (fun p -> (Engine.state t p).value = 40) (Engine.live_pids t)
  in
  Alcotest.(check bool) "heals" true (Engine.run_until eng ~max_steps:50_000 converged)

let test_engine_block_directed_link () =
  let pids = [ 1; 2 ] in
  let eng = Engine.create ~seed:8 ~behavior:(gossip_behavior pids) ~pids () in
  Engine.block_link eng ~src:2 ~dst:1;
  Alcotest.(check bool) "blocked" true (Engine.link_blocked eng ~src:2 ~dst:1);
  Alcotest.(check bool) "reverse open" false (Engine.link_blocked eng ~src:1 ~dst:2);
  Engine.run_rounds eng 20;
  Alcotest.(check int) "1 never hears from 2" 10 (Engine.state eng 1).value;
  Alcotest.(check int) "2 hears from 1 fine" 20 (Engine.state eng 2).value;
  Engine.unblock_link eng ~src:2 ~dst:1;
  let converged t = (Engine.state t 1).value = 20 in
  Alcotest.(check bool) "recovers once unblocked" true
    (Engine.run_until eng ~max_steps:20_000 converged)

let test_engine_timer_fairness () =
  (* every live node takes timer steps at roughly the same rate: after many
     steps no node lags the round count by more than a couple of ticks *)
  let pids = [ 1; 2; 3; 4; 5; 6 ] in
  let eng = Engine.create ~seed:9 ~behavior:(gossip_behavior pids) ~pids () in
  Engine.run eng ~steps:5_000;
  let rounds = Engine.rounds eng in
  Alcotest.(check bool) "rounds advanced" true (rounds > 10);
  (* the minimum (rounds) and the per-node tick counts cannot diverge much
     given the bounded timer jitter; re-running rounds still works *)
  Engine.run_rounds eng 5;
  Alcotest.(check bool) "still fair" true (Engine.rounds eng >= rounds + 5)

let test_trace_truncation () =
  let tr = Trace.create ~limit:10 () in
  for i = 1 to 100 do
    Trace.record tr ~time:(float_of_int i) ~tag:"t" (string_of_int i)
  done;
  let entries = Trace.entries tr in
  Alcotest.(check bool) "bounded" true (List.length entries <= 20);
  (* the newest entry always survives truncation *)
  match List.rev entries with
  | last :: _ -> Alcotest.(check string) "newest kept" "100" last.Trace.detail
  | [] -> Alcotest.fail "trace empty"

let test_engine_determinism () =
  let run () =
    let pids = [ 1; 2; 3; 4 ] in
    let eng = Engine.create ~seed:99 ~behavior:(gossip_behavior pids) ~pids () in
    Engine.run eng ~steps:500;
    List.map (fun p -> (Engine.state eng p).value) pids
  in
  Alcotest.(check (list int)) "same seed, same run" (run ()) (run ())

(* rounds is now maintained incrementally (a cached min over live nodes'
   tick counts); these pin its observable behavior across the membership
   events that mutate the cache *)

let test_engine_rounds_crash_laggard () =
  let pids = [ 1; 2; 3; 4 ] in
  let eng = Engine.create ~seed:11 ~behavior:(gossip_behavior pids) ~pids () in
  Engine.run_rounds eng 6;
  let before = Engine.rounds eng in
  (* crashing nodes removes them from the min; rounds must never go
     backwards and must keep advancing for the survivors *)
  Engine.crash eng 1;
  Alcotest.(check bool) "monotone after crash" true (Engine.rounds eng >= before);
  Engine.crash eng 2;
  let mid = Engine.rounds eng in
  Alcotest.(check bool) "monotone after second crash" true (mid >= before);
  Engine.run_rounds eng 5;
  Alcotest.(check bool) "still advances" true (Engine.rounds eng >= mid + 5)

let test_engine_rounds_all_crashed () =
  let pids = [ 1; 2 ] in
  let eng = Engine.create ~seed:12 ~behavior:(gossip_behavior pids) ~pids () in
  Engine.run_rounds eng 4;
  Engine.crash eng 1;
  Engine.crash eng 2;
  Alcotest.(check int) "no live nodes -> rounds 0" 0 (Engine.rounds eng);
  (* double crash is a no-op, not cache corruption *)
  Engine.crash eng 1;
  Alcotest.(check int) "idempotent crash" 0 (Engine.rounds eng)

let test_engine_rounds_add_node () =
  let all = [ 1; 2; 3 ] in
  let eng = Engine.create ~seed:13 ~behavior:(gossip_behavior all) ~pids:[ 1; 2 ] () in
  Engine.run_rounds eng 7;
  let before = Engine.rounds eng in
  (* a joiner starts at the current round, so the min is unchanged *)
  Engine.add_node eng 3;
  Alcotest.(check int) "join keeps rounds" before (Engine.rounds eng);
  Engine.run_rounds eng 5;
  Alcotest.(check bool) "advances with joiner" true (Engine.rounds eng >= before + 5)

let test_engine_run_rounds_unchanged () =
  (* same seed => same step count to reach the round target, same trace
     length, same final states — i.e. the O(1) rounds cache did not change
     what run_rounds does *)
  let run () =
    let pids = [ 1; 2; 3; 4; 5 ] in
    let eng = Engine.create ~seed:21 ~behavior:(gossip_behavior pids) ~pids () in
    Engine.run_rounds eng 12;
    ( Engine.rounds eng,
      Engine.steps eng,
      List.length (Trace.entries (Engine.trace eng)),
      List.map (fun p -> (Engine.state eng p).value) pids )
  in
  let r1, s1, t1, v1 = run () in
  let r2, s2, t2, v2 = run () in
  Alcotest.(check bool) "round target reached" true (r1 >= 12);
  Alcotest.(check int) "same rounds" r1 r2;
  Alcotest.(check int) "same steps" s1 s2;
  Alcotest.(check int) "same trace length" t1 t2;
  Alcotest.(check (list int)) "same final states" v1 v2

(* --- Channel ring buffer vs the list reference model --- *)

(* The previous Channel implementation: a plain list with the same RNG
   draw discipline. The ring buffer must agree with it op for op — seeded
   runs depend on that equivalence. *)
module Ref_channel = struct
  type 'a t = {
    cap : int;
    mutable q : 'a list;
    mutable sent : int;
    mutable dropped : int;
    mutable delivered : int;
    mutable duplicated : int;
  }

  let create ~capacity =
    { cap = capacity; q = []; sent = 0; dropped = 0; delivered = 0; duplicated = 0 }

  let remove_nth l n =
    let rec go i acc = function
      | [] -> assert false
      | x :: rest ->
        if i = n then (x, List.rev_append acc rest) else go (i + 1) (x :: acc) rest
    in
    go 0 [] l

  let replace_nth l n v = List.mapi (fun i x -> if i = n then v else x) l

  let send t rng pkt =
    t.sent <- t.sent + 1;
    let len = List.length t.q in
    if len < t.cap then t.q <- t.q @ [ pkt ]
    else begin
      t.dropped <- t.dropped + 1;
      if Rng.bool rng then t.q <- replace_nth t.q (Rng.int rng len) pkt
    end

  let take t rng =
    match t.q with
    | [] -> None
    | _ ->
      let pkt, rest = remove_nth t.q (Rng.int rng (List.length t.q)) in
      t.q <- rest;
      t.delivered <- t.delivered + 1;
      Some pkt

  let duplicate_head t =
    match t.q with
    | hd :: _ when List.length t.q < t.cap ->
      t.q <- t.q @ [ hd ];
      t.duplicated <- t.duplicated + 1
    | _ -> ()

  let drop_one t rng =
    match t.q with
    | [] -> ()
    | _ ->
      let _, rest = remove_nth t.q (Rng.int rng (List.length t.q)) in
      t.q <- rest;
      t.dropped <- t.dropped + 1

  let corrupt t pkts =
    let rec take_n n = function
      | x :: rest when n > 0 -> x :: take_n (n - 1) rest
      | _ -> []
    in
    t.q <- take_n t.cap pkts
end

let test_channel_matches_list_model () =
  List.iter
    (fun seed ->
      let rng_ring = Rng.create seed and rng_ref = Rng.create seed in
      let ops = Rng.create (seed * 31) in
      let ring = Channel.create ~capacity:4 in
      let refc = Ref_channel.create ~capacity:4 in
      for i = 1 to 2_000 do
        (match Rng.int ops 8 with
        | 0 | 1 | 2 | 3 ->
          Channel.send ring rng_ring i;
          Ref_channel.send refc rng_ref i
        | 4 | 5 ->
          let a =
            if Channel.is_empty ring then None else Some (Channel.take ring rng_ring)
          in
          let b = Ref_channel.take refc rng_ref in
          Alcotest.(check (option int)) "take" b a
        | 6 ->
          Channel.duplicate_head ring;
          Ref_channel.duplicate_head refc
        | _ ->
          Channel.drop_one ring rng_ring;
          Ref_channel.drop_one refc rng_ref);
        Alcotest.(check (list int)) "contents agree" refc.Ref_channel.q
          (Channel.contents ring)
      done;
      (* corruption resets contents through a different path *)
      Channel.corrupt ring [ 7; 8; 9; 10; 11 ];
      Ref_channel.corrupt refc [ 7; 8; 9; 10; 11 ];
      Alcotest.(check (list int)) "contents after corrupt" refc.Ref_channel.q
        (Channel.contents ring);
      let st = Channel.stats ring in
      Alcotest.(check int) "sent" refc.Ref_channel.sent st.Channel.sent;
      Alcotest.(check int) "dropped" refc.Ref_channel.dropped st.Channel.dropped;
      Alcotest.(check int) "delivered" refc.Ref_channel.delivered st.Channel.delivered;
      Alcotest.(check int) "duplicated" refc.Ref_channel.duplicated st.Channel.duplicated)
    [ 1; 17; 4242 ]

(* --- Event queue vs a sorted-list model, interleaved pushes and pops --- *)

(* Times are drawn from 40 values (some fractional), so most pushes tie
   with a queued event and the push-order tie-break decides the order.
   Each event's kind is its push index, so a misordered tie shows. *)
let test_event_queue_matches_sorted_model () =
  let before (a_at, a_seq) (b_at, b_seq) =
    let c = Float.compare a_at b_at in
    if c <> 0 then c else Int.compare a_seq b_seq
  in
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let q = Event_queue.create () in
      let model = ref [] in
      let pushes = ref 0 in
      for _ = 1 to 3_000 do
        if Rng.int rng 3 < 2 || !model = [] then begin
          let at = float_of_int (Rng.int rng 40) /. 4.0 in
          Event_queue.push q ~at !pushes;
          model := List.merge before [ (at, !pushes) ] !model;
          incr pushes
        end
        else begin
          match !model with
          | (at, seq) :: rest ->
            Alcotest.(check (float 0.0)) "min_at is min" at (Event_queue.min_at q);
            Alcotest.(check int) "pop is min" seq (Event_queue.pop q);
            model := rest
          | [] -> assert false
        end;
        Alcotest.(check int) "size agrees" (List.length !model) (Event_queue.size q)
      done)
    [ 2; 23 ]

(* --- pids/live_pids caches survive membership changes --- *)

let test_engine_pids_cache_invalidation () =
  let all = [ 1; 2; 3; 4 ] in
  let eng = Engine.create ~seed:31 ~behavior:(gossip_behavior all) ~pids:[ 3; 1; 2 ] () in
  Alcotest.(check (list int)) "pids sorted" [ 1; 2; 3 ] (Engine.pids eng);
  (* hit the cache once, then mutate membership *)
  Alcotest.(check (list int)) "live = pids" (Engine.pids eng) (Engine.live_pids eng);
  Engine.add_node eng 4;
  Alcotest.(check (list int)) "pids after join" [ 1; 2; 3; 4 ] (Engine.pids eng);
  Alcotest.(check (list int)) "live after join" [ 1; 2; 3; 4 ] (Engine.live_pids eng);
  Engine.crash eng 2;
  Alcotest.(check (list int)) "pids keep crashed node" [ 1; 2; 3; 4 ] (Engine.pids eng);
  Alcotest.(check (list int)) "live drop crashed node" [ 1; 3; 4 ] (Engine.live_pids eng);
  (* crash is idempotent on the cache *)
  Engine.crash eng 2;
  Alcotest.(check (list int)) "idempotent crash" [ 1; 3; 4 ] (Engine.live_pids eng)

let suites =
  [
    ( "sim.pid",
      [
        Alcotest.test_case "set lex order" `Quick test_pid_set_lex;
        qtest prop_pid_lex_total_order;
      ] );
    ( "sim.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "bounds" `Quick test_rng_bounds;
        Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
        Alcotest.test_case "stream pinned" `Quick test_rng_stream_pinned;
      ] );
    ( "sim.event_queue",
      [
        Alcotest.test_case "sorts" `Quick test_event_queue_sorts;
        Alcotest.test_case "empty raises" `Quick test_event_queue_empty_raises;
        Alcotest.test_case "matches sorted-list model" `Quick
          test_event_queue_matches_sorted_model;
        qtest prop_event_queue_pop_order;
      ] );
    ( "sim.channel",
      [
        Alcotest.test_case "capacity bound" `Quick test_channel_capacity;
        Alcotest.test_case "corrupt and clear" `Quick test_channel_corrupt_and_clear;
        Alcotest.test_case "matches list reference model" `Quick
          test_channel_matches_list_model;
      ] );
    ( "sim.trace",
      [
        Alcotest.test_case "tags" `Quick test_trace_tags;
        Alcotest.test_case "truncation" `Quick test_trace_truncation;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "gossip converges" `Quick test_engine_gossip_converges;
        Alcotest.test_case "rounds advance" `Quick test_engine_rounds_advance;
        Alcotest.test_case "crash stops node" `Quick test_engine_crash_stops_node;
        Alcotest.test_case "add node" `Quick test_engine_add_node;
        Alcotest.test_case "partition blocks gossip" `Quick test_engine_partition_blocks_gossip;
        Alcotest.test_case "directed link block" `Quick test_engine_block_directed_link;
        Alcotest.test_case "timer fairness" `Quick test_engine_timer_fairness;
        Alcotest.test_case "determinism" `Quick test_engine_determinism;
        Alcotest.test_case "rounds: crash laggard" `Quick test_engine_rounds_crash_laggard;
        Alcotest.test_case "rounds: all crashed" `Quick test_engine_rounds_all_crashed;
        Alcotest.test_case "rounds: add node" `Quick test_engine_rounds_add_node;
        Alcotest.test_case "run_rounds unchanged" `Quick test_engine_run_rounds_unchanged;
        Alcotest.test_case "pids cache invalidation" `Quick
          test_engine_pids_cache_invalidation;
      ] );
  ]
