(* Tests for the self-stabilizing data-link substrate: token exchange,
   snap-stabilizing cleaning, reliable FIFO delivery. *)

open Sim
module TL = Datalink.Token_link
module SL = Datalink.Snap_link
module FL = Datalink.Fifo_link

let qtest = QCheck_alcotest.to_alcotest

(* Drive one sender/receiver pair over two lossy bounded channels until the
   predicate holds or the step budget runs out. *)
let drive_token ~seed ~capacity ~loss ~steps sender receiver pred =
  let rng = Rng.create seed in
  let to_recv = Channel.create ~capacity and to_send = Channel.create ~capacity in
  let rec go n =
    if pred () then true
    else if n = 0 then false
    else begin
      (* sender retransmits *)
      Channel.send to_recv rng (TL.Sender.on_tick sender);
      (* receiver drains, acks *)
      (if not (Channel.is_empty to_recv) then
         let m = Channel.take to_recv rng ~reorder:true in
         if not (Rng.chance rng loss) then
           let _, ack = TL.Receiver.on_msg receiver m in
           match ack with Some a -> Channel.send to_send rng a | None -> ());
      (* sender drains acks *)
      (if not (Channel.is_empty to_send) then
         let m = Channel.take to_send rng ~reorder:true in
         if not (Rng.chance rng loss) then ignore (TL.Sender.on_msg sender m));
      go (n - 1)
    end
  in
  go steps

let test_token_exchange_progress () =
  let s = TL.Sender.create ~capacity:4 "hello" in
  let r = TL.Receiver.create ~capacity:4 () in
  let ok =
    drive_token ~seed:5 ~capacity:4 ~loss:0.1 ~steps:20_000 s r (fun () ->
        TL.Sender.tokens s >= 10)
  in
  Alcotest.(check bool) "10 tokens exchanged" true ok;
  Alcotest.(check bool) "receiver delivered" true (TL.Receiver.delivered r >= 10)

let test_token_payload_update () =
  let s = TL.Sender.create ~capacity:2 0 in
  let r = TL.Receiver.create ~capacity:2 () in
  TL.Sender.offer s 42;
  let ok =
    drive_token ~seed:6 ~capacity:2 ~loss:0.0 ~steps:5_000 s r (fun () ->
        TL.Sender.tokens s >= 2)
  in
  Alcotest.(check bool) "exchanges happened" true ok

let test_token_survives_corruption () =
  let s = TL.Sender.create ~capacity:4 "x" in
  let r = TL.Receiver.create ~capacity:4 () in
  TL.Sender.corrupt s ~seq:(-37) ~acks:9999;
  TL.Receiver.corrupt r ~window:[ 0; 1; 2; 3; 99 ];
  let ok =
    drive_token ~seed:7 ~capacity:4 ~loss:0.05 ~steps:20_000 s r (fun () ->
        TL.Sender.tokens s >= 5)
  in
  Alcotest.(check bool) "recovers from arbitrary state" true ok

let prop_token_alternating_bit =
  QCheck.Test.make ~name:"token seq advances exactly once per token"
    QCheck.(int_range 1 6)
    (fun capacity ->
      let s = TL.Sender.create ~capacity 0 in
      let seq0 = TL.Sender.seq s in
      (* feed exactly 2*capacity+1 matching acks: one token *)
      let rec feed n last =
        if n = 0 then last
        else feed (n - 1) (TL.Sender.on_msg s (TL.Ack { seq = TL.Sender.seq s }))
      in
      let last = feed ((2 * capacity) + 1) `Waiting in
      last = `Token_returned
      && TL.Sender.seq s = (seq0 + 1) mod TL.Sender.modulus s
      && TL.Sender.tokens s = 1)

let test_snap_link_completes () =
  let rng = Rng.create 8 in
  let cap = 3 in
  let a = SL.create ~capacity:cap ~self:1 ~peer:2 ~nonce:77 in
  let b = SL.create ~capacity:cap ~self:2 ~peer:1 ~nonce:88 in
  let ab = Channel.create ~capacity:cap and ba = Channel.create ~capacity:cap in
  (* stale garbage predating the handshake *)
  Channel.corrupt ab [ SL.Clean { src = 9; dst = 9; nonce = 0 } ];
  let rec go n =
    if n = 0 then ()
    else begin
      (match SL.on_tick a with Some m -> Channel.send ab rng m | None -> ());
      (match SL.on_tick b with Some m -> Channel.send ba rng m | None -> ());
      (if not (Channel.is_empty ab) then
         match SL.on_msg b (Channel.take ab rng ~reorder:true) with
         | Some reply, _ -> Channel.send ba rng reply
         | None, _ -> ());
      (if not (Channel.is_empty ba) then
         match SL.on_msg a (Channel.take ba rng ~reorder:true) with
         | Some reply, _ -> Channel.send ab rng reply
         | None, _ -> ());
      if SL.phase a = SL.Clean_done && SL.phase b = SL.Clean_done then ()
      else go (n - 1)
    end
  in
  go 10_000;
  Alcotest.(check bool) "a clean" true (SL.phase a = SL.Clean_done);
  Alcotest.(check bool) "b clean" true (SL.phase b = SL.Clean_done);
  Alcotest.(check bool) "acks exceeded round-trip capacity" true (SL.acks a > 2 * cap)

let test_snap_link_ignores_foreign_labels () =
  let a = SL.create ~capacity:2 ~self:1 ~peer:2 ~nonce:5 in
  (* a Clean packet whose labels do not match the link must be ignored *)
  let reply, _ = SL.on_msg a (SL.Clean { src = 3; dst = 1; nonce = 5 }) in
  Alcotest.(check bool) "no ack for foreign src" true (reply = None);
  let reply, _ = SL.on_msg a (SL.Clean { src = 2; dst = 9; nonce = 5 }) in
  Alcotest.(check bool) "no ack for foreign dst" true (reply = None);
  (* matching labels are acknowledged *)
  let reply, _ = SL.on_msg a (SL.Clean { src = 2; dst = 1; nonce = 5 }) in
  Alcotest.(check bool) "ack for matching" true (reply <> None)

let test_snap_link_wrong_nonce_acks_ignored () =
  let a = SL.create ~capacity:2 ~self:1 ~peer:2 ~nonce:5 in
  for _ = 1 to 100 do
    ignore (SL.on_msg a (SL.Clean_ack { src = 2; dst = 1; nonce = 999 }))
  done;
  Alcotest.(check bool) "still cleaning" true (SL.phase a = SL.Cleaning)

(* Drive a FIFO link over lossy channels. *)
let drive_fifo ~seed ~capacity ~loss ~steps link pred =
  let rng = Rng.create seed in
  let fwd = Channel.create ~capacity and back = Channel.create ~capacity in
  let rec go n =
    if pred () then true
    else if n = 0 then false
    else begin
      Channel.send fwd rng (FL.sender_tick link);
      (if not (Channel.is_empty fwd) then
         let m = Channel.take fwd rng ~reorder:true in
         if not (Rng.chance rng loss) then
           let _, ack = FL.receiver_on_msg link m in
           match ack with Some a -> Channel.send back rng a | None -> ());
      (if not (Channel.is_empty back) then
         let m = Channel.take back rng ~reorder:true in
         if not (Rng.chance rng loss) then FL.sender_on_msg link m);
      go (n - 1)
    end
  in
  go steps

let test_fifo_in_order_exactly_once () =
  let link = FL.create ~capacity:3 in
  let msgs = List.init 10 (fun i -> i) in
  List.iter (FL.enqueue link) msgs;
  let ok =
    drive_fifo ~seed:9 ~capacity:3 ~loss:0.1 ~steps:100_000 link (fun () ->
        List.length (FL.received link) >= 10)
  in
  Alcotest.(check bool) "all delivered" true ok;
  Alcotest.(check (list int)) "in order, exactly once" msgs (FL.received link)

let prop_fifo_delivers_prefix =
  QCheck.Test.make ~name:"fifo delivery is always a prefix of the sends" ~count:30
    QCheck.(pair (int_range 0 1000) (int_range 1 15))
    (fun (seed, k) ->
      let link = FL.create ~capacity:2 in
      let msgs = List.init k (fun i -> i) in
      List.iter (FL.enqueue link) msgs;
      ignore (drive_fifo ~seed ~capacity:2 ~loss:0.15 ~steps:3_000 link (fun () -> false));
      let got = FL.received link in
      let rec is_prefix a b =
        match (a, b) with
        | [], _ -> true
        | x :: a', y :: b' -> x = y && is_prefix a' b'
        | _ :: _, [] -> false
      in
      is_prefix got msgs)

(* --- link over the simulation engine --- *)

module LR = Datalink.Link_runner

let test_runner_delivers_over_engine () =
  let lr = LR.create ~seed:13 ~loss:0.1 ~sender:1 ~receiver:2 () in
  let msgs = List.init 8 (fun i -> i * 11) in
  List.iter (LR.send lr) msgs;
  Alcotest.(check bool) "all delivered over the engine" true
    (LR.run_until lr ~max_steps:200_000 (fun t -> List.length (LR.received t) >= 8));
  Alcotest.(check (list int)) "in order" msgs (LR.received lr);
  Alcotest.(check bool) "tokens kept flowing" true (LR.tokens lr >= 8)

let test_runner_survives_partition () =
  let lr = LR.create ~seed:14 ~loss:0.05 ~sender:1 ~receiver:2 () in
  LR.send lr 1;
  Alcotest.(check bool) "first delivered" true
    (LR.run_until lr ~max_steps:100_000 (fun t -> LR.received t = [ 1 ]));
  (* cut the link both ways; nothing can move *)
  Engine.partition (LR.engine lr) (Pid.set_of_list [ 1 ]);
  LR.send lr 2;
  LR.run_rounds lr 30;
  Alcotest.(check (list int)) "nothing crossed the cut" [ 1 ] (LR.received lr);
  (* heal: the retransmission machinery pushes it through *)
  Engine.heal (LR.engine lr);
  Alcotest.(check bool) "delivered after heal" true
    (LR.run_until lr ~max_steps:200_000 (fun t -> LR.received t = [ 1; 2 ]))

let test_runner_heartbeat_counts () =
  let lr = LR.create ~seed:15 ~sender:3 ~receiver:4 () in
  LR.run_rounds lr 60;
  (* even with no application traffic the token keeps being exchanged,
     providing the failure-detector heartbeat *)
  Alcotest.(check bool) "tokens without messages" true (LR.tokens lr >= 3);
  Alcotest.(check (list int)) "no spurious deliveries" [] (LR.received lr)

let suites =
  [
    ( "datalink.token",
      [
        Alcotest.test_case "exchange progresses over loss" `Quick test_token_exchange_progress;
        Alcotest.test_case "payload update" `Quick test_token_payload_update;
        Alcotest.test_case "survives corruption" `Quick test_token_survives_corruption;
        qtest prop_token_alternating_bit;
      ] );
    ( "datalink.snap",
      [
        Alcotest.test_case "handshake completes" `Quick test_snap_link_completes;
        Alcotest.test_case "foreign labels ignored" `Quick test_snap_link_ignores_foreign_labels;
        Alcotest.test_case "wrong nonce ignored" `Quick test_snap_link_wrong_nonce_acks_ignored;
      ] );
    ( "datalink.fifo",
      [
        Alcotest.test_case "in order exactly once" `Quick test_fifo_in_order_exactly_once;
        qtest prop_fifo_delivers_prefix;
      ] );
    ( "datalink.runner",
      [
        Alcotest.test_case "delivers over engine" `Quick test_runner_delivers_over_engine;
        Alcotest.test_case "survives partition" `Quick test_runner_survives_partition;
        Alcotest.test_case "heartbeats without traffic" `Quick test_runner_heartbeat_counts;
      ] );
  ]
