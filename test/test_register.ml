(* Tests for the quorum-based MWMR register emulation (two-phase read/write
   with counter tags). *)

open Sim
open Register

let set = Pid.set_of_list

let make ?(seed = 42) ?(n = 4) () =
  let members = List.init n (fun i -> i + 1) in
  Reconfig.Stack.of_scenario ~hooks:(Register_service.hooks ())
    (Reconfig.Scenario.make ~seed ~n_bound:16 ~members ())

let app sys p = (Reconfig.Stack.node sys p).Reconfig.Stack.app

let test_write_then_read () =
  let sys = make () in
  Reconfig.Stack.run_rounds sys 20;
  Register_service.write (app sys 1) ~rid:1 "x" 33;
  Alcotest.(check bool) "write completes" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Register_service.write_done (app t 1) ~rid:1));
  Register_service.read (app sys 3) ~rid:1 "x";
  Alcotest.(check bool) "read completes" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Register_service.find_read (app t 3) ~rid:1 <> None));
  Alcotest.(check (option (option int))) "read returns the written value"
    (Some (Some 33))
    (Register_service.find_read (app sys 3) ~rid:1)

let test_read_unwritten () =
  let sys = make ~seed:2 () in
  Reconfig.Stack.run_rounds sys 20;
  Register_service.read (app sys 2) ~rid:5 "ghost";
  Alcotest.(check bool) "read completes" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Register_service.find_read (app t 2) ~rid:5 <> None));
  Alcotest.(check (option (option int))) "unwritten reads as None" (Some None)
    (Register_service.find_read (app sys 2) ~rid:5)

let test_last_writer_wins () =
  let sys = make ~seed:3 () in
  Reconfig.Stack.run_rounds sys 20;
  Register_service.write (app sys 1) ~rid:1 "r" 10;
  Alcotest.(check bool) "first write" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Register_service.write_done (app t 1) ~rid:1));
  Register_service.write (app sys 2) ~rid:1 "r" 20;
  Alcotest.(check bool) "second write" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Register_service.write_done (app t 2) ~rid:1));
  Register_service.read (app sys 4) ~rid:9 "r";
  Alcotest.(check bool) "read completes" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Register_service.find_read (app t 4) ~rid:9 <> None));
  Alcotest.(check (option (option int))) "sees the later write" (Some (Some 20))
    (Register_service.find_read (app sys 4) ~rid:9)

let test_concurrent_writers_agree () =
  let sys = make ~seed:4 () in
  Reconfig.Stack.run_rounds sys 20;
  Register_service.write (app sys 1) ~rid:1 "c" 100;
  Register_service.write (app sys 2) ~rid:1 "c" 200;
  Alcotest.(check bool) "both writes complete" true
    (Reconfig.Stack.run_until sys ~max_steps:900_000 (fun t ->
         Register_service.write_done (app t 1) ~rid:1
         && Register_service.write_done (app t 2) ~rid:1));
  (* two sequential reads at different nodes must agree on the winner *)
  Register_service.read (app sys 3) ~rid:1 "c";
  Alcotest.(check bool) "read 1" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Register_service.find_read (app t 3) ~rid:1 <> None));
  Register_service.read (app sys 4) ~rid:1 "c";
  Alcotest.(check bool) "read 2" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Register_service.find_read (app t 4) ~rid:1 <> None));
  let r3 = Register_service.find_read (app sys 3) ~rid:1 in
  let r4 = Register_service.find_read (app sys 4) ~rid:1 in
  Alcotest.(check bool) "one of the written values" true
    (r3 = Some (Some 100) || r3 = Some (Some 200));
  Alcotest.(check bool) "sequential reads agree" true (r3 = r4)

let test_read_monotonic_after_writeback () =
  (* atomicity: once a read returned v, any later read returns v or newer *)
  let sys = make ~seed:5 () in
  Reconfig.Stack.run_rounds sys 20;
  Register_service.write (app sys 1) ~rid:1 "m" 7;
  Alcotest.(check bool) "write" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Register_service.write_done (app t 1) ~rid:1));
  Register_service.read (app sys 2) ~rid:1 "m";
  Alcotest.(check bool) "read a" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Register_service.find_read (app t 2) ~rid:1 <> None));
  Register_service.read (app sys 3) ~rid:1 "m";
  Alcotest.(check bool) "read b" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Register_service.find_read (app t 3) ~rid:1 <> None));
  Alcotest.(check (option (option int))) "later read not older" (Some (Some 7))
    (Register_service.find_read (app sys 3) ~rid:1)

let test_value_survives_reconfiguration () =
  let sys = make ~seed:6 ~n:5 () in
  Reconfig.Stack.run_rounds sys 20;
  Register_service.write (app sys 1) ~rid:1 "s" 55;
  Alcotest.(check bool) "write" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Register_service.write_done (app t 1) ~rid:1));
  (* delicate replacement to a smaller configuration *)
  let target = set [ 2; 3; 4 ] in
  Alcotest.(check bool) "estab accepted" true
    (Reconfig.Stack.propose sys 2 target ~tries:60);
  Alcotest.(check bool) "reconfigured" true
    (Reconfig.Stack.run_until sys ~max_steps:1_200_000 (fun t ->
         Reconfig.Stack.installed t target));
  (* the value is still readable in the new configuration *)
  Register_service.read (app sys 4) ~rid:2 "s";
  Alcotest.(check bool) "read in new config" true
    (Reconfig.Stack.run_until sys ~max_steps:900_000 (fun t ->
         Register_service.find_read (app t 4) ~rid:2 <> None));
  Alcotest.(check (option (option int))) "value survived" (Some (Some 55))
    (Register_service.find_read (app sys 4) ~rid:2)

let test_joiner_can_use_register () =
  let sys = make ~seed:7 () in
  Reconfig.Stack.run_rounds sys 20;
  Register_service.write (app sys 1) ~rid:1 "j" 9;
  Alcotest.(check bool) "write" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Register_service.write_done (app t 1) ~rid:1));
  Reconfig.Stack.add_joiner sys 9;
  Alcotest.(check bool) "joined" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Reconfig.Recsa.is_participant (Reconfig.Stack.node t 9).Reconfig.Stack.sa));
  Register_service.read (app sys 9) ~rid:1 "j";
  Alcotest.(check bool) "joiner's read completes" true
    (Reconfig.Stack.run_until sys ~max_steps:900_000 (fun t ->
         Register_service.find_read (app t 9) ~rid:1 <> None));
  Alcotest.(check (option (option int))) "joiner reads the value" (Some (Some 9))
    (Register_service.find_read (app sys 9) ~rid:1)

let suites =
  [
    ( "register",
      [
        Alcotest.test_case "write then read" `Quick test_write_then_read;
        Alcotest.test_case "read unwritten" `Quick test_read_unwritten;
        Alcotest.test_case "last writer wins" `Quick test_last_writer_wins;
        Alcotest.test_case "concurrent writers" `Quick test_concurrent_writers_agree;
        Alcotest.test_case "read monotonic" `Quick test_read_monotonic_after_writeback;
        Alcotest.test_case "survives reconfiguration" `Quick test_value_survives_reconfiguration;
        Alcotest.test_case "joiner can use register" `Quick test_joiner_can_use_register;
      ] );
  ]
