(* The quorum-based register emulation (two-phase read/write with counter
   tags) serving across member crashes and a delicate reconfiguration —
   the ABD-style alternative to routing operations through the replicated
   state machine.

   Run with:  dune exec examples/quorum_register.exe *)

open Sim
open Register

let app sys p = (Reconfig.Stack.node sys p).Reconfig.Stack.app

let wait sys pred =
  if not (Reconfig.Stack.run_until sys ~max_steps:2_000_000 pred) then
    failwith "operation did not complete"

let () =
  let members = [ 1; 2; 3; 4; 5 ] in
  let sys =
    Reconfig.Stack.of_scenario ~hooks:(Register_service.hooks ())
      (Reconfig.Scenario.make ~seed:17 ~n_bound:16 ~members ())
  in
  Reconfig.Stack.run_rounds sys 20;

  (* write at node 1, read at node 5 *)
  Register_service.write (app sys 1) ~rid:1 "balance" 250;
  wait sys (fun t -> Register_service.write_done (app t 1) ~rid:1);
  Register_service.read (app sys 5) ~rid:1 "balance";
  wait sys (fun t -> Register_service.find_read (app t 5) ~rid:1 <> None);
  Format.printf "node 5 reads balance = %s@."
    (match Register_service.find_read (app sys 5) ~rid:1 with
    | Some (Some v) -> string_of_int v
    | _ -> "?");

  (* a member crashes: the majority keeps serving *)
  Reconfig.Stack.crash sys 2;
  Format.printf "member 2 crashed; operations continue against the majority@.";
  Register_service.write (app sys 3) ~rid:1 "balance" 300;
  wait sys (fun t -> Register_service.write_done (app t 3) ~rid:1);
  Register_service.read (app sys 4) ~rid:1 "balance";
  wait sys (fun t -> Register_service.find_read (app t 4) ~rid:1 <> None);
  Format.printf "node 4 reads balance = %s after the crash@."
    (match Register_service.find_read (app sys 4) ~rid:1 with
    | Some (Some v) -> string_of_int v
    | _ -> "?");

  (* delicate reconfiguration away from the crashed member; the register
     value survives because every participant keeps a refreshed copy *)
  let target = Pid.set_of_list [ 1; 3; 4; 5 ] in
  if not (Reconfig.Stack.propose sys 1 target ~tries:60) then
    failwith "estab never accepted";
  wait sys (fun t -> Reconfig.Stack.installed t target);
  Format.printf "reconfigured to {1, 3, 4, 5}@.";
  Register_service.read (app sys 1) ~rid:2 "balance";
  wait sys (fun t -> Register_service.find_read (app t 1) ~rid:2 <> None);
  Format.printf "balance after reconfiguration = %s (aborted-and-retried ops: %d)@."
    (match Register_service.find_read (app sys 1) ~rid:2 with
    | Some (Some v) -> string_of_int v
    | _ -> "?")
    (List.fold_left
       (fun acc (_, n) -> acc + Register_service.aborts n.Reconfig.Stack.app)
       0
       (Reconfig.Stack.live_nodes sys))
