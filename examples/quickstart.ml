(* Quickstart: bring up a self-stabilizing reconfigurable system, read the
   agreed configuration, replace it delicately, admit a joiner, and survive
   a transient fault.

   Run with:  dune exec examples/quickstart.exe *)

open Sim
open Reconfig

let () =
  (* Five initial members; the scheme's "application" is trivial: never ask
     for reconfiguration, always admit joiners. *)
  let members = [ 1; 2; 3; 4; 5 ] in
  let sys =
    Stack.of_scenario ~hooks:Stack.unit_hooks
      (Scenario.make ~seed:7 ~n_bound:16 ~members ())
  in

  (* Let the failure detectors warm up and the scheme go quiescent. *)
  Stack.run_rounds sys 30;
  (match Stack.uniform_config sys with
  | Some config -> Format.printf "agreed configuration: %a@." Pid.pp_set config
  | None -> Format.printf "no agreement yet?!@.");

  (* Delicate replacement: ask recSA to install {1,2,3}. The proposal goes
     through the three-phase automaton of Figure 2. *)
  let target = Pid.set_of_list [ 1; 2; 3 ] in
  ignore (Stack.propose sys 1 target ~tries:50);
  ignore (Stack.run_until sys ~max_steps:1_000_000 (fun t -> Stack.installed t target));
  Format.printf "after estab({1,2,3}): %a@."
    (fun fmt () ->
      match Stack.uniform_config sys with
      | Some c -> Pid.pp_set fmt c
      | None -> Format.fprintf fmt "?")
    ();

  (* A new processor joins: it needs passes from a majority of the
     configuration members, then becomes a participant. *)
  Stack.add_joiner sys 9;
  ignore
    (Stack.run_until sys ~max_steps:1_000_000 (fun t ->
         Recsa.is_participant (Stack.node t 9).Stack.sa));
  Format.printf "processor 9 joined as participant@.";

  (* Transient fault: arbitrary garbage in every node state and channel.
     Self-stabilization: the system converges back to a uniform
     configuration without outside help. *)
  Stack.corrupt_everything sys ~rng:(Rng.create 99);
  (match Stack.run_until_quiescent sys ~max_rounds:500 with
  | Some rounds -> Format.printf "recovered from transient fault in %d rounds@." rounds
  | None -> Format.printf "recovery timed out?!@.");
  match Stack.uniform_config sys with
  | Some config -> Format.printf "configuration after recovery: %a@." Pid.pp_set config
  | None -> Format.printf "no agreement after recovery?!@."
