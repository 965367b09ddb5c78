(* Tests of the benchmark's own machinery: the near-linear virtual-synchrony
   audit against [Vs.Vs_checker], and the determinism of the metrics a
   seed fixes. *)

open Sim
open Stackbench
module Shm = Vs.Shared_memory

(* --- the audit agrees with Vs_checker --- *)

let agree name journals =
  let slow = Result.is_ok (Vs.Vs_checker.check journals) in
  let fast = Result.is_ok (Vs_audit.check journals) in
  Alcotest.(check bool) (name ^ ": checkers agree") slow fast;
  slow

(* a short shared-memory run: every member writes and reads, optionally
   across a crash of one member *)
let short_run ~seed ~crash =
  let members = [ 1; 2; 3; 4 ] in
  let sys =
    Reconfig.Stack.of_scenario ~hooks:(Shm.hooks ())
      (Reconfig.Scenario.make ~seed ~n_bound:16 ~members ())
  in
  let app p = (Reconfig.Stack.node sys p).Reconfig.Stack.app in
  Reconfig.Stack.run_rounds sys 40;
  for k = 1 to 3 do
    List.iter
      (fun p ->
        if List.mem p (List.map fst (Reconfig.Stack.live_nodes sys)) then begin
          Shm.write (app p) ~writer:p "x" ((10 * p) + k);
          Shm.read (app p) ~reader:p ~rid:k "x"
        end)
      members;
    Reconfig.Stack.run_rounds sys 10;
    if crash && k = 1 then Reconfig.Stack.crash sys 4
  done;
  Reconfig.Stack.run_rounds sys 30;
  List.map
    (fun (p, n) -> Vs.Vs_checker.journal_of_state p n.Reconfig.Stack.app)
    (Reconfig.Stack.live_nodes sys)

(* swap the first two distinct deliveries of the first non-empty batch
   sequence, as a faulty node might *)
let reorder (j : Shm.cmd Vs.Vs_checker.node_journal) =
  let flat = List.concat_map (fun (v, b) -> List.map (fun d -> (v, d)) b) j.batches in
  match flat with
  | (v1, d1) :: (v2, d2) :: rest when d1 <> d2 ->
    { j with batches = (v1, [ d2 ]) :: (v2, [ d1 ]) :: List.map (fun (v, d) -> (v, [ d ])) rest }
  | _ -> j

let test_audit_agrees_on_runs () =
  List.iter
    (fun (seed, crash) ->
      let journals = short_run ~seed ~crash in
      let deliveries =
        List.fold_left
          (fun acc (j : _ Vs.Vs_checker.node_journal) ->
            acc + List.length (List.concat_map snd j.batches))
          0 journals
      in
      Alcotest.(check bool) "the run delivered something" true (deliveries > 0);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d accepted" seed)
        true
        (agree (Printf.sprintf "seed %d" seed) journals))
    [ (3, false); (5, true); (9, false) ]

let test_audit_rejects_reordering () =
  let journals = short_run ~seed:3 ~crash:false in
  let tampered = match journals with j :: rest -> reorder j :: rest | [] -> [] in
  Alcotest.(check bool) "reordered journal rejected" false (agree "reordered" tampered);
  (* a batch rewritten inside a view breaks per-view agreement *)
  let view = { Vs.Vs_service.vid = None; vset = Pid.set_of_list [ 1; 2 ] } in
  let w p v = (p, Shm.Write { reg = "x"; value = v; writer = p }) in
  let j1 = { Vs.Vs_checker.pid = 1; batches = [ (view, [ w 1 1 ]); (view, [ w 2 2 ]) ] } in
  let j2 = { Vs.Vs_checker.pid = 2; batches = [ (view, [ w 1 1 ]); (view, [ w 2 3 ]) ] } in
  Alcotest.(check bool) "rewritten batch rejected" false (agree "rewritten" [ j1; j2 ]);
  (* a trailing batch missing at one node is allowed *)
  let j3 = { Vs.Vs_checker.pid = 3; batches = [ (view, [ w 1 1 ]) ] } in
  Alcotest.(check bool) "one trailing batch tolerated" true (agree "trailing" [ j1; j3 ])

(* --- determinism --- *)

(* A workload's prefix in a fresh domain: descriptor-interning tables are
   domain-local, so each run starts from the same table history, as a
   fresh benchmark process does. *)
let run_prefix (w : Workloads.workload) ~seed =
  Domain.join
    (Domain.spawn (fun () ->
         let acc = Workloads.fresh () in
         w.run ~traced:false ~seed ~mode:Workloads.Prefix ~prefix:1 acc;
         acc))

let deterministic_metrics w acc =
  List.filter_map
    (fun (mt : Report.metric) ->
      if
        List.mem mt.name [ "alloc_words_per_event"; "recovery_rounds"; "failed_ratio" ]
        || String.ends_with ~suffix:"_rounds" mt.name
      then Some (mt.name, mt.value)
      else None)
    (Report.end_to_end w acc)

let test_same_seed_same_metrics (w : Workloads.workload) () =
  let a = run_prefix w ~seed:11 and b = run_prefix w ~seed:11 in
  Alcotest.(check (list (pair string (float 0.0))))
    "identical deterministic metrics" (deterministic_metrics w a)
    (deterministic_metrics w b);
  Alcotest.(check (list string)) "no failures" [] a.failures

let test_second_seed_recovers (w : Workloads.workload) () =
  let acc = run_prefix w ~seed:29 in
  Alcotest.(check (list string)) "no failures" [] acc.failures;
  Alcotest.(check bool) "checks ran" true (acc.attempted > 0)

let test_traced_run_faithful () =
  match Workloads.find "smr-reconf-n8" with
  | None -> Alcotest.fail "workload missing"
  | Some w ->
    let t = Report.run_traced w ~seed:5 ~prefix:1 in
    Alcotest.(check bool) "traced run reproduces the untraced one" true t.faithful

let () =
  let per_workload f =
    List.map
      (fun (w : Workloads.workload) -> Alcotest.test_case w.name `Quick (f w))
      Workloads.all
  in
  Alcotest.run "stackbench"
    [
      ( "vs_audit",
        [
          Alcotest.test_case "agrees with Vs_checker on short runs" `Quick
            test_audit_agrees_on_runs;
          Alcotest.test_case "rejects tampered journals" `Quick test_audit_rejects_reordering;
        ] );
      ("same seed, same metrics", per_workload test_same_seed_same_metrics);
      ("second seed", per_workload test_second_seed_recovers);
      ("traced run", [ Alcotest.test_case "faithful" `Quick test_traced_run_faithful ]);
    ]
