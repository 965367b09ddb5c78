(* Tests for the core reconfiguration scheme: notification/config values,
   recSA convergence (brute force + delicate replacement), recMA
   triggering, and the joining mechanism. *)

open Sim
open Reconfig

let qtest = QCheck_alcotest.to_alcotest
let set = Pid.set_of_list

(* --- Config_value and Notification unit tests --- *)

let test_config_value_basics () =
  let open Config_value in
  Alcotest.(check bool) "set eq" true (equal (Set (set [ 1; 2 ])) (Set (set [ 2; 1 ])));
  Alcotest.(check bool) "reset neq set" false (equal Reset (Set Pid.Set.empty));
  Alcotest.(check bool) "is_set" true (is_set (Set (set [ 1 ])));
  Alcotest.(check bool) "is_reset" true (is_reset Reset);
  Alcotest.(check bool) "not participant" true (is_not_participant Not_participant);
  Alcotest.(check (option (list int)))
    "to_set" (Some [ 1; 2 ])
    (Option.map Pid.Set.elements (to_set (Set (set [ 1; 2 ]))))

let test_notification_order () =
  let open Notification in
  let n1 = make P1 (set [ 1; 2 ]) in
  let n2 = make P1 (set [ 1; 3 ]) in
  let n3 = make P2 (set [ 1; 2 ]) in
  Alcotest.(check bool) "phase dominates" true (compare n1 n3 < 0);
  Alcotest.(check bool) "set breaks ties" true (compare n1 n2 < 0);
  Alcotest.(check bool) "default smallest" true (compare default n1 < 0);
  Alcotest.(check bool) "max picks largest" true
    (match max_of [ default; n1; n2 ] with Some m -> equal m n2 | None -> false);
  Alcotest.(check bool) "max of defaults is none" true (max_of [ default; default ] = None)

let test_notification_malformed () =
  let open Notification in
  Alcotest.(check bool) "default fine" false (malformed default);
  Alcotest.(check bool) "phase0 with set" true (malformed { phase = P0; set = Some (set [ 1 ]) });
  Alcotest.(check bool) "phase1 no set" true (malformed { phase = P1; set = None });
  Alcotest.(check bool) "phase1 empty set" true (malformed (make P1 Pid.Set.empty));
  Alcotest.(check bool) "phase2 ok" false (malformed (make P2 (set [ 1 ])))

let test_notification_degree () =
  let open Notification in
  Alcotest.(check int) "default, no all" 0 (degree default ~all:false);
  Alcotest.(check int) "phase1 + all" 3 (degree (make P1 (set [ 1 ])) ~all:true);
  Alcotest.(check int) "phase2" 4 (degree (make P2 (set [ 1 ])) ~all:false)

let prop_notification_max_is_upper_bound =
  QCheck.Test.make ~name:"maxNtf dominates every notification in the list"
    QCheck.(small_list (pair (int_range 0 2) (small_list (int_range 0 8))))
    (fun raw ->
      let ns =
        List.map
          (fun (ph, pids) ->
            let phase =
              match ph with 0 -> Notification.P0 | 1 -> Notification.P1 | _ -> Notification.P2
            in
            { Notification.phase; set = (if pids = [] then None else Some (set pids)) })
          raw
      in
      match Notification.max_of ns with
      | None -> List.for_all Notification.is_default ns
      | Some m ->
        List.for_all (fun n -> Notification.is_default n || Notification.compare n m <= 0) ns)

(* --- Stack-level integration --- *)

let make_system ?(seed = 42) ?(loss = 0.02) ?(n = 5) ?(hooks = Stack.unit_hooks) () =
  let members = List.init n (fun i -> i + 1) in
  Stack.of_scenario ~hooks (Scenario.make ~seed ~loss ~n_bound:16 ~members ())

let test_steady_state_quiescent () =
  let sys = make_system () in
  Stack.run_rounds sys 30;
  Alcotest.(check bool) "quiescent" true (Stack.quiescent sys);
  (match Stack.uniform_config sys with
  | Some c -> Alcotest.(check (list int)) "config = members" [ 1; 2; 3; 4; 5 ] (Pid.Set.elements c)
  | None -> Alcotest.fail "no uniform config");
  Alcotest.(check int) "no spurious resets" 0 (Stack.total_resets sys);
  Alcotest.(check int) "no spurious installs" 0 (Stack.total_installs sys)

let test_delicate_replacement () =
  let sys = make_system () in
  Stack.run_rounds sys 20;
  let target = set [ 1; 2; 3 ] in
  Alcotest.(check bool) "estab accepted" true (Stack.estab sys 1 target);
  Alcotest.(check bool) "proposal installed everywhere" true
    (Stack.run_until sys ~max_steps:300_000 (fun t -> Stack.installed t target));
  Alcotest.(check int) "no brute-force resets during delicate run" 0 (Stack.total_resets sys)

let test_concurrent_proposals_single_winner () =
  let sys = make_system ~seed:7 () in
  Stack.run_rounds sys 20;
  let a = set [ 1; 2; 3 ] and b = set [ 2; 3; 4 ] in
  let ok_a = Stack.estab sys 1 a in
  let ok_b = Stack.estab sys 4 b in
  Alcotest.(check bool) "both proposals accepted locally" true (ok_a && ok_b);
  let settled t =
    match Stack.uniform_config t with
    | Some c -> (Pid.Set.equal c a || Pid.Set.equal c b) && Stack.quiescent t
    | None -> false
  in
  Alcotest.(check bool) "exactly one proposal wins everywhere" true
    (Stack.run_until sys ~max_steps:400_000 settled)

let test_estab_rejected_mid_reconfiguration () =
  let sys = make_system ~seed:3 () in
  Stack.run_rounds sys 20;
  Alcotest.(check bool) "first accepted" true (Stack.estab sys 1 (set [ 1; 2; 3 ]));
  (* propagate the notification a bit, then a second proposal must bounce *)
  Stack.run_rounds sys 8;
  Alcotest.(check bool) "second rejected while reconfiguring" false
    (Stack.estab sys 2 (set [ 3; 4; 5 ]))

let test_estab_rejects_trivial () =
  let sys = make_system ~seed:4 () in
  Stack.run_rounds sys 20;
  Alcotest.(check bool) "same config rejected" false
    (Stack.estab sys 1 (set [ 1; 2; 3; 4; 5 ]));
  Alcotest.(check bool) "empty rejected" false (Stack.estab sys 1 Pid.Set.empty)

let test_brute_force_after_corruption () =
  let sys = make_system ~seed:11 () in
  Stack.run_rounds sys 20;
  let rng = Rng.create 123 in
  Stack.corrupt_everything sys ~rng;
  let rounds = Stack.run_until_quiescent sys ~max_rounds:400 in
  Alcotest.(check bool) "recovered to quiescence" true (rounds <> None);
  match Stack.uniform_config sys with
  | Some c ->
    Alcotest.(check bool) "config nonempty" false (Pid.Set.is_empty c);
    Alcotest.(check bool) "config only live processors" true
      (Pid.Set.subset c (set [ 1; 2; 3; 4; 5 ]))
  | None -> Alcotest.fail "no uniform config after recovery"

let prop_convergence_from_arbitrary_state =
  QCheck.Test.make ~name:"recSA converges from arbitrary states (Thm 3.15)" ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let sys = make_system ~seed () in
      Stack.run_rounds sys 15;
      Stack.corrupt_everything sys ~rng:(Rng.create (seed + 1));
      Stack.run_until_quiescent sys ~max_rounds:500 <> None)

let test_recma_majority_collapse_triggers () =
  let sys = make_system ~seed:21 () in
  Stack.run_rounds sys 25;
  (* crash 3 of 5 members: the majority is gone; survivors must reconfigure
     to a configuration of live processors *)
  Stack.crash sys 1;
  Stack.crash sys 2;
  Stack.crash sys 3;
  let recovered t =
    match Stack.uniform_config t with
    | Some c -> Pid.Set.subset c (set [ 4; 5 ]) && Stack.quiescent t
    | None -> false
  in
  Alcotest.(check bool) "new live-only config installed" true
    (Stack.run_until sys ~max_steps:600_000 recovered);
  Alcotest.(check bool) "recMA triggered" true (Stack.total_triggers sys >= 1)

let test_recma_prediction_majority () =
  (* the paper's example predictor: ask for a reconfiguration once 1/4 of
     the members look failed. Crashing 2 of 5 members keeps the majority
     alive (so the collapse path stays silent) but trips the predictor at a
     majority of members, which must produce a delicate reconfiguration to
     a live configuration. *)
  let hooks = { Stack.unit_hooks with eval_conf = Stack.default_eval_conf () } in
  let sys = make_system ~seed:22 ~hooks () in
  Stack.run_rounds sys 25;
  Stack.crash sys 1;
  Stack.crash sys 2;
  Alcotest.(check bool) "prediction-driven reconfiguration" true
    (Stack.run_until sys ~max_steps:800_000 (fun t ->
         Stack.installed t (set [ 3; 4; 5 ])));
  Alcotest.(check bool) "triggered via recMA" true (Stack.total_triggers sys >= 1)

let test_joiner_becomes_participant () =
  let sys = make_system ~seed:31 () in
  Stack.run_rounds sys 25;
  Stack.add_joiner sys 9;
  let joined t = Recsa.is_participant (Stack.node t 9).Stack.sa in
  Alcotest.(check bool) "joiner became participant" true
    (Stack.run_until sys ~max_steps:400_000 joined);
  (* the joiner adopted the agreed configuration, not a fresh one *)
  match Recsa.config (Stack.node sys 9).Stack.sa with
  | Config_value.Set c ->
    Alcotest.(check (list int)) "adopted config" [ 1; 2; 3; 4; 5 ] (Pid.Set.elements c)
  | _ -> Alcotest.fail "joiner has no set config"

let test_joiner_blocked_by_application () =
  let hooks =
    { Stack.unit_hooks with pass_query = (fun ~self:_ ~joiner -> joiner <> 9) }
  in
  let sys = make_system ~seed:32 ~hooks () in
  Stack.run_rounds sys 25;
  Stack.add_joiner sys 9;
  Stack.run_rounds sys 60;
  Alcotest.(check bool) "blocked joiner is not a participant" false
    (Recsa.is_participant (Stack.node sys 9).Stack.sa)

let test_joiner_runs_snap_handshake () =
  (* the snap-stabilizing cleaning handshake must complete on every
     joiner-member link before the join protocol proceeds *)
  let sys = make_system ~seed:34 () in
  Stack.run_rounds sys 25;
  Stack.add_joiner sys 9;
  Alcotest.(check bool) "joined" true
    (Stack.run_until sys ~max_steps:400_000 (fun t ->
         Recsa.is_participant (Stack.node t 9).Stack.sa));
  let tr = Engine.trace (Stack.engine sys) in
  (* the joiner completes a handshake with each of the 5 members, and each
     member completes the anti-parallel handshake with the joiner *)
  Alcotest.(check bool) "handshakes completed" true (Trace.count tr "snap.clean" >= 5);
  let joiner_node = Stack.node sys 9 in
  Alcotest.(check bool) "joiner's links all clean" true
    (Pid.Map.for_all
       (fun _ s -> Snap_link.phase s = Snap_link.Clean_done)
       joiner_node.Stack.snap)

let test_join_survives_seed_crash () =
  (* a seed that crashes mid-join never completes its cleaning handshake;
     the gating is per link, so the joiner still joins through the rest *)
  let sys = make_system ~seed:34 () in
  Stack.run_rounds sys 25;
  Stack.add_joiner sys 9;
  Stack.crash sys 1;
  Alcotest.(check bool) "joined" true
    (Stack.run_until sys ~max_steps:400_000 (fun t ->
         Recsa.is_participant (Stack.node t 9).Stack.sa));
  let snap = (Stack.node sys 9).Stack.snap in
  let phase peer = Option.map Snap_link.phase (Pid.Map.find_opt peer snap) in
  Alcotest.(check bool) "link to crashed seed still cleaning" true
    (phase 1 = Some Snap_link.Cleaning);
  Alcotest.(check bool) "link to live seed clean" true (phase 2 = Some Snap_link.Clean_done);
  Alcotest.(check bool) "crashed seed not trusted" false
    (Pid.Set.mem 1 (Stack.trusted_of sys 9));
  Alcotest.(check bool) "quiescent" true
    (Stack.run_until_quiescent sys ~max_rounds:500 <> None)

let test_join_count_and_events () =
  let sys = make_system ~seed:33 () in
  Stack.run_rounds sys 25;
  Stack.add_joiner sys 7;
  Stack.add_joiner sys 8;
  let both t =
    Recsa.is_participant (Stack.node t 7).Stack.sa
    && Recsa.is_participant (Stack.node t 8).Stack.sa
  in
  Alcotest.(check bool) "both joined" true (Stack.run_until sys ~max_steps:600_000 both);
  let tr = Engine.trace (Stack.engine sys) in
  Alcotest.(check bool) "join events traced" true (Trace.count tr "join.participate" >= 2)

let test_figure2_automaton_trace () =
  (* The replacement automaton: a delicate replacement must produce a
     phase-2 transition and then a return to phase 0, with an install in
     between (Figure 2). *)
  let sys = make_system ~seed:41 () in
  Stack.run_rounds sys 20;
  ignore (Stack.estab sys 2 (set [ 1; 2; 3; 4 ]));
  Alcotest.(check bool) "completes" true
    (Stack.run_until sys ~max_steps:400_000 (fun t ->
         Stack.quiescent t && Stack.total_installs t > 0));
  let tr = Engine.trace (Stack.engine sys) in
  Alcotest.(check bool) "phase-2 transition observed" true (Trace.count tr "recsa.phase2" >= 1);
  Alcotest.(check bool) "install observed" true (Trace.count tr "recsa.install" >= 1);
  Alcotest.(check bool) "return to phase 0 observed" true (Trace.count tr "recsa.phase0" >= 1)

let test_get_config_during_steady_state () =
  let sys = make_system ~seed:51 () in
  Stack.run_rounds sys 30;
  List.iter
    (fun (p, n) ->
      let trusted = Stack.trusted_of sys p in
      match Recsa.get_config n.Stack.sa ~trusted with
      | Config_value.Set c ->
        Alcotest.(check (list int)) "getConfig agrees" [ 1; 2; 3; 4; 5 ] (Pid.Set.elements c)
      | _ -> Alcotest.fail "getConfig not a set in steady state")
    (Stack.live_nodes sys)

let test_replacement_exposes_only_old_or_new () =
  (* Safety during a delicate replacement: at no point does any participant
     hold a configuration other than the old one, the proposed one, or ⊥
     (and ⊥ never occurs on the delicate path). *)
  let sys = make_system ~seed:42 () in
  Stack.run_rounds sys 20;
  let old_config = set [ 1; 2; 3; 4; 5 ] in
  let target = set [ 1; 2; 3 ] in
  Alcotest.(check bool) "estab" true (Stack.estab sys 1 target);
  let ok = ref true in
  let rec sample k =
    if k = 0 then ()
    else begin
      Stack.run_rounds sys 1;
      List.iter
        (fun (_, n) ->
          match Recsa.config n.Stack.sa with
          | Config_value.Set c ->
            if not (Pid.Set.equal c old_config || Pid.Set.equal c target) then ok := false
          | Config_value.Reset -> ok := false
          | Config_value.Not_participant -> ())
        (Stack.live_nodes sys);
      if
        Stack.quiescent sys
        && Option.equal Pid.Set.equal (Stack.uniform_config sys) (Some target)
      then ()
      else sample (k - 1)
    end
  in
  sample 200;
  Alcotest.(check bool) "only old or new configurations ever visible" true !ok;
  Alcotest.(check bool) "replacement completed" true
    (Option.equal Pid.Set.equal (Stack.uniform_config sys) (Some target))

(* --- stale-information classification (Definition 3.1) --- *)

let test_stale_types_clean_state () =
  let sys = make_system ~seed:61 () in
  Stack.run_rounds sys 30;
  Alcotest.(check bool) "no stale info in steady state" true
    (Invariants.no_stale_information sys)

let test_stale_type1_detected () =
  let trusted = set [ 1; 2 ] in
  let sa = Recsa.create ~self:1 ~participant:true ~initial_config:trusted () in
  Recsa.corrupt sa ~prp:{ Notification.phase = Notification.P0; set = Some (set [ 1 ]) } ();
  Alcotest.(check bool) "type-1 present" true
    (List.mem Recsa.Type1 (Recsa.stale_types sa ~trusted))

let test_stale_type2_detected () =
  let trusted = set [ 1; 2 ] in
  let sa = Recsa.create ~self:1 ~participant:true ~initial_config:trusted () in
  Recsa.corrupt sa ~config:Config_value.Reset ();
  Alcotest.(check bool) "type-2 present" true
    (List.mem Recsa.Type2 (Recsa.stale_types sa ~trusted))

let test_stale_type3_detected () =
  let trusted = set [ 1; 2 ] in
  let sa = Recsa.create ~self:1 ~participant:true ~initial_config:trusted () in
  (* a peer reports a phase-2 notification for a different set than ours *)
  Recsa.receive sa ~from:2
    {
      Recsa.m_fd = trusted;
      m_part = trusted;
      m_config = Config_value.Set trusted;
      m_prp = Notification.make Notification.P2 (set [ 1; 2 ]);
      m_all = false;
      m_echo = None;
    };
  Recsa.corrupt sa ~prp:(Notification.make Notification.P2 (set [ 1 ])) ();
  Alcotest.(check bool) "type-3 present" true
    (List.mem Recsa.Type3 (Recsa.stale_types sa ~trusted))

let test_stale_report_after_corruption () =
  let sys = make_system ~seed:62 () in
  Stack.run_rounds sys 30;
  Stack.corrupt_everything sys ~rng:(Rng.create 17);
  Alcotest.(check bool) "stale information detected somewhere" true
    (Invariants.stale_report sys <> []);
  Alcotest.(check bool) "recovers" true
    (Stack.run_until_quiescent sys ~max_rounds:500 <> None);
  Stack.run_rounds sys 5;
  Alcotest.(check bool) "stale information gone after recovery" true
    (Invariants.no_stale_information sys)

let test_closure_theorem () =
  (* Theorem 3.16(1): a steady config state persists — no resets, no
     installs, quiescence throughout. *)
  let sys = make_system ~seed:63 () in
  Stack.run_rounds sys 40;
  match Invariants.closure sys ~rounds:40 with
  | Ok () -> ()
  | Error reason -> Alcotest.fail reason

(* --- partitions --- *)

let test_partition_minority_and_heal () =
  let sys = make_system ~seed:64 () in
  Stack.run_rounds sys 30;
  (* isolate a minority; the majority side must keep the configuration *)
  Engine.partition (Stack.engine sys) (set [ 5 ]);
  Stack.run_rounds sys 60;
  let majority_config =
    match Recsa.config (Stack.node sys 1).Stack.sa with
    | Config_value.Set c -> Pid.Set.elements c
    | _ -> []
  in
  Alcotest.(check (list int)) "majority side keeps the config" [ 1; 2; 3; 4; 5 ]
    majority_config;
  Engine.heal (Stack.engine sys);
  Alcotest.(check bool) "steady again after healing" true
    (Stack.run_until sys ~max_steps:600_000 Stack.quiescent)

let test_partition_does_not_split_brain () =
  (* neither side of an even split can assemble a majority-backed delicate
     replacement while cut; after healing there is a single configuration *)
  let sys = make_system ~seed:65 ~n:6 () in
  Stack.run_rounds sys 30;
  Engine.partition (Stack.engine sys) (set [ 1; 2; 3 ]);
  Stack.run_rounds sys 80;
  Engine.heal (Stack.engine sys);
  Alcotest.(check bool) "single configuration after heal" true
    (Stack.run_until sys ~max_steps:900_000 (fun t ->
         Stack.quiescent t && Stack.uniform_config t <> None))

(* --- pluggable quorum systems (the paper's Related-Work claim) --- *)

let test_scheme_under_wall_quorum () =
  (* the whole scheme runs with crumbling-wall quorums instead of
     majorities: steady state, joining and collapse-driven reconfiguration
     all work unchanged *)
  let members = List.init 6 (fun i -> i + 1) in
  let sys =
    Stack.of_scenario ~hooks:Stack.unit_hooks
      (Scenario.make ~seed:77 ~n_bound:16
         ~quorum:(module Quorum.Wall)
         ~members ())
  in
  Stack.run_rounds sys 30;
  Alcotest.(check bool) "steady under wall quorums" true (Stack.quiescent sys);
  Stack.add_joiner sys 9;
  Alcotest.(check bool) "join admitted by a wall quorum of passes" true
    (Stack.run_until sys ~max_steps:600_000 (fun t ->
         Recsa.is_participant (Stack.node t 9).Stack.sa));
  (* rows over {1..6}: [1] [2;3] [4;5;6]; crashing 4,5,6 and 1 destroys
     every wall quorum (no full row survives), so recMA must reconfigure *)
  List.iter (fun v -> Stack.crash sys v) [ 1; 4; 5; 6 ];
  let recovered t =
    match Stack.uniform_config t with
    | Some c -> Pid.Set.subset c (set [ 2; 3; 9 ]) && Stack.quiescent t
    | None -> false
  in
  Alcotest.(check bool) "collapse path works under wall quorums" true
    (Stack.run_until sys ~max_steps:2_000_000 recovered)

(* --- pure two-node walkthrough (no engine): the unison handshake --- *)

let test_pure_two_node_replacement () =
  let members = set [ 1; 2 ] in
  let a = Recsa.create ~self:1 ~participant:true ~initial_config:members () in
  let b = Recsa.create ~self:2 ~participant:true ~initial_config:members () in
  (* lossless synchronous exchange: both tick, then both deliver *)
  let exchange () =
    ignore (Recsa.tick a ~trusted:members);
    ignore (Recsa.tick b ~trusted:members);
    let msgs_a = Recsa.broadcast a ~trusted:members in
    let msgs_b = Recsa.broadcast b ~trusted:members in
    List.iter (fun (dst, m) -> if dst = 2 then Recsa.receive b ~from:1 m) msgs_a;
    List.iter (fun (dst, m) -> if dst = 1 then Recsa.receive a ~from:2 m) msgs_b
  in
  for _ = 1 to 4 do
    exchange ()
  done;
  Alcotest.(check bool) "steady" true
    (Recsa.no_reco a ~trusted:members && Recsa.no_reco b ~trusted:members);
  let target = set [ 1 ] in
  Alcotest.(check bool) "estab accepted" true (Recsa.estab a ~trusted:members target);
  (* the synchronous unison handshake completes within a bounded number of
     exchanges: adopt, echo, all, allSeen, phase 2 (install), phase 0 *)
  let rec drive k =
    if k = 0 then Alcotest.fail "replacement did not complete in 40 exchanges"
    else if
      Config_value.equal (Recsa.config a) (Config_value.Set target)
      && Config_value.equal (Recsa.config b) (Config_value.Set target)
      && Notification.is_default (Recsa.prp a)
      && Notification.is_default (Recsa.prp b)
    then ()
    else begin
      exchange ();
      drive (k - 1)
    end
  in
  drive 40;
  Alcotest.(check int) "exactly one install at a" 1 (Recsa.install_count a);
  Alcotest.(check int) "exactly one install at b" 1 (Recsa.install_count b);
  Alcotest.(check int) "no resets" 0 (Recsa.reset_count a + Recsa.reset_count b)

let prop_channel_stats_conserved =
  QCheck.Test.make ~name:"channel accounting: sent = queued + dropped + delivered"
    QCheck.(pair (int_range 0 1000) (int_range 1 200))
    (fun (seed, ops) ->
      let rng = Rng.create seed in
      let ch = Channel.create ~capacity:5 in
      for i = 1 to ops do
        if Rng.bool rng then Channel.send ch rng i
        else if not (Channel.is_empty ch) then ignore (Channel.take ch rng)
      done;
      let st = Channel.stats ch in
      st.Channel.sent
      = Channel.length ch + st.Channel.dropped + st.Channel.delivered)

(* --- chaos: random mixed fault schedules always converge --- *)

let prop_chaos_convergence =
  QCheck.Test.make ~name:"convergence under random crash/join/corrupt/partition mixes"
    ~count:6
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 4 + Rng.int rng 3 in
      let sys = make_system ~seed ~n () in
      let next_joiner = ref 100 in
      let crashes = ref 0 in
      Stack.run_rounds sys 25;
      (* a dozen random events interleaved with normal execution *)
      for _ = 1 to 12 do
        (match Rng.int rng 6 with
        | 0 ->
          (* crash, keeping at least two live nodes *)
          let live = Engine.live_pids (Stack.engine sys) in
          if List.length live > 2 && !crashes < n - 2 then begin
            Stack.crash sys (Rng.pick rng live);
            incr crashes
          end
        | 1 ->
          Stack.add_joiner sys !next_joiner;
          incr next_joiner
        | 2 ->
          let live = Engine.live_pids (Stack.engine sys) in
          Stack.corrupt_node sys (Rng.pick rng live) ~rng
        | 3 -> Stack.corrupt_everything sys ~rng
        | 4 ->
          let live = Engine.live_pids (Stack.engine sys) in
          let group = Pid.set_of_list (Rng.subset rng live) in
          Engine.partition (Stack.engine sys) group
        | _ ->
          let live = Engine.live_pids (Stack.engine sys) in
          ignore (Stack.estab sys (Rng.pick rng live) (set (Rng.subset rng live))));
        Stack.run_rounds sys (1 + Rng.int rng 8)
      done;
      (* faults cease: partitions heal, nothing else is injected. The
         system must reach a steady config state whose configuration has a
         live majority (the paper's serviceability condition — a dead
         minority inside the configuration is legal and recMA correctly
         leaves it alone; a dead majority must trigger a reconfiguration). *)
      Engine.heal (Stack.engine sys);
      let healthy t =
        Stack.quiescent t
        &&
        match Stack.uniform_config t with
        | Some c ->
          (not (Pid.Set.is_empty c))
          && Quorum.has_majority ~config:c
               (Pid.set_of_list (Engine.live_pids (Stack.engine t)))
        | None -> false
      in
      (* check once per five rounds; the predicate is too costly to
         evaluate after every atomic step *)
      let rec wait budget =
        if healthy sys then true
        else if budget = 0 then false
        else begin
          Stack.run_rounds sys 5;
          wait (budget - 1)
        end
      in
      wait 150)

(* --- descriptor interning --------------------------------------------- *)

(* Structurally equal descriptors intern to one physical object, so the
   Definition 3.1 conflict checks hit their pointer-equality fast paths;
   unequal descriptors must never be conflated. *)
let test_interning_physical_equality () =
  (* two structurally equal sets with different AVL shapes *)
  let asc = Pid.set_of_list [ 1; 2; 3; 4; 5; 6; 7 ] in
  let desc = List.fold_left (fun s p -> Pid.Set.add p s) Pid.Set.empty [ 7; 6; 5; 4; 3; 2; 1 ] in
  Alcotest.(check bool) "structurally equal" true (Pid.Set.equal asc desc);
  Alcotest.(check bool) "sets intern to one object" true
    (Reconfig.Intern.pid_set asc == Reconfig.Intern.pid_set desc);
  let c1 = Reconfig.Config_value.of_set asc in
  let c2 = Reconfig.Config_value.intern (Reconfig.Config_value.Set desc) in
  Alcotest.(check bool) "equal configs physically equal" true (c1 == c2);
  let other = Reconfig.Config_value.of_set (Pid.set_of_list [ 1; 2; 3 ]) in
  Alcotest.(check bool) "unequal configs stay distinct" false
    (Reconfig.Config_value.equal c1 other);
  Alcotest.(check bool) "unequal configs not conflated" true (c1 != other);
  let n1 = Reconfig.Notification.intern (Reconfig.Notification.make Reconfig.Notification.P2 asc) in
  let n2 = Reconfig.Notification.intern (Reconfig.Notification.make Reconfig.Notification.P2 desc) in
  Alcotest.(check bool) "equal notifications physically equal" true (n1 == n2);
  let n3 = Reconfig.Notification.intern (Reconfig.Notification.make Reconfig.Notification.P1 asc) in
  Alcotest.(check bool) "phase distinguishes notifications" true (n1 != n3)

let suites =
  [
    ( "reconfig.values",
      [
        Alcotest.test_case "config values" `Quick test_config_value_basics;
        Alcotest.test_case "notification order" `Quick test_notification_order;
        Alcotest.test_case "malformed notifications" `Quick test_notification_malformed;
        Alcotest.test_case "degree" `Quick test_notification_degree;
        qtest prop_notification_max_is_upper_bound;
      ] );
    ( "reconfig.recsa",
      [
        Alcotest.test_case "steady state quiescent" `Quick test_steady_state_quiescent;
        Alcotest.test_case "delicate replacement" `Quick test_delicate_replacement;
        Alcotest.test_case "concurrent proposals" `Quick test_concurrent_proposals_single_winner;
        Alcotest.test_case "estab rejected mid-reco" `Quick test_estab_rejected_mid_reconfiguration;
        Alcotest.test_case "estab rejects trivial" `Quick test_estab_rejects_trivial;
        Alcotest.test_case "brute force recovery" `Quick test_brute_force_after_corruption;
        Alcotest.test_case "only old or new visible" `Quick
          test_replacement_exposes_only_old_or_new;
        Alcotest.test_case "pure two-node walkthrough" `Quick test_pure_two_node_replacement;
        Alcotest.test_case "wall quorum system" `Quick test_scheme_under_wall_quorum;
        qtest prop_channel_stats_conserved;
        Alcotest.test_case "figure-2 automaton" `Quick test_figure2_automaton_trace;
        Alcotest.test_case "getConfig steady" `Quick test_get_config_during_steady_state;
        qtest prop_convergence_from_arbitrary_state;
      ] );
    ( "reconfig.recma",
      [
        Alcotest.test_case "majority collapse" `Quick test_recma_majority_collapse_triggers;
        Alcotest.test_case "prediction majority" `Quick test_recma_prediction_majority;
      ] );
    ( "reconfig.join",
      [
        Alcotest.test_case "joiner becomes participant" `Quick test_joiner_becomes_participant;
        Alcotest.test_case "application can block" `Quick test_joiner_blocked_by_application;
        Alcotest.test_case "multiple joiners" `Quick test_join_count_and_events;
        Alcotest.test_case "snap handshake on join" `Quick test_joiner_runs_snap_handshake;
        Alcotest.test_case "seed crash mid-join" `Quick test_join_survives_seed_crash;
      ] );
    ( "reconfig.invariants",
      [
        Alcotest.test_case "clean steady state" `Quick test_stale_types_clean_state;
        Alcotest.test_case "type-1 detected" `Quick test_stale_type1_detected;
        Alcotest.test_case "type-2 detected" `Quick test_stale_type2_detected;
        Alcotest.test_case "type-3 detected" `Quick test_stale_type3_detected;
        Alcotest.test_case "stale report + recovery" `Quick test_stale_report_after_corruption;
        Alcotest.test_case "closure (Thm 3.16)" `Quick test_closure_theorem;
        Alcotest.test_case "descriptor interning" `Quick test_interning_physical_equality;
      ] );
    ( "reconfig.partitions",
      [
        Alcotest.test_case "minority cut and heal" `Quick test_partition_minority_and_heal;
        Alcotest.test_case "no split brain" `Quick test_partition_does_not_split_brain;
      ] );
    ("reconfig.chaos", [ qtest prop_chaos_convergence ]);
  ]
