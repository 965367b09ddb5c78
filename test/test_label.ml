(* Tests for the bounded labeling scheme (Algorithms 4.1/4.2). *)

open Sim
open Labels

let qtest = QCheck_alcotest.to_alcotest
let set = Pid.set_of_list

(* --- pure label structure --- *)

let test_label_order_cross_creator () =
  let l1 = Label.make ~creator:1 ~sting:0 ~antistings:[] in
  let l2 = Label.make ~creator:2 ~sting:0 ~antistings:[] in
  Alcotest.(check bool) "creator order" true (Label.precedes l1 l2);
  Alcotest.(check bool) "antisymmetric" false (Label.precedes l2 l1)

let test_label_order_same_creator () =
  let l1 = Label.make ~creator:1 ~sting:0 ~antistings:[ 5 ] in
  let l2 = Label.make ~creator:1 ~sting:7 ~antistings:[ 0 ] in
  (* l1.sting=0 ∈ l2.antistings, l2.sting=7 ∉ l1.antistings: l1 ≺ l2 *)
  Alcotest.(check bool) "sting relation" true (Label.precedes l1 l2);
  Alcotest.(check bool) "not both ways" false (Label.precedes l2 l1);
  let l3 = Label.make ~creator:1 ~sting:9 ~antistings:[ 11 ] in
  let l4 = Label.make ~creator:1 ~sting:12 ~antistings:[ 13 ] in
  Alcotest.(check bool) "incomparable pair" false (Label.comparable l3 l4)

let test_next_label_dominates () =
  let known =
    [
      Label.make ~creator:1 ~sting:3 ~antistings:[ 1; 2 ];
      Label.make ~creator:1 ~sting:5 ~antistings:[ 0; 3 ];
      Label.make ~creator:2 ~sting:0 ~antistings:[ 4 ];
    ]
  in
  let fresh = Label.next_label ~creator:1 ~known in
  List.iter
    (fun l ->
      if Pid.equal l.Label.creator 1 then
        Alcotest.(check bool) "dominates same-creator known" true (Label.precedes l fresh))
    known

let prop_next_label_always_dominates =
  QCheck.Test.make ~name:"nextLabel dominates all same-creator known labels" ~count:200
    QCheck.(small_list (pair (int_range 0 20) (small_list (int_range 0 20))))
    (fun raw ->
      let known =
        List.map (fun (s, a) -> Label.make ~creator:1 ~sting:s ~antistings:a) raw
      in
      let fresh = Label.next_label ~creator:1 ~known in
      List.for_all (fun l -> Label.precedes l fresh) known)

let test_pair_cancellation () =
  let l = Label.make ~creator:1 ~sting:0 ~antistings:[] in
  let p = Label.pair_of l in
  Alcotest.(check bool) "fresh pair legit" true (Label.legit p);
  let by = Label.make ~creator:1 ~sting:1 ~antistings:[ 0 ] in
  let p' = Label.cancel p ~by in
  Alcotest.(check bool) "canceled" false (Label.legit p')

(* --- Algorithm 4.2 in isolation --- *)

let mk_algo self =
  Label_algo.create ~self ~members:(set [ 1; 2; 3 ]) ~in_transit_bound:4

let test_algo_creates_initial_label () =
  let a = mk_algo 1 in
  Label_algo.receipt_action a ~sent_max:None ~last_sent:None ~from:1;
  (match Label_algo.local_max a with
  | Some p ->
    Alcotest.(check bool) "legit" true (Label.legit p);
    Alcotest.(check int) "own creator" 1 p.Label.ml.Label.creator
  | None -> Alcotest.fail "no local max");
  Alcotest.(check int) "one creation" 1 (Label_algo.creations a)

let test_algo_adopts_greater_label () =
  let a = mk_algo 1 in
  Label_algo.receipt_action a ~sent_max:None ~last_sent:None ~from:1;
  let theirs = Label.pair_of (Label.make ~creator:3 ~sting:0 ~antistings:[]) in
  Label_algo.receipt_action a ~sent_max:(Some theirs) ~last_sent:None ~from:3;
  match Label_algo.local_max a with
  | Some p ->
    Alcotest.(check int) "adopted creator-3 label" 3 p.Label.ml.Label.creator
  | None -> Alcotest.fail "no local max"

let test_algo_cancellation_echo () =
  (* If a peer echoes our max back canceled, we must drop it and settle on
     something else. *)
  let a = mk_algo 3 in
  Label_algo.receipt_action a ~sent_max:None ~last_sent:None ~from:3;
  let mine = Option.get (Label_algo.local_max a) in
  let canceled =
    Label.cancel mine ~by:(Label.make ~creator:3 ~sting:99 ~antistings:[ mine.Label.ml.Label.sting ])
  in
  Label_algo.receipt_action a ~sent_max:None ~last_sent:(Some canceled) ~from:2;
  (match Label_algo.local_max a with
  | Some p ->
    Alcotest.(check bool) "new max legit" true (Label.legit p);
    Alcotest.(check bool) "new max differs" false (Label.equal p.Label.ml mine.Label.ml)
  | None -> Alcotest.fail "no local max");
  Alcotest.(check bool) "created a replacement" true (Label_algo.creations a >= 2)

let test_algo_voids_non_member_labels () =
  let a = mk_algo 1 in
  let foreign = Label.pair_of (Label.make ~creator:9 ~sting:0 ~antistings:[]) in
  Alcotest.(check bool) "cleanLP voids foreigners" true
    (Label_algo.clean_pair a foreign = None);
  let ours = Label.pair_of (Label.make ~creator:2 ~sting:0 ~antistings:[]) in
  Alcotest.(check bool) "cleanLP keeps members" true (Label_algo.clean_pair a ours <> None)

let test_algo_rebuild_drops_departed () =
  let a = mk_algo 1 in
  Label_algo.receipt_action a ~sent_max:None ~last_sent:None ~from:1;
  let theirs = Label.pair_of (Label.make ~creator:3 ~sting:0 ~antistings:[]) in
  Label_algo.receipt_action a ~sent_max:(Some theirs) ~last_sent:None ~from:3;
  (* reconfigure: 3 leaves the configuration *)
  Label_algo.rebuild a ~members:(set [ 1; 2 ]);
  (match Label_algo.local_max a with
  | Some p ->
    Alcotest.(check bool) "max not by departed member" true
      (p.Label.ml.Label.creator <> 3)
  | None -> Alcotest.fail "no local max after rebuild");
  Alcotest.(check (list int)) "queue of departed emptied" []
    (List.map (fun _ -> 0) (Label_algo.stored a 3))

let test_algo_bounded_queues () =
  let a = mk_algo 1 in
  (* flood with distinct labels from member 2 *)
  for i = 0 to 99 do
    let p = Label.pair_of (Label.make ~creator:2 ~sting:(i * 2) ~antistings:[ (i * 2) + 1 ]) in
    Label_algo.receipt_action a ~sent_max:(Some p) ~last_sent:None ~from:2
  done;
  (* bound for others is v + m = 3 + 4 *)
  Alcotest.(check bool) "other queue bounded" true (List.length (Label_algo.stored a 2) <= 7)

let prop_algo_two_party_agreement =
  (* Two members exchanging their maxima must converge to a common legit
     maximal label, from any sequence of interleaved exchanges. *)
  QCheck.Test.make ~name:"two-member label agreement" ~count:50
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Rng.create seed in
      let members = set [ 1; 2 ] in
      let a = Label_algo.create ~self:1 ~members ~in_transit_bound:2 in
      let b = Label_algo.create ~self:2 ~members ~in_transit_bound:2 in
      Label_algo.receipt_action a ~sent_max:None ~last_sent:None ~from:1;
      Label_algo.receipt_action b ~sent_max:None ~last_sent:None ~from:2;
      for _ = 1 to 40 do
        if Rng.bool rng then
          Label_algo.receipt_action b ~sent_max:(Label_algo.local_max a)
            ~last_sent:(Label_algo.max_of a 2) ~from:1
        else
          Label_algo.receipt_action a ~sent_max:(Label_algo.local_max b)
            ~last_sent:(Label_algo.max_of b 1) ~from:2
      done;
      (* a final full round trip settles both *)
      Label_algo.receipt_action b ~sent_max:(Label_algo.local_max a)
        ~last_sent:(Label_algo.max_of a 2) ~from:1;
      Label_algo.receipt_action a ~sent_max:(Label_algo.local_max b)
        ~last_sent:(Label_algo.max_of b 1) ~from:2;
      match (Label_algo.local_max a, Label_algo.local_max b) with
      | Some pa, Some pb ->
        Label.legit pa && Label.legit pb && Label.equal pa.Label.ml pb.Label.ml
      | _ -> false)

(* --- Algorithm 4.1 over the full stack --- *)

let make_label_system ?(seed = 42) ?(n = 4) () =
  let members = List.init n (fun i -> i + 1) in
  Reconfig.Stack.of_scenario
    ~hooks:(Label_service.hooks ~in_transit_bound:8)
    (Reconfig.Scenario.make ~seed ~n_bound:16 ~members ())

let test_service_agreement () =
  let sys = make_label_system () in
  Reconfig.Stack.run_rounds sys 10;
  let agreed t = Label_service.agreed_max t <> None in
  Alcotest.(check bool) "members agree on a maximal label" true
    (Reconfig.Stack.run_until sys ~max_steps:400_000 agreed)

let test_service_agreement_after_reconfig () =
  let sys = make_label_system ~seed:5 () in
  Reconfig.Stack.run_rounds sys 10;
  Alcotest.(check bool) "initial agreement" true
    (Reconfig.Stack.run_until sys ~max_steps:400_000 (fun t ->
         Label_service.agreed_max t <> None));
  (* delicate reconfiguration to a smaller member set (retry until the
     scheme is momentarily quiet enough to accept the proposal) *)
  Alcotest.(check bool) "estab accepted" true
    (Reconfig.Stack.propose sys 1 (set [ 1; 2; 3 ]) ~tries:50);
  let settled t =
    match Reconfig.Stack.uniform_config t with
    | Some c -> Pid.Set.equal c (set [ 1; 2; 3 ]) && Label_service.agreed_max t <> None
    | None -> false
  in
  Alcotest.(check bool) "agreement in the new configuration" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 settled)

let test_service_recovers_from_corrupt_labels () =
  let sys = make_label_system ~seed:6 () in
  Reconfig.Stack.run_rounds sys 10;
  Alcotest.(check bool) "initial agreement" true
    (Reconfig.Stack.run_until sys ~max_steps:400_000 (fun t ->
         Label_service.agreed_max t <> None));
  (* corrupt every member's label storage with conflicting same-creator
     labels (incomparable, so they must cancel out) *)
  List.iter
    (fun (p, n) ->
      match n.Reconfig.Stack.app.Label_service.algo with
      | Some algo ->
        let garbage j =
          Label.pair_of
            (Label.make ~creator:j ~sting:(50 + p) ~antistings:[ 60 + p ])
        in
        Label_algo.corrupt algo
          ~max_entries:(List.map (fun j -> (j, garbage j)) [ 1; 2; 3; 4 ])
          ~stored_entries:[]
      | None -> ())
    (Reconfig.Stack.live_nodes sys);
  Alcotest.(check bool) "re-agreement after corruption" true
    (Reconfig.Stack.run_until sys ~max_steps:600_000 (fun t ->
         Label_service.agreed_max t <> None))

let suites =
  [
    ( "label.structure",
      [
        Alcotest.test_case "cross-creator order" `Quick test_label_order_cross_creator;
        Alcotest.test_case "same-creator order" `Quick test_label_order_same_creator;
        Alcotest.test_case "next label dominates" `Quick test_next_label_dominates;
        Alcotest.test_case "pair cancellation" `Quick test_pair_cancellation;
        qtest prop_next_label_always_dominates;
      ] );
    ( "label.algo",
      [
        Alcotest.test_case "creates initial label" `Quick test_algo_creates_initial_label;
        Alcotest.test_case "adopts greater label" `Quick test_algo_adopts_greater_label;
        Alcotest.test_case "cancellation echo" `Quick test_algo_cancellation_echo;
        Alcotest.test_case "voids non-members" `Quick test_algo_voids_non_member_labels;
        Alcotest.test_case "rebuild drops departed" `Quick test_algo_rebuild_drops_departed;
        Alcotest.test_case "bounded queues" `Quick test_algo_bounded_queues;
        qtest prop_algo_two_party_agreement;
      ] );
    ( "label.service",
      [
        Alcotest.test_case "agreement" `Quick test_service_agreement;
        Alcotest.test_case "agreement after reconfig" `Quick test_service_agreement_after_reconfig;
        Alcotest.test_case "recovery from corrupt labels" `Quick
          test_service_recovers_from_corrupt_labels;
      ] );
  ]
