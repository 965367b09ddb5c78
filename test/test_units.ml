(* Unit tests for modules otherwise covered only through integration:
   recMA internals, the joining mechanism's gating, the typed scheme
   events, result tables. *)

open Sim
open Reconfig

let set = Pid.set_of_list

(* events compare by their trace rendering: structural equality on the
   carried sets would depend on their tree shape *)
let event =
  Alcotest.testable
    (fun fmt e ->
      let tag, detail = Event.to_trace e in
      Format.fprintf fmt "(%s, %S)" tag detail)
    (fun a b -> Event.to_trace a = Event.to_trace b)

(* --- recMA --- *)

(* Build a recSA instance that believes a steady configuration: own config
   set plus consistent peer reports. *)
let steady_recsa ~self ~members =
  let sa = Recsa.create ~self ~participant:true ~initial_config:members () in
  Pid.Set.iter
    (fun p ->
      if not (Pid.equal p self) then
        Recsa.receive sa ~from:p
          {
            Recsa.m_fd = members;
            m_part = members;
            m_config = Config_value.Set members;
            m_prp = Notification.default;
            m_all = false;
            m_echo =
              Some
                {
                  Recsa.e_part = members;
                  e_prp = Notification.default;
                  e_all = false;
                };
          })
    members;
  sa

let test_recma_core_intersection () =
  let members = set [ 1; 2; 3 ] in
  let sa = steady_recsa ~self:1 ~members in
  let ma = Recma.create ~self:1 in
  let core = Recma.core ma ~trusted:members ~recsa:sa in
  Alcotest.(check (list int)) "core = intersection of all FDs" [ 1; 2; 3 ]
    (Pid.Set.elements core)

let test_recma_no_trigger_in_steady_state () =
  let members = set [ 1; 2; 3 ] in
  let sa = steady_recsa ~self:1 ~members in
  let ma = Recma.create ~self:1 in
  for _ = 1 to 5 do
    let _msgs, events =
      Recma.tick ma ~trusted:members ~recsa:sa ~eval_conf:(fun _ -> false) ()
    in
    Alcotest.(check (list event)) "no trigger events" [] events
  done;
  Alcotest.(check int) "no estab attempts" 0 (Recma.attempt_count ma)

let test_recma_messages_to_participants () =
  let members = set [ 1; 2; 3 ] in
  let sa = steady_recsa ~self:1 ~members in
  let ma = Recma.create ~self:1 in
  let msgs, _ = Recma.tick ma ~trusted:members ~recsa:sa ~eval_conf:(fun _ -> false) () in
  Alcotest.(check (list int)) "broadcast to other participants" [ 2; 3 ]
    (List.sort compare (List.map fst msgs))

let test_recma_prediction_needs_majority () =
  let members = set [ 1; 2; 3; 4; 5 ] in
  let sa = steady_recsa ~self:1 ~members in
  let ma = Recma.create ~self:1 in
  (* own vote only: 1 of 5 — no trigger *)
  let _ = Recma.tick ma ~trusted:members ~recsa:sa ~eval_conf:(fun _ -> true) () in
  Alcotest.(check int) "no trigger on own vote" 0 (Recma.attempt_count ma);
  (* two more supporters: 3 of 5 — majority, trigger *)
  Recma.receive ma ~from:2 ~participant:true
    { Recma.m_no_maj = false; m_need_reconf = true };
  Recma.receive ma ~from:3 ~participant:true
    { Recma.m_no_maj = false; m_need_reconf = true };
  let _ = Recma.tick ma ~trusted:members ~recsa:sa ~eval_conf:(fun _ -> true) () in
  Alcotest.(check bool) "trigger attempted with majority" true
    (Recma.attempt_count ma >= 1)

let test_recma_non_participant_ignores_messages () =
  let ma = Recma.create ~self:1 in
  Recma.receive ma ~from:2 ~participant:false
    { Recma.m_no_maj = true; m_need_reconf = true };
  (* nothing observable should have been stored: a tick as a non-participant
     produces nothing *)
  let sa = Recsa.create ~self:1 ~participant:false () in
  let msgs, events =
    Recma.tick ma ~trusted:(set [ 1; 2 ]) ~recsa:sa ~eval_conf:(fun _ -> true) ()
  in
  Alcotest.(check int) "no messages as non-participant" 0 (List.length msgs);
  Alcotest.(check (list event)) "no events as non-participant" [] events

(* --- joining mechanism --- *)

let test_join_member_gates_on_pass_query () =
  let members = set [ 1; 2; 3 ] in
  let sa = steady_recsa ~self:1 ~members in
  let j = Join.create ~self:1 in
  (* member replies positively when the application allows *)
  (match
     Join.on_request j ~self_app:() ~from:9 ~trusted:members ~recsa:sa
       ~pass_query:(fun _ -> true)
   with
  | Some (Join.Join_reply { pass = true; _ }) -> ()
  | _ -> Alcotest.fail "expected a positive pass");
  (* ... and negatively when it does not *)
  match
    Join.on_request j ~self_app:() ~from:9 ~trusted:members ~recsa:sa
      ~pass_query:(fun _ -> false)
  with
  | Some (Join.Join_reply { pass = false; _ }) -> ()
  | _ -> Alcotest.fail "expected a negative pass"

let test_join_non_member_does_not_reply () =
  let members = set [ 2; 3; 4 ] in
  (* self=1 is a participant but NOT a configuration member *)
  let sa = Recsa.create ~self:1 ~participant:true ~initial_config:members () in
  let j = Join.create ~self:1 in
  match
    Join.on_request j ~self_app:() ~from:9 ~trusted:(set [ 1; 2; 3; 4 ])
      ~recsa:sa ~pass_query:(fun _ -> true)
  with
  | None -> ()
  | Some _ -> Alcotest.fail "non-members must not answer join requests"

let test_join_majority_required () =
  let members = set [ 1; 2; 3 ] in
  let sa = Recsa.create ~self:9 ~participant:false () in
  (* teach the joiner the configuration through received messages *)
  Pid.Set.iter
    (fun p ->
      Recsa.receive sa ~from:p
        {
          Recsa.m_fd = Pid.Set.add 9 members;
          m_part = members;
          m_config = Config_value.Set members;
          m_prp = Notification.default;
          m_all = false;
          m_echo = None;
        })
    members;
  let j = Join.create ~self:9 in
  let trusted = Pid.Set.add 9 members in
  (* one pass: not a majority of three members *)
  let tick () =
    Join.tick j ~trusted ~recsa:sa ~reset_vars:(fun () -> ())
      ~init_vars:(fun _ -> ())
      ()
  in
  ignore (tick ());
  Join.on_reply j ~from:1 ~participant:false ~pass:true ~app:();
  ignore (tick ());
  Alcotest.(check bool) "one pass is not enough" false (Recsa.is_participant sa);
  Join.on_reply j ~from:2 ~participant:false ~pass:true ~app:();
  ignore (tick ());
  Alcotest.(check bool) "two passes of three admit" true (Recsa.is_participant sa);
  Alcotest.(check int) "join counted" 1 (Join.join_count j)

(* --- typed scheme events --- *)

type span_effect = No_span | Opens of string | Closes of string

let recovery = "recsa.reset_recovery_seconds"
let handshake = "join.handshake_seconds"

(* every constructor: its trace line, the one counter [Event.note] bumps
   (if any), and the span it opens or closes *)
let event_cases =
  let s = set [ 1; 2 ] in
  Event.
    [
      (Stale 2, ("recsa.stale", "type-2"), Some ("recsa.conflicts", [ ("type", "2") ]), No_span);
      ( Reset "config conflict",
        ("recsa.reset", "config conflict"),
        Some ("recsa.resets", []),
        Opens recovery );
      (Join_reset, ("recsa.join_reset", ""), None, Opens recovery);
      ( Brute_force s,
        ("recsa.brute_force", "config <- {1, 2}"),
        Some ("recsa.brute_force", []),
        Closes recovery );
      (Install s, ("recsa.install", "{1, 2}"), Some ("recsa.installs", []), Closes recovery);
      (Adopt (Notification.make Notification.P1 s), ("recsa.adopt", "<1, {1, 2}>"), None, No_span);
      (Phase2 s, ("recsa.phase2", "{1, 2}"), None, No_span);
      (Phase0, ("recsa.phase0", "replacement complete"), None, No_span);
      ( Trigger Collapse,
        ("recma.trigger", "majority collapse"),
        Some ("recma.triggers", [ ("reason", "collapse") ]),
        No_span );
      ( Trigger Prediction,
        ("recma.trigger", "majority prediction"),
        Some ("recma.triggers", [ ("reason", "prediction") ]),
        No_span );
      (Join_start, ("join.start", ""), None, Opens handshake);
      ( Join_participate,
        ("join.participate", ""),
        Some ("join.completed", []),
        Closes handshake );
    ]

let test_event_table () =
  List.iter
    (fun (ev, trace, counter, span) ->
      let tag, _ = trace in
      Alcotest.(check (pair string string)) "trace line" trace (Event.to_trace ev);
      let tele = Telemetry.create () in
      Stack.declare_metrics tele;
      (match span with
      | Closes name -> Telemetry.span_begin tele ~name ~key:7 ~now:1.0
      | No_span | Opens _ -> ());
      Event.note tele ~self:7 ~now:3.0 ev;
      let bumped =
        List.filter_map
          (fun (name, labels, v) -> if v > 0 then Some (name, labels, v) else None)
          (Telemetry.counters tele)
      in
      let expected = Option.fold ~none:[] ~some:(fun (n, l) -> [ (n, l, 1) ]) counter in
      Alcotest.(check (list (triple string (list (pair string string)) int)))
        (tag ^ " counters") expected bumped;
      match span with
      | No_span -> Alcotest.(check int) (tag ^ " no span") 0 (Telemetry.open_spans tele)
      | Opens name ->
        Alcotest.(check bool) (tag ^ " opens") true (Telemetry.span_open tele ~name ~key:7)
      | Closes name ->
        Alcotest.(check bool) (tag ^ " closes") false (Telemetry.span_open tele ~name ~key:7);
        Alcotest.(check (option (float 1e-9))) (tag ^ " duration") (Some 2.0)
          (Option.bind (Telemetry.find_histogram tele name) (fun h ->
               Telemetry.Histogram.max_value h)))
    event_cases

(* --- result tables --- *)

let test_table_csv () =
  let t =
    Harness.Table.make ~id:"T" ~title:"t" ~claim:"c" ~header:[ "a"; "b" ]
      [ [ "1"; "2" ]; [ "3"; "4" ] ]
  in
  Alcotest.(check string) "csv" "a,b\n1,2\n3,4" (Harness.Table.to_csv t)

let test_table_pp_alignment () =
  let t =
    Harness.Table.make ~id:"T" ~title:"widths" ~claim:"c"
      ~header:[ "col"; "x" ]
      [ [ "longvalue"; "1" ] ]
  in
  let s = Format.asprintf "%a" Harness.Table.pp t in
  let contains needle haystack =
    let nl = String.length needle and hl = String.length haystack in
    let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "renders values" true (contains "longvalue" s);
  Alcotest.(check bool) "renders claim" true (contains "claim: c" s)

let suites =
  [
    ( "recma.unit",
      [
        Alcotest.test_case "core intersection" `Quick test_recma_core_intersection;
        Alcotest.test_case "quiet in steady state" `Quick test_recma_no_trigger_in_steady_state;
        Alcotest.test_case "broadcast targets" `Quick test_recma_messages_to_participants;
        Alcotest.test_case "prediction needs majority" `Quick test_recma_prediction_needs_majority;
        Alcotest.test_case "non-participant inert" `Quick test_recma_non_participant_ignores_messages;
      ] );
    ( "join.unit",
      [
        Alcotest.test_case "pass_query gating" `Quick test_join_member_gates_on_pass_query;
        Alcotest.test_case "non-member silent" `Quick test_join_non_member_does_not_reply;
        Alcotest.test_case "majority required" `Quick test_join_majority_required;
      ] );
    ("event.unit", [ Alcotest.test_case "trace and telemetry" `Quick test_event_table ]);
    ( "harness.table",
      [
        Alcotest.test_case "csv" `Quick test_table_csv;
        Alcotest.test_case "pp" `Quick test_table_pp_alignment;
      ] );
  ]
