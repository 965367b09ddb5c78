(* Tests for the engine-agnostic runtime layer: the snap-nonce packing, the
   plugin stacking combinator, the real-time loop runtime, and the
   sim-vs-loop equivalence of the full stack. *)

open Sim
open Reconfig

let set = Pid.set_of_list

(* ------------------------------------------------------------------ *)
(* snap_nonce                                                          *)
(* ------------------------------------------------------------------ *)

let test_snap_nonce_regression () =
  (* the old [self * 1_000_003 + peer] scheme collided exactly here *)
  let n1 = Stack.snap_nonce ~self:1 ~peer:0 in
  let n2 = Stack.snap_nonce ~self:0 ~peer:1_000_003 in
  Alcotest.(check bool) "old colliding pair now distinct" true (n1 <> n2)

let test_snap_nonce_injective () =
  let pids = [ 0; 1; 2; 3; 17; 999; 1_000_002; 1_000_003; (1 lsl 20) + 5 ] in
  let tbl = Hashtbl.create 128 in
  List.iter
    (fun s ->
      List.iter
        (fun p ->
          let n = Stack.snap_nonce ~self:s ~peer:p in
          (match Hashtbl.find_opt tbl n with
          | Some (s', p') ->
            Alcotest.failf "nonce collision: (%d,%d) and (%d,%d) -> %d" s p s' p' n
          | None -> ());
          Hashtbl.add tbl n (s, p))
        pids)
    pids

(* ------------------------------------------------------------------ *)
(* Plugin stacking                                                     *)
(* ------------------------------------------------------------------ *)

let dummy_view ?(self = 1) () =
  {
    Stack.v_self = self;
    v_trusted = set [ 1; 2; 3 ];
    v_recsa = Recsa.create ~self ~participant:true ();
    v_emit = (fun _ _ -> ());
    v_now = 0.0;
    v_rng = Rng.create 1;
    v_telemetry = Telemetry.create ();
  }

(* A plugin whose state is a newest-first log of everything that happened
   to it, and whose tick always emits two tagged messages. Its merge
   records the head of every other state it was handed. *)
let probe tag =
  {
    Stack.p_init = (fun pid -> [ Printf.sprintf "%s.init.%d" tag pid ]);
    p_tick =
      (fun _v log ->
        (Printf.sprintf "%s.tick" tag :: log, [ (2, tag ^ ".m1"); (3, tag ^ ".m2") ]));
    p_recv =
      (fun _v ~from m log -> (Printf.sprintf "%s.recv.%d.%s" tag from m :: log, []));
    p_merge =
      (fun ~self log others ->
        let heads =
          Pid.Map.bindings others
          |> List.map (fun (p, l) -> Printf.sprintf "%d:%s" p (List.hd l))
        in
        Printf.sprintf "%s.merge.%d(%s)" tag self (String.concat "," heads) :: log);
    p_corrupt = (fun _ log -> (tag ^ ".corrupt") :: log);
  }

let lo_hi_msg =
  let pp fmt = function
    | `Lo m -> Format.fprintf fmt "Lo %s" m
    | `Hi m -> Format.fprintf fmt "Hi %s" m
  in
  Alcotest.testable pp ( = )

(* upper state = (lower log, upper log); upper's tick, merge and corrupt
   record a snapshot of the lower log so the lower-first contract is
   observable. *)
let stacked () =
  let upper =
    {
      Stack.p_init = (fun pid -> ([], [ Printf.sprintf "hi.init.%d" pid ]));
      p_tick =
        (fun _v (lo, hi) ->
          let seen = Printf.sprintf "hi.tick(saw %d lo events)" (List.length lo) in
          ((lo, seen :: hi), [ (9, `Hi "h1") ]));
      p_recv =
        (fun _v ~from m (lo, hi) ->
          match m with
          | `Hi s -> ((lo, Printf.sprintf "hi.recv.%d.%s" from s :: hi), [])
          | `Lo _ -> ((lo, "hi.MUST_NOT_SEE_LO" :: hi), []));
      p_merge =
        (fun ~self:_ (lo, hi) others ->
          let heads =
            Pid.Map.bindings others
            |> List.map (fun (p, (_, h)) -> Printf.sprintf "%d:%s" p (List.hd h))
          in
          ( lo,
            Printf.sprintf "hi.merge(after %s; %s)" (List.hd lo) (String.concat "," heads)
            :: hi ));
      p_corrupt =
        (fun _ (lo, hi) -> (lo, Printf.sprintf "hi.corrupt(after %s)" (List.hd lo) :: hi));
    }
  in
  Stack.Plugin.stack ~lower:(probe "lo")
    ~get:(fun (lo, _) -> lo)
    ~set:(fun (_, hi) lo -> (lo, hi))
    ~wrap:(fun m -> `Lo m)
    ~unwrap:(function `Lo m -> Some m | `Hi _ -> None)
    upper

let test_stack_ordering () =
  let p = stacked () in
  let v = dummy_view () in
  let st0 = p.Stack.p_init 1 in
  Alcotest.(check (list string)) "lower initialised" [ "lo.init.1" ] (fst st0);
  let (lo, hi), out = p.Stack.p_tick v st0 in
  Alcotest.(check (list (pair int lo_hi_msg)))
    "wrapped lower messages precede the upper's"
    [ (2, `Lo "lo.m1"); (3, `Lo "lo.m2"); (9, `Hi "h1") ]
    out;
  Alcotest.(check (list string)) "lower ticked" [ "lo.tick"; "lo.init.1" ] lo;
  (* 2 events: the upper observed the lower's post-tick state *)
  Alcotest.(check (list string))
    "upper saw the post-tick lower state"
    [ "hi.tick(saw 2 lo events)"; "hi.init.1" ]
    hi;
  (* corruption: the lower through the lens first, then the upper *)
  let lo, hi = p.Stack.p_corrupt (Rng.create 1) st0 in
  Alcotest.(check (list string)) "lower corrupted" [ "lo.corrupt"; "lo.init.1" ] lo;
  Alcotest.(check (list string))
    "upper corrupted after the lower"
    [ "hi.corrupt(after lo.corrupt)"; "hi.init.1" ]
    hi

let test_stack_routing () =
  let p = stacked () in
  let v = dummy_view () in
  let st0 = p.Stack.p_init 1 in
  let (lo, hi), out = p.Stack.p_recv v ~from:4 (`Lo "ping") st0 in
  Alcotest.(check (list string))
    "Lo routed to the lower alone" [ "lo.recv.4.ping"; "lo.init.1" ] lo;
  Alcotest.(check (list string)) "upper untouched" [ "hi.init.1" ] hi;
  Alcotest.(check (list (pair int lo_hi_msg))) "lower replies re-wrapped" [] out;
  let (lo, hi), _ = p.Stack.p_recv v ~from:4 (`Hi "yo") st0 in
  Alcotest.(check (list string)) "lower untouched" [ "lo.init.1" ] lo;
  Alcotest.(check (list string)) "Hi routed to the upper" [ "hi.recv.4.yo"; "hi.init.1" ] hi;
  (* merge: the lower merges the others' lower states (through [get]),
     then the upper merges the whole states over the merged lower *)
  let others = Pid.Map.of_list [ (2, p.Stack.p_init 2); (3, p.Stack.p_init 3) ] in
  let lo, hi = p.Stack.p_merge ~self:1 st0 others in
  let lo_merge = "lo.merge.1(2:lo.init.2,3:lo.init.3)" in
  Alcotest.(check (list string))
    "lower merged over the others' lower states" [ lo_merge; "lo.init.1" ] lo;
  Alcotest.(check (list string))
    "upper merged after the lower, over whole states"
    [ Printf.sprintf "hi.merge(after %s; 2:hi.init.2,3:hi.init.3)" lo_merge; "hi.init.1" ]
    hi

(* ------------------------------------------------------------------ *)
(* The loop runtime                                                    *)
(* ------------------------------------------------------------------ *)

type ping_state = { mutable got : (Pid.t * string) list; mutable pinged : bool }

let ping_driver : (ping_state, string, string Runtime.Loop.ctx) Runtime.driver =
  {
    Runtime.d_init = (fun _ -> { got = []; pinged = false });
    d_timer =
      (fun ctx st ->
        if Pid.equal (Runtime.Loop.Ctx.self ctx) 1 && not st.pinged then begin
          Runtime.Loop.Ctx.send ctx 2 "ping";
          st.pinged <- true
        end;
        st);
    d_recv =
      (fun ctx from m st ->
        st.got <- (from, m) :: st.got;
        if String.equal m "ping" then Runtime.Loop.Ctx.send ctx from "pong";
        st);
  }

let test_loop_delivery () =
  let t = Runtime.Loop.create ~driver:ping_driver ~pids:[ 1; 2 ] () in
  Runtime.Loop.run_round t;
  Alcotest.(check (list (pair int string)))
    "ping delivered in its round" [ (1, "ping") ]
    (Runtime.Loop.state t 2).got;
  Runtime.Loop.run_round t;
  Alcotest.(check (list (pair int string)))
    "pong delivered next round" [ (2, "pong") ]
    (Runtime.Loop.state t 1).got;
  Alcotest.(check int) "rounds counted" 2 (Runtime.Loop.rounds t);
  Alcotest.(check int) "no stragglers" 0 (Runtime.Loop.pending t)

let test_loop_clock_monotone () =
  (* an adversarial injected clock that jumps backwards *)
  let samples = ref [ 0.0; 1.0; 0.5; 2.0; 1.5; 3.0 ] in
  let clock () =
    match !samples with
    | [] -> 99.0
    | s :: rest ->
      samples := rest;
      s
  in
  let t = Runtime.Loop.create ~clock ~driver:ping_driver ~pids:[ 1; 2 ] () in
  let prev = ref (Runtime.Loop.now t) in
  for _ = 1 to 4 do
    Runtime.Loop.run_round t;
    let n = Runtime.Loop.now t in
    Alcotest.(check bool) "clock never regresses" true (n >= !prev);
    prev := n
  done

let test_loop_crash () =
  let t = Runtime.Loop.create ~driver:ping_driver ~pids:[ 1; 2 ] () in
  Runtime.Loop.crash t 2;
  Runtime.Loop.run_rounds t 3;
  Alcotest.(check (list int)) "crashed node dropped" [ 1 ] (Runtime.Loop.live_pids t);
  Alcotest.(check (list (pair int string)))
    "no pong from a crashed node" [] (Runtime.Loop.state t 1).got

(* ------------------------------------------------------------------ *)
(* Sim-vs-loop equivalence of the full stack                           *)
(* ------------------------------------------------------------------ *)

let pp_conf fmt = function
  | Some c -> Pid.pp_set fmt c
  | None -> Format.fprintf fmt "<none>"

(* compare with set equality, not polymorphic [=]: equal sets may have
   different internal tree shapes (interning canonicalizes across
   construction paths) *)
let conf = Alcotest.testable pp_conf (Option.equal Pid.Set.equal)

(* One scenario, written once against the system API: bootstrap to the
   members' configuration, corrupt every live node and recover to it
   through brute-force resets, then replace it delicately. *)
let bootstrap_and_recover name (module S : Stack.SYSTEM) =
  let members = [ 1; 2; 3 ] in
  let expect = Some (set members) in
  let sys =
    S.of_scenario ~hooks:Stack.unit_hooks (Scenario.make ~seed:11 ~n_bound:16 ~members ())
  in
  let quiesce what =
    if S.run_until_quiescent sys ~max_rounds:300 = None then
      Alcotest.failf "%s: never quiescent %s" name what
  in
  quiesce "after bootstrap";
  Alcotest.check conf (name ^ " agrees on the bootstrap configuration") expect
    (S.uniform_config sys);
  let resets = S.total_resets sys in
  let rng = Rng.create 3 in
  List.iter (fun (p, _) -> S.corrupt_node sys p ~rng) (S.live_nodes sys);
  quiesce "after corrupting every node";
  Alcotest.check conf (name ^ " recovers the configuration") expect (S.uniform_config sys);
  Alcotest.(check bool) (name ^ " recovered through a reset") true
    (S.total_resets sys > resets);
  let target = set [ 1; 2 ] in
  Alcotest.(check bool) (name ^ " accepts the proposal") true
    (S.propose sys 1 target ~tries:50);
  quiesce "after the replacement";
  Alcotest.(check bool) (name ^ " installed the proposal") true (S.installed sys target);
  (* estab refuses an empty set: every try is spent, 2 rounds apart *)
  let start = S.rounds sys in
  Alcotest.(check bool) (name ^ " refuses an empty proposal") false
    (S.propose sys 1 Pid.Set.empty ~tries:3);
  Alcotest.(check int) (name ^ " rounds spent on refusals") 6 (S.rounds sys - start)

let test_stack_on_both_runtimes () =
  bootstrap_and_recover "sim" (module Stack);
  bootstrap_and_recover "loop" (module Stack.Loop)

let test_loop_stack_joiner () =
  let lp =
    Stack.Loop.of_scenario ~hooks:Stack.unit_hooks
      (Scenario.make ~seed:5 ~n_bound:16 ~members:[ 1; 2; 3 ] ())
  in
  (match Stack.Loop.run_until_quiescent lp ~max_rounds:300 with
  | Some _ -> ()
  | None -> Alcotest.fail "never quiescent");
  Stack.Loop.add_joiner lp 9;
  Stack.Loop.run_rounds lp 200;
  Alcotest.(check bool) "joiner converges to trusting the members" true
    (Pid.Set.subset (set [ 1; 2; 3 ]) (Stack.Loop.trusted_of lp 9))

let suites =
  [
    ( "runtime.nonce",
      [
        Alcotest.test_case "regression" `Quick test_snap_nonce_regression;
        Alcotest.test_case "injective" `Quick test_snap_nonce_injective;
      ] );
    ( "runtime.plugin",
      [
        Alcotest.test_case "stack ordering" `Quick test_stack_ordering;
        Alcotest.test_case "stack routing" `Quick test_stack_routing;
      ] );
    ( "runtime.loop",
      [
        Alcotest.test_case "delivery" `Quick test_loop_delivery;
        Alcotest.test_case "monotone clock" `Quick test_loop_clock_monotone;
        Alcotest.test_case "crash" `Quick test_loop_crash;
      ] );
    ( "runtime.equivalence",
      [
        Alcotest.test_case "stack on both runtimes" `Quick test_stack_on_both_runtimes;
        Alcotest.test_case "loop joiner" `Quick test_loop_stack_joiner;
      ] );
  ]
