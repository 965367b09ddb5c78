(* The four workloads and the measurements they share.

   Every workload runs a sequence of timed units: chunks of rounds on one
   warm system (steady-n64, register-mix-n16) or whole episodes, each on a
   fresh system (recover-churn-n32, smr-reconf-n8). The first [prefix]
   units are a fixed, seeded amount of work: the deterministic metrics
   (allocation, round counts, latencies in rounds, the checks) come from
   them, so two runs with one seed report them identically. A timed run
   then keeps adding units until its time is up, for the timed metrics.
   A traced run executes the prefix once on the plain system and once on
   the traced one and compares what they did. *)

open Sim
open Reconfig
module Reg = Register.Register_service
module Shm = Vs.Shared_memory
module Vss = Vs.Vs_service

type mode =
  | Timed of float  (** the prefix, then more units until this many seconds *)
  | Prefix  (** the prefix only *)

let now_s () = float_of_int (Ledger.now ()) *. 1e-9

(* --- what a run accumulates --- *)

type acc = {
  mutable setups : float list;
      (** CPU seconds of each build and warm-up, scaled by {!Host_speed} *)
  mutable rates : float list;  (** rounds per wall second, per unit *)
  mutable cpu_rates : float list;
      (** rounds per CPU second, scaled by {!Host_speed}, per unit *)
  mutable win_wall : float;  (** wall seconds inside all units *)
  mutable win_ops : int;  (** client ops completed inside all units *)
  (* the deterministic prefix *)
  mutable p_steps : int;
  mutable p_rounds : int;
  mutable p_words : float;
  mutable p_promoted : float;
  mutable p_minors : int;
  mutable p_wall : float;
  mutable p_ops : int;
  mutable p_sent : int;
  mutable p_dropped : int;
  p_counters : (string, int) Hashtbl.t;  (** telemetry counter deltas *)
  mutable lat_read : int list;
  mutable lat_write : int list;
  mutable rec_rounds : int list;  (** recovery rounds (prefix) *)
  mutable rec_wall : float list;  (** recovery wall seconds (all units) *)
  mutable joiners : int;  (** joiners that became participants *)
  mutable view_change : float list;  (** vs.view_change_seconds p50s *)
  mutable digest : string list;  (** what the prefix did, unit by unit *)
  (* checks *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
}

let fresh () =
  {
    setups = [];
    rates = [];
    cpu_rates = [];
    win_wall = 0.0;
    win_ops = 0;
    p_steps = 0;
    p_rounds = 0;
    p_words = 0.0;
    p_promoted = 0.0;
    p_minors = 0;
    p_wall = 0.0;
    p_ops = 0;
    p_sent = 0;
    p_dropped = 0;
    p_counters = Hashtbl.create 64;
    lat_read = [];
    lat_write = [];
    rec_rounds = [];
    rec_wall = [];
    joiners = 0;
    view_change = [];
    digest = [];
    attempted = 0;
    failed = 0;
    failures = [];
  }

let fail acc msg =
  acc.failed <- acc.failed + 1;
  if List.length acc.failures < 8 then acc.failures <- acc.failures @ [ msg ]

let check acc ok msg =
  acc.attempted <- acc.attempted + 1;
  if not ok then fail acc (msg ())

(* --- telemetry counters, keyed "name{k=v,...}" --- *)

let counter_key name labels =
  match labels with
  | [] -> name
  | l -> name ^ "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l) ^ "}"

let counters tele =
  List.map (fun (name, labels, v) -> (counter_key name labels, v)) (Telemetry.counters tele)

let render_counters cs = String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ string_of_int v) cs)

let add_deltas acc before after =
  List.iter
    (fun (k, v) ->
      let v0 = Option.value ~default:0 (List.assoc_opt k before) in
      let prev = Option.value ~default:0 (Hashtbl.find_opt acc.p_counters k) in
      Hashtbl.replace acc.p_counters k (prev + v - v0))
    after

(* a family's total over all label sets *)
let counted acc name =
  Hashtbl.fold
    (fun k v sum ->
      if k = name || String.starts_with ~prefix:(name ^ "{") k then sum + v else sum)
    acc.p_counters 0

let counter_total tele name =
  List.fold_left
    (fun sum (n, _, v) -> if n = name then sum + v else sum)
    0 (Telemetry.counters tele)

(* --- timing one unit --- *)

(* [measure acc ~traced ~prefix ~ops sys f] runs [f], one unit of work on
   [sys], and returns its wall seconds; the host's speed is measured just
   before it. [ops ()] is the running count of completed client ops.
   Prefix units also record allocation, traffic and telemetry deltas, and
   a digest line the traced run must reproduce. *)
let measure acc ~traced ~prefix ~ops (sys : _ System.t) f =
  let speed = Host_speed.speed [ Host_speed.sample () ] in
  let eng = sys.System.eng in
  let tele = Engine.telemetry eng in
  let steps0 = Engine.steps eng and rounds0 = Engine.rounds eng and ops0 = ops () in
  let before = if prefix then counters tele else [] in
  let sent0, dropped0 = if prefix then System.channel_totals sys else (0, 0) in
  let gc0 = Gc.quick_stat () in
  let words0 = Gc.minor_words () in
  Ledger.enabled := traced;
  let t0 = now_s () and c0 = Sys.time () in
  f ();
  let wall = now_s () -. t0 and cpu = Sys.time () -. c0 in
  Ledger.enabled := false;
  let words = Gc.minor_words () -. words0 in
  let gc1 = Gc.quick_stat () in
  let steps = Engine.steps eng - steps0 and rounds = Engine.rounds eng - rounds0 in
  let done_ops = ops () - ops0 in
  acc.rates <- Stats.ratio (float_of_int rounds) wall :: acc.rates;
  acc.cpu_rates <- Stats.ratio (float_of_int rounds) (cpu *. speed) :: acc.cpu_rates;
  acc.win_wall <- acc.win_wall +. wall;
  acc.win_ops <- acc.win_ops + done_ops;
  if prefix then begin
    acc.p_steps <- acc.p_steps + steps;
    acc.p_rounds <- acc.p_rounds + rounds;
    acc.p_words <- acc.p_words +. words;
    acc.p_promoted <- acc.p_promoted +. (gc1.Gc.promoted_words -. gc0.Gc.promoted_words);
    acc.p_minors <- acc.p_minors + (gc1.Gc.minor_collections - gc0.Gc.minor_collections);
    acc.p_wall <- acc.p_wall +. wall;
    acc.p_ops <- acc.p_ops + done_ops;
    let sent1, dropped1 = System.channel_totals sys in
    acc.p_sent <- acc.p_sent + sent1 - sent0;
    acc.p_dropped <- acc.p_dropped + dropped1 - dropped0;
    let after = counters tele in
    add_deltas acc before after;
    acc.digest <-
      acc.digest
      @ [
          Printf.sprintf "steps=%d rounds=%d ops=%d %s" steps rounds done_ops
            (render_counters after);
        ]
  end;
  wall

(* the benchmark's own per-round work, a layer of its own when traced *)
let harness traced f = if traced then Ledger.span Ledger.Harness f else f ()

(* Run units [0, 1, ...]: the prefix, then (timed mode) more until
   [seconds] have passed since [start]. *)
let run_units ~mode ~prefix ~start unit_fn =
  let more i =
    i < prefix
    || match mode with Timed seconds -> now_s () -. start < seconds | Prefix -> false
  in
  let rec go i =
    if more i then begin
      unit_fn ~prefix:(i < prefix) i;
      go (i + 1)
    end
  in
  go 0

let scenario ~seed n = Scenario.make ~seed ~nodes:n ~loss:0.02 ()

let mix seed i = ((seed * 1_000_003) + (i * 7919) + 17) land 0x3FFF_FFFF

(* Build, warm up until [ready], and time it. A run has only a few
   set-ups, each one long interval, so its host speed is the median of
   kernel samples on both sides of it; a unit takes one sample, and the
   median over many units does the rest. *)
let setup acc ~build ~ready =
  let before = List.init 3 (fun _ -> Host_speed.sample ()) in
  let t0 = Sys.time () in
  let sys = build () in
  Engine.run_rounds sys.System.eng 25;
  let rec warm () =
    if ready sys then true
    else if Engine.rounds sys.System.eng >= 400 then false
    else begin
      Engine.run_rounds sys.System.eng 1;
      warm ()
    end
  in
  let ok = warm () in
  let cpu = Sys.time () -. t0 in
  let after = List.init 3 (fun _ -> Host_speed.sample ()) in
  let speed = Host_speed.speed (before @ after) in
  acc.setups <- (cpu *. speed) :: acc.setups;
  check acc ok (fun () -> "warm-up did not reach its ready state within 400 rounds");
  sys

let rec repeat_setup n f = if n <= 1 then f () else (ignore (f ()); repeat_setup (n - 1) f)
let no_ops () = 0

(* --- steady-n64: the always-on cost of self-stabilizing gossip --- *)

let steady_chunk = 4

(* one set-up per timed run is too few for a steady median *)
let steady_setups = function Timed _ -> 3 | Prefix -> 1

let steady ~traced ~seed ~mode ~prefix acc =
  let sys =
    repeat_setup (steady_setups mode) (fun () ->
        setup acc
          ~build:(fun () ->
            System.make ~traced ~hooks:Stack.unit_hooks (scenario ~seed 64))
          ~ready:(fun s -> s.System.steady ()))
  in
  let tele = Engine.telemetry sys.System.eng in
  let disturbances () =
    counter_total tele "recsa.resets" + counter_total tele "recsa.installs"
  in
  run_units ~mode ~prefix ~start:(now_s ()) (fun ~prefix i ->
      let d0 = disturbances () in
      ignore
        (measure acc ~traced ~prefix ~ops:no_ops sys (fun () ->
             Engine.run_rounds sys.System.eng steady_chunk));
      check acc (disturbances () = d0) (fun () ->
          Printf.sprintf "reset or install in steady chunk %d" i));
  check acc (sys.System.steady ()) (fun () -> "not in a steady config state after the window")

(* --- recover-churn-n32: convergence from an arbitrary state under churn --- *)

let joiner_pids = [ 33; 34 ]
let max_recovery_rounds = 2000

let churn_plan ~seed =
  let open Faults.Fault_plan in
  make ~seed
    [
      at 0 (Corrupt_nodes All);
      at 0 (Corrupt_channels All);
      at 0 (Crash (Sample 2));
      at 0 (Join joiner_pids);
      at 0
        (Degrade_links
           { src = Sample 4; dst = All; profile = { fp_drop = 0.3; fp_dup = 0.1; fp_flip = 0.1 } });
      at 10 (Restore_links { src = All; dst = All });
    ]

let recover ~traced ~seed ~mode ~prefix acc =
  run_units ~mode ~prefix ~start:(now_s ()) (fun ~prefix i ->
      let eseed = mix seed i in
      let sys =
        setup acc
          ~build:(fun () ->
            System.make ~traced ~hooks:Stack.unit_hooks (scenario ~seed:eseed 32))
          ~ready:(fun s -> s.System.steady ())
      in
      let eng = sys.System.eng in
      let inj = Faults.Injector.create ~plan:(churn_plan ~seed:(mix eseed 1)) ~ops:sys.fault_ops in
      let inject () =
        if traced then Ledger.span Ledger.Inject (fun () -> Faults.Injector.step inj)
        else Faults.Injector.step inj
      in
      let recovered () =
        Faults.Injector.finished inj
        && harness traced (fun () -> sys.System.steady () && System.all_participants sys)
      in
      let r0 = Engine.rounds eng in
      let ok = ref false in
      let wall =
        measure acc ~traced ~prefix ~ops:no_ops sys (fun () ->
            inject ();
            let rec go () =
              if recovered () then ok := true
              else if Engine.rounds eng - r0 < max_recovery_rounds then begin
                Engine.run_rounds eng 1;
                inject ();
                go ()
              end
            in
            go ())
      in
      check acc !ok (fun () ->
          Printf.sprintf "episode %d (seed %d) did not recover within %d rounds" i eseed
            max_recovery_rounds);
      acc.rec_wall <- wall :: acc.rec_wall;
      if prefix then begin
        acc.rec_rounds <- acc.rec_rounds @ [ Engine.rounds eng - r0 ];
        List.iter
          (fun p ->
            if Engine.is_live eng p && Recsa.is_participant (Engine.state eng p).Stack.sa
            then acc.joiners <- acc.joiners + 1)
          joiner_pids
      end)

(* --- client bookkeeping shared by the two service workloads --- *)

type kind = Read_op | Write_op

type op = {
  kind : kind;
  rid : int;
  ri : int;  (** register index *)
  value : int;  (** the written value (writes) *)
  start_round : int;
  start_time : float;
}

let registers = 4
let reg_name ri = "r" ^ string_of_int ri

(* Per register: every write's start time by value, writes known to have
   failed, and the earliest completion of a successful write. Values are
   unique per write, so a read result names its write. *)
type history = {
  starts : (int, float) Hashtbl.t;
  failed_writes : (int, unit) Hashtbl.t;
  mutable first_done : float;
}

let histories () =
  Array.init registers (fun _ ->
      { starts = Hashtbl.create 64; failed_writes = Hashtbl.create 8; first_done = infinity })

(* A read must return the value of a write to its register that began
   before the read completed and did not fail, or "unwritten" only if no
   write to it had completed before the read began. Times are the
   simulator's at round boundaries, where ops are issued and completions
   observed, so the comparisons are exact. *)
let check_read acc h ~now op result =
  check acc
    (match result with
    | Some v -> (
      match Hashtbl.find_opt h.starts v with
      | Some began -> began < now && not (Hashtbl.mem h.failed_writes v)
      | None -> false)
    | None -> h.first_done > op.start_time)
    (fun () ->
      Printf.sprintf "read %d of %s returned %s" op.rid (reg_name op.ri)
        (match result with Some v -> string_of_int v | None -> "unwritten"))

let record_latency acc ~prefix ~limit op lat =
  if lat > limit then
    fail acc (Printf.sprintf "op %d took %d rounds (limit %d)" op.rid lat limit)
  else if prefix then
    match op.kind with
    | Read_op -> acc.lat_read <- lat :: acc.lat_read
    | Write_op -> acc.lat_write <- lat :: acc.lat_write

(* --- register-mix-n16: quorum register, closed loop --- *)

let register_chunk = 10
let register_limit = 60

(* How much work a round costs depends on the system's history (counter
   labels, stored tags), which a seed fixes; rotating the units over
   several independently seeded systems keeps one seed's history from
   setting the whole run's figures. *)
let register_systems = 8

(* One warm system with one closed-loop client per member. Returns the
   system, the per-round client step and the end-of-run check. *)
let register_system acc ~traced ~seed ~ops =
  let members = Array.of_list (Scenario.default_members 16) in
  let sys =
    setup acc
      ~build:(fun () -> System.make ~traced ~hooks:(Reg.hooks ()) (scenario ~seed 16))
      ~ready:(fun s -> s.System.steady ())
  in
  let eng = sys.System.eng in
  let rng = Rng.create (mix seed 2) in
  let pending = Array.make (Array.length members) None in
  let rids = Array.make (Array.length members) 0 in
  let hist = histories () in
  let clients ~prefix =
    let now = Engine.time eng and round = Engine.rounds eng in
    (* completions first: an op issued this round sees every write that
       completed before it *)
    Array.iteri
      (fun i p ->
        match pending.(i) with
        | None -> ()
        | Some op ->
          let st = System.app sys p in
          let finished, result =
            match op.kind with
            | Write_op -> (Reg.write_done st ~rid:op.rid, None)
            | Read_op -> (
              match Reg.find_read st ~rid:op.rid with
              | Some r -> (true, r)
              | None -> (false, None))
          in
          if finished then begin
            pending.(i) <- None;
            incr ops;
            acc.attempted <- acc.attempted + 1;
            record_latency acc ~prefix ~limit:register_limit op (round - op.start_round);
            let h = hist.(op.ri) in
            match op.kind with
            | Write_op -> if now < h.first_done then h.first_done <- now
            | Read_op -> check_read acc h ~now op result
          end)
      members;
    Array.iteri
      (fun i p ->
        if pending.(i) = None then begin
          let st = System.app sys p in
          rids.(i) <- rids.(i) + 1;
          let rid = rids.(i) in
          let ri = Rng.int rng registers in
          let kind = if Rng.bool rng then Write_op else Read_op in
          let value = (p * 1_000_000) + rid in
          (match kind with
          | Write_op ->
            Hashtbl.replace hist.(ri).starts value now;
            Reg.write st ~rid (reg_name ri) value
          | Read_op -> Reg.read st ~rid (reg_name ri));
          pending.(i) <-
            Some { kind; rid; ri; value; start_round = round; start_time = now }
        end)
      members
  in
  let finish () =
    (* an op still in flight fails only once it is over the limit *)
    Array.iter
      (function
        | Some op when Engine.rounds eng - op.start_round > register_limit ->
          acc.attempted <- acc.attempted + 1;
          fail acc (Printf.sprintf "op %d still pending after %d rounds" op.rid register_limit)
        | Some _ | None -> ())
      pending;
    check acc (sys.System.steady ()) (fun () ->
        "not in a steady config state after the window")
  in
  (sys, clients, finish)

let register ~traced ~seed ~mode ~prefix acc =
  let ops = ref 0 in
  let systems =
    Array.init register_systems (fun k ->
        register_system acc ~traced ~seed:(mix seed k) ~ops)
  in
  run_units ~mode ~prefix ~start:(now_s ()) (fun ~prefix i ->
      let sys, clients, _ = systems.(i mod register_systems) in
      ignore
        (measure acc ~traced ~prefix ~ops:(fun () -> !ops) sys (fun () ->
             for _ = 1 to register_chunk do
               Engine.run_rounds sys.System.eng 1;
               harness traced (fun () -> clients ~prefix)
             done)));
  Array.iter (fun (_, _, finish) -> finish ()) systems

(* --- smr-reconf-n8: shared memory over virtual synchrony, open loop,
   across a coordinator-led reconfiguration --- *)

let smr_window = 400
let smr_period = 10
let smr_drain_from = 80  (* the crash victims stop issuing here ... *)
let smr_crash_at = 100  (* ... and fail here *)
let smr_limit = 150

let smr_ready (sys : _ System.t) =
  sys.System.steady ()
  && List.for_all
       (fun (_, n) ->
         let st = n.Stack.app in
         Vss.status_of st = Vss.Multicast
         && Pid.Set.cardinal (Vss.current_view st).Vss.vset = 8)
       (System.live_states sys)

let smr ~traced ~seed ~mode ~prefix acc =
  run_units ~mode ~prefix ~start:(now_s ()) (fun ~prefix e ->
      let eseed = mix seed e in
      let sys =
        setup acc
          ~build:(fun () ->
            System.make ~traced
              ~hooks:(Shm.hooks ~eval_config:(Stack.default_eval_conf ()) ())
              (scenario ~seed:eseed 8))
          ~ready:smr_ready
      in
      let eng = sys.System.eng in
      let members = Array.of_list (Scenario.default_members 8) in
      let rng = Rng.create (mix eseed 3) in
      let pending = Array.make (Array.length members) [] in
      let rids = Array.make (Array.length members) 0 in
      let seen = Array.make_matrix (Array.length members) registers None in
      let hist = histories () in
      let ops = ref 0 in
      let victims =
        List.filter
          (fun p -> not (Vss.is_coordinator (System.app sys p)))
          (Array.to_list members)
        |> Rng.shuffle rng
        |> List.filteri (fun k _ -> k < 2)
      in
      let w0 = Engine.rounds eng in
      (* the crash (window round, wall seconds), and the rounds and wall
         seconds from it to service in the new view *)
      let crashed = ref None in
      let reconfigured = ref None in
      let poll ~prefix i p =
        let st = System.app sys p in
        let now = Engine.time eng and round = Engine.rounds eng in
        pending.(i) <-
          List.filter
            (fun op ->
              let finished =
                match op.kind with
                | Write_op -> (
                  match Shm.cas_result st ~writer:p ~rid:op.rid with
                  | None -> false
                  | Some success ->
                    let h = hist.(op.ri) in
                    if success then begin
                      seen.(i).(op.ri) <- Some op.value;
                      if now < h.first_done then h.first_done <- now
                    end
                    else Hashtbl.replace h.failed_writes op.value ();
                    true)
                | Read_op -> (
                  match Shm.read_result st ~reader:p ~rid:op.rid with
                  | None -> false
                  | Some result ->
                    seen.(i).(op.ri) <- result;
                    check_read acc hist.(op.ri) ~now op result;
                    true)
              in
              if finished then begin
                incr ops;
                acc.attempted <- acc.attempted + 1;
                record_latency acc ~prefix ~limit:smr_limit op (round - op.start_round)
              end;
              not finished)
            pending.(i)
      in
      let issue i p ~due =
        let st = System.app sys p in
        rids.(i) <- rids.(i) + 1;
        let rid = rids.(i) in
        let ri = Rng.int rng registers in
        let now = Engine.time eng in
        let kind = if Rng.bool rng then Write_op else Read_op in
        let value = (p * 1_000_000) + rid in
        (match kind with
        | Write_op ->
          Hashtbl.replace hist.(ri).starts value now;
          Shm.compare_and_set st ~writer:p ~rid (reg_name ri) ~expected:seen.(i).(ri) value
        | Read_op -> Shm.read st ~reader:p ~rid (reg_name ri));
        pending.(i) <-
          pending.(i) @ [ { kind; rid; ri; value; start_round = due; start_time = now } ]
      in
      let last_w = ref (-1) in
      let clients ~prefix ~issuing =
        let w = Engine.rounds eng - w0 in
        Array.iteri (fun i p -> if Engine.is_live eng p then poll ~prefix i p) members;
        if w >= smr_crash_at && !crashed = None then begin
          List.iter
            (fun p ->
              let lost = List.length pending.(p - 1) in
              for _ = 1 to lost do
                acc.attempted <- acc.attempted + 1;
                fail acc (Printf.sprintf "op lost with crashed client %d" p)
              done;
              pending.(p - 1) <- [];
              Engine.crash eng p)
            victims;
          crashed := Some (w, now_s ())
        end;
        (match (!crashed, !reconfigured) with
        | Some (cw, ct), None ->
          let resumed =
            List.for_all
              (fun (_, n) ->
                let st = n.Stack.app in
                Vss.status_of st = Vss.Multicast
                && Pid.Set.cardinal (Vss.current_view st).Vss.vset = 6)
              (System.live_states sys)
          in
          if resumed then reconfigured := Some (w - cw, now_s () -. ct)
        | _ -> ());
        (* every round since the last call is due, in case the round count
           jumped; latency counts from the round an op was due *)
        if issuing then
          for dw = !last_w + 1 to w do
            Array.iteri
              (fun i p ->
                if
                  (dw + i) mod smr_period = 0
                  && Engine.is_live eng p
                  && not (List.mem p victims && dw >= smr_drain_from)
                then issue i p ~due:(w0 + dw))
              members
          done;
        last_w := w
      in
      let idle () = Array.for_all (fun l -> l = []) pending in
      ignore
        (measure acc ~traced ~prefix ~ops:(fun () -> !ops) sys (fun () ->
            harness traced (fun () -> clients ~prefix ~issuing:true);
            for _ = 1 to smr_window do
              Engine.run_rounds eng 1;
              harness traced (fun () -> clients ~prefix ~issuing:true)
            done;
            let rec drain k =
              if k > 0 && not (idle ()) then begin
                Engine.run_rounds eng 1;
                harness traced (fun () -> clients ~prefix ~issuing:false);
                drain (k - 1)
              end
            in
            drain smr_limit));
      Array.iter
        (List.iter (fun op ->
             acc.attempted <- acc.attempted + 1;
             fail acc (Printf.sprintf "op %d never completed" op.rid)))
        pending;
      (match !reconfigured with
      | Some (rounds, seconds) ->
        acc.rec_wall <- seconds :: acc.rec_wall;
        if prefix then acc.rec_rounds <- acc.rec_rounds @ [ rounds ]
      | None -> ());
      check acc (!reconfigured <> None) (fun () ->
          Printf.sprintf "episode %d never resumed in a 6-member view" e);
      let journals =
        List.map
          (fun (p, n) -> Vs.Vs_checker.journal_of_state p n.Stack.app)
          (System.live_states sys)
      in
      let audit = Vs_audit.check journals in
      check acc (Result.is_ok audit) (fun () ->
          match audit with Error msg -> "virtual synchrony violated: " ^ msg | Ok () -> "");
      if prefix then
        match
          Telemetry.histograms (Engine.telemetry eng)
          |> List.find_opt (fun (name, _, h) ->
                 name = "vs.view_change_seconds" && Telemetry.Histogram.count h > 0)
        with
        | Some (_, _, h) ->
          acc.view_change <-
            Option.value ~default:0.0 (Telemetry.Histogram.quantile h 0.5) :: acc.view_change
        | None -> ())

(* --- the catalogue --- *)

type workload = {
  name : string;
  prefix : int;  (** units in the deterministic prefix *)
  services : bool;  (** clients issue ops *)
  recovery : bool;  (** reports recovery time *)
  run : traced:bool -> seed:int -> mode:mode -> prefix:int -> acc -> unit;
}

let all =
  [
    { name = "steady-n64"; prefix = 6; services = false; recovery = false; run = steady };
    { name = "recover-churn-n32"; prefix = 8; services = false; recovery = true; run = recover };
    { name = "register-mix-n16"; prefix = 24; services = true; recovery = false; run = register };
    { name = "smr-reconf-n8"; prefix = 3; services = true; recovery = true; run = smr };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
