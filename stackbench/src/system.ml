(* The system under test, built two ways.

   [plain] is [Stack.of_scenario]: the program exactly as its users build
   it. [traced] rebuilds the same system from public parts —
   [Stack.Core] applied to a timing wrapper of [Runtime.Sim_engine], with
   the driver's steps, the hooks and the plugin wrapped in {!Ledger}
   spans — so the benchmark can time each layer without spans inside the
   program. Both share one handle, and a traced run must reproduce the
   plain run's seeded behaviour exactly (the workloads check it). *)

open Sim
open Reconfig

type ('app, 'msg) t = {
  eng : ('app Stack.node_state, ('app, 'msg) Stack.message) Engine.t;
  add_joiner : Pid.t -> unit;
  fault_ops : Faults.Injector.ops;
  steady : unit -> bool;  (** [Invariants.steady_config_state] *)
}

let plain ~hooks sc =
  let s = Stack.of_scenario ~hooks sc in
  {
    eng = Stack.engine s;
    add_joiner = Stack.add_joiner s;
    fault_ops = Stack.fault_ops s;
    steady = (fun () -> Invariants.steady_config_state s);
  }

(* --- the traced system --- *)

module Timed_engine = struct
  include Runtime.Sim_engine

  let send ctx dst m =
    Ledger.enter ();
    Runtime.Sim_engine.send ctx dst m;
    Ledger.leave Ledger.Send
end

module Timed_core = Stack.Core (Timed_engine)

let timed_hooks (h : ('app, 'msg) Stack.hooks) =
  let p = h.Stack.plugin in
  {
    Stack.eval_conf =
      (fun ~self ~trusted members ->
        Ledger.enter ();
        let r = h.Stack.eval_conf ~self ~trusted members in
        Ledger.leave Ledger.Eval_conf;
        r);
    pass_query =
      (fun ~self ~joiner ->
        Ledger.enter ();
        let r = h.Stack.pass_query ~self ~joiner in
        Ledger.leave Ledger.Pass_query;
        r);
    plugin =
      {
        p with
        Stack.p_tick =
          (fun v app ->
            Ledger.enter ();
            let r = p.Stack.p_tick v app in
            Ledger.leave Ledger.P_tick;
            r);
        p_recv =
          (fun v ~from m app ->
            Ledger.enter ();
            let r = p.Stack.p_recv v ~from m app in
            Ledger.leave Ledger.P_recv;
            r);
      };
  }

let recv_layer = function
  | Stack.Heartbeat -> Ledger.Recv_heartbeat
  | Stack.Snap _ -> Ledger.Recv_snap
  | Stack.Sa _ -> Ledger.Recv_sa
  | Stack.Ma _ -> Ledger.Recv_ma
  | Stack.Join _ -> Ledger.Recv_join
  | Stack.App _ -> Ledger.Recv_app

let timed_driver (d : _ Runtime.driver) =
  {
    d with
    Runtime.d_timer =
      (fun ctx n ->
        Ledger.enter ();
        let n = d.Runtime.d_timer ctx n in
        Ledger.leave Ledger.Timer;
        n);
    d_recv =
      (fun ctx from m n ->
        Ledger.enter ();
        let n = d.Runtime.d_recv ctx from m n in
        Ledger.leave (recv_layer m);
        n);
  }

(* The garbage generators and fault capabilities below mirror
   [Stack.of_scenario] and [Stack.fault_ops] expression for expression, so
   they draw the same random numbers in the same order. *)

let stale_sa rng pool =
  let trusted = Stack.random_pid_set rng pool in
  Stack.Sa
    {
      Recsa.m_fd = trusted;
      m_part = Stack.random_pid_set rng pool;
      m_config = Stack.random_config rng pool;
      m_prp = Stack.random_notification rng pool;
      m_all = Rng.bool rng;
      m_echo = None;
    }

let corrupt_node eng (hooks : _ Stack.hooks) p ~rng =
  let pool = Engine.pids eng in
  let n = Engine.state eng p in
  Recsa.corrupt n.Stack.sa ~config:(Stack.random_config rng pool)
    ~prp:(Stack.random_notification rng pool) ~all:(Rng.bool rng)
    ~allseen:(Stack.random_pid_set rng pool) ();
  Recsa.clear_peers n.Stack.sa;
  let random_flags () = List.map (fun q -> (q, Rng.bool rng)) pool in
  Recma.corrupt n.Stack.ma ~no_maj:(random_flags ()) ~need_reconf:(random_flags ());
  Join.corrupt n.Stack.join ~rng ~pool;
  n.Stack.app <- hooks.Stack.plugin.Stack.p_corrupt rng n.Stack.app

let corrupt_link eng ~src ~dst ~rng =
  let pool = Engine.pids eng in
  let k = Rng.int rng 4 in
  let pkts = List.init k (fun _ -> stale_sa rng pool) in
  Engine.corrupt_channel eng ~src ~dst pkts

let to_engine_profile p =
  {
    Engine.lp_drop = p.Faults.Fault_plan.fp_drop;
    lp_dup = p.Faults.Fault_plan.fp_dup;
    lp_flip = p.Faults.Fault_plan.fp_flip;
  }

(* [Invariants.steady_config_state] over the engine's live nodes *)
let steady_of_engine eng =
  let nodes = List.map (fun p -> (p, Engine.state eng p)) (Engine.live_pids eng) in
  Stack.quiescent_of nodes
  && List.for_all
       (fun (_, n) ->
         Recsa.stale_types n.Stack.sa ~trusted:(Detector.Theta_fd.trusted n.Stack.fd) = [])
       nodes

let traced ~hooks (sc : Scenario.t) =
  let members = sc.Scenario.sc_members in
  let members_set = Pid.set_of_list members in
  let directory = ref members_set in
  let driver =
    Timed_core.driver ~capacity:sc.sc_capacity ~n_bound:sc.sc_n_bound ~theta:sc.sc_theta
      ~quorum:sc.sc_quorum ~hooks:(timed_hooks hooks) ~members_set ~directory
  in
  let eng =
    Engine.create ~seed:sc.sc_seed ~capacity:sc.sc_capacity ~loss:sc.sc_loss
      ~behavior:(Runtime.sim_behavior (timed_driver driver)) ~pids:members ()
  in
  Stack.declare_metrics (Engine.telemetry eng);
  Faults.Injector.declare_metrics (Engine.telemetry eng);
  Engine.set_mangler eng
    (Some
       (fun rng _msg ->
         if Rng.bool rng then Stack.Heartbeat else stale_sa rng (Engine.pids eng)));
  let add_joiner p =
    directory := Pid.Set.add p !directory;
    Engine.add_node eng p
  in
  let fault_ops =
    {
      Faults.Injector.o_live = (fun () -> Engine.live_pids eng);
      o_pids = (fun () -> Engine.pids eng);
      o_rounds = (fun () -> Engine.rounds eng);
      o_crash = (fun p -> Engine.crash eng p);
      o_join = add_joiner;
      o_corrupt_node = (fun rng p -> corrupt_node eng hooks p ~rng);
      o_corrupt_link = Some (fun rng ~src ~dst -> corrupt_link eng ~src ~dst ~rng);
      o_set_link_profile =
        Some
          (fun ~src ~dst profile ->
            Engine.set_link_profile eng ~src ~dst (Option.map to_engine_profile profile));
      o_partition = (fun group -> Engine.partition eng group);
      o_heal =
        (fun () ->
          Engine.heal eng;
          Engine.clear_link_profiles eng);
      o_telemetry = Engine.telemetry eng;
      o_emit =
        (fun ~tag ~detail ->
          Trace.record (Engine.trace eng) ~time:(Engine.time eng) ~tag detail);
    }
  in
  { eng; add_joiner; fault_ops; steady = (fun () -> steady_of_engine eng) }

let make ~traced:t ~hooks sc = if t then traced ~hooks sc else plain ~hooks sc

(* --- observation shared by the workloads --- *)

let live_states t = List.map (fun p -> (p, Engine.state t.eng p)) (Engine.live_pids t.eng)

let app t p = (Engine.state t.eng p).Stack.app

let all_participants t =
  List.for_all (fun (_, n) -> Recsa.is_participant n.Stack.sa) (live_states t)

(* summed over every directed channel the engine ever had *)
let channel_totals t =
  let pids = Engine.pids t.eng in
  List.fold_left
    (fun acc src ->
      List.fold_left
        (fun (sent, dropped) dst ->
          if Pid.equal src dst then (sent, dropped)
          else
            let s = Channel.stats (Engine.channel t.eng ~src ~dst) in
            (sent + s.Channel.sent, dropped + s.Channel.dropped))
        acc pids)
    (0, 0) pids
