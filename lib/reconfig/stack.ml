open Sim

type ('app, 'msg) message =
  | Heartbeat
  | Snap of Snap_link.msg
  | Sa of Recsa.message
  | Ma of Recma.message
  | Join of 'app Join.message
  | App of 'msg

type 'app node_state = {
  fd : Detector.Theta_fd.t;
  sa : Recsa.t;
  ma : Recma.t;
  join : 'app Join.t;
  mutable app : 'app;
  mutable seeds : Pid.Set.t;
  mutable snap : Snap_link.t Pid.Map.t;
  joiner : bool;
  mutable tele_phase : Notification.phase;
}

type scheme_view = {
  v_self : Pid.t;
  v_trusted : Pid.Set.t;
  v_recsa : Recsa.t;
  v_emit : string -> string -> unit;
  v_now : float;
  v_rng : Rng.t;
  v_telemetry : Telemetry.t;
}

(* --- derived views of the scheme state (Figure 1's getConfig()/noReco()
   read interfaces), shared by every service plugin --- *)

module View = struct
  let current_members v =
    if Recsa.no_reco v.v_recsa ~trusted:v.v_trusted then
      Config_value.to_set (Recsa.chs_config v.v_recsa ~trusted:v.v_trusted)
    else None

  let participants v = Recsa.participants v.v_recsa ~trusted:v.v_trusted
  let config_set v = Config_value.to_set (Recsa.config v.v_recsa)

  let is_member v =
    match current_members v with
    | Some members -> Pid.Set.mem v.v_self members
    | None -> false
end

type ('app, 'msg) plugin = {
  p_init : Pid.t -> 'app;
  p_tick : scheme_view -> 'app -> 'app * (Pid.t * 'msg) list;
  p_recv : scheme_view -> from:Pid.t -> 'msg -> 'app -> 'app * (Pid.t * 'msg) list;
  p_merge : self:Pid.t -> 'app -> 'app Pid.Map.t -> 'app;
  p_corrupt : Rng.t -> 'app -> 'app;
}

module Plugin = struct
  let null =
    {
      p_init = (fun _ -> ());
      p_tick = (fun _ app -> (app, []));
      p_recv = (fun _ ~from:_ _ app -> (app, []));
      p_merge = (fun ~self:_ app _ -> app);
      p_corrupt = (fun _ app -> app);
    }

  let stack ~lower ~get ~set ~wrap ~unwrap upper =
    let out l = List.map (fun (d, m) -> (d, wrap m)) l in
    {
      p_init = (fun pid -> set (upper.p_init pid) (lower.p_init pid));
      p_tick =
        (fun v st ->
          let a, la = lower.p_tick v (get st) in
          let st = set st a in
          let st, ua = upper.p_tick v st in
          (st, out la @ ua));
      p_recv =
        (fun v ~from m st ->
          match unwrap m with
          | Some lm ->
            let a, l = lower.p_recv v ~from lm (get st) in
            (set st a, out l)
          | None -> upper.p_recv v ~from m st);
      p_merge =
        (fun ~self st others ->
          let a = lower.p_merge ~self (get st) (Pid.Map.map get others) in
          upper.p_merge ~self (set st a) others);
      p_corrupt =
        (fun rng st ->
          let st = set st (lower.p_corrupt rng (get st)) in
          upper.p_corrupt rng st);
    }
end

type ('app, 'msg) hooks = {
  eval_conf : self:Pid.t -> trusted:Pid.Set.t -> Pid.Set.t -> bool;
  pass_query : self:Pid.t -> joiner:Pid.t -> bool;
  plugin : ('app, 'msg) plugin;
}

let unit_hooks =
  {
    eval_conf = (fun ~self:_ ~trusted:_ _ -> false);
    pass_query = (fun ~self:_ ~joiner:_ -> true);
    plugin = Plugin.null;
  }

let default_eval_conf ?(fraction = 0.25) () ~self:_ ~trusted members =
  let total = Pid.Set.cardinal members in
  if total = 0 then false
  else
    let missing = total - Pid.Set.cardinal (Pid.Set.inter members trusted) in
    float_of_int missing >= fraction *. float_of_int total

(* A joiner uses a link only once its cleaning handshake completed
   (Section 2: every established data link is initialized and cleaned
   straight after it is established). Gating is per link: a handshake with
   a processor that crashed mid-join simply never completes and that link
   is never used. Established members' links predate the run and need no
   handshake. *)
let link_clean n peer =
  (not n.joiner)
  ||
  match Pid.Map.find_opt peer n.snap with
  | Some s -> Snap_link.phase s = Snap_link.Clean_done
  | None -> false

(* a deterministic handshake instance identifier for the pair: the two pids
   packed side by side ([Pid.key_bits] each), collision-free over the whole
   pid range — a multiplicative mix would collide once pids reach the
   multiplier *)
let snap_nonce ~self ~peer = (self lsl Pid.key_bits) lor peer

(* Pre-register every telemetry family the scheme can emit, so exporters
   list a stable schema even for runs where an event never fires. *)
let declare_metrics tele =
  List.iter
    (fun ty -> Telemetry.declare_counter tele ~labels:[ ("type", ty) ] "recsa.conflicts")
    [ "1"; "2"; "3"; "4" ];
  Telemetry.declare_counter tele "recsa.resets";
  Telemetry.declare_counter tele "recsa.brute_force";
  Telemetry.declare_counter tele "recsa.installs";
  List.iter
    (fun r -> Telemetry.declare_counter tele ~labels:[ ("reason", r) ] "recma.triggers")
    [ "collapse"; "prediction" ];
  Telemetry.declare_counter tele "join.completed";
  Telemetry.declare_counter tele "counter.aborts";
  Telemetry.declare_counter tele "vs.proposals";
  Telemetry.declare_counter tele "vs.installs";
  Telemetry.declare_histogram tele "recsa.replacement_seconds";
  Telemetry.declare_histogram tele "recsa.reset_recovery_seconds";
  Telemetry.declare_histogram tele "join.handshake_seconds";
  List.iter
    (fun op ->
      Telemetry.declare_histogram tele ~labels:[ ("op", op) ] "counter.op_seconds")
    [ "increment"; "read" ];
  Telemetry.declare_histogram tele "vs.view_change_seconds"

let snap_instance ~capacity n ~self ~peer =
  match Pid.Map.find_opt peer n.snap with
  | Some s -> s
  | None ->
    let s =
      Snap_link.create ~capacity ~self ~peer ~nonce:(snap_nonce ~self ~peer)
    in
    n.snap <- Pid.Map.add peer s n.snap;
    s

(* --- the protocol core, written once against the RUNTIME signature --- *)

(* the [kind] label of [stack.sent] *)
type send_kind = Snap_k | Sa_k | Ma_k | Join_k | App_k | Heartbeat_k

let send_kind_index = function
  | Snap_k -> 0
  | Sa_k -> 1
  | Ma_k -> 2
  | Join_k -> 3
  | App_k -> 4
  | Heartbeat_k -> 5

let send_kind_label = function
  | Snap_k -> "snap"
  | Sa_k -> "sa"
  | Ma_k -> "ma"
  | Join_k -> "join"
  | App_k -> "app"
  | Heartbeat_k -> "heartbeat"

module Core (R : Runtime.S) = struct
  (* [sent] holds one driver's [stack.sent] handles, one slot per kind,
     each resolved on the kind's first send so a kind never sent never
     shows up in the exports *)
  let send_counted sent ctx kind dst m =
    let i = send_kind_index kind in
    let c =
      match sent.(i) with
      | Some c -> c
      | None ->
        let c =
          Telemetry.counter (R.telemetry ctx)
            ~labels:[ ("kind", send_kind_label kind) ]
            "stack.sent"
        in
        sent.(i) <- Some c;
        c
    in
    Telemetry.bump c;
    R.send ctx dst m

  (* protocol traffic is held back until the link's handshake completed *)
  let send_gated sent ctx n kind dst m =
    if link_clean n dst then send_counted sent ctx kind dst m

  let view_of ctx n ~trusted =
    {
      v_self = R.self ctx;
      v_trusted = trusted;
      v_recsa = n.sa;
      v_emit = R.emit ctx;
      v_now = R.now ctx;
      v_rng = R.rng ctx;
      v_telemetry = R.telemetry ctx;
    }

  let driver ~capacity ~n_bound ~theta ~quorum ~hooks ~members_set ~directory =
    let sent = Array.make 6 None (* one slot per [send_kind] *) in
    let send_counted = send_counted sent in
    let send_gated = send_gated sent in
    let init p =
      let participant = Pid.Set.mem p members_set in
      let joiner = not participant in
      let n =
        {
          fd = Detector.Theta_fd.create ~n_bound ~theta ~self:p ();
          sa =
            Recsa.create ~self:p ~participant
              ?initial_config:(if participant then Some members_set else None)
              ();
          ma = Recma.create ~self:p;
          join = Join.create ~self:p;
          app = hooks.plugin.p_init p;
          seeds = Pid.Set.remove p !directory;
          snap = Pid.Map.empty;
          joiner;
          tele_phase = Notification.P0;
        }
      in
      if joiner then
        Pid.Set.iter (fun peer -> ignore (snap_instance ~capacity n ~self:p ~peer)) n.seeds;
      n
    in
    let on_timer ctx n =
      let self = R.self ctx in
      (* flood pending cleaning handshakes *)
      Pid.Map.iter
        (fun peer s ->
          match Snap_link.on_tick s with
          | Some m ->
            (* keep the channel's pipe full: the handshake needs more than
               the round-trip capacity of acknowledgments *)
            for _ = 1 to max 1 (capacity / 2) do
              send_counted ctx Snap_k peer (Snap m)
            done
          | None -> ())
        n.snap;
      (* interned: this set rides in every broadcast's [m_fd] and seeds every
         participants-filter this tick, so canonicalize it once here *)
      let trusted = Intern.pid_set (Detector.Theta_fd.trusted n.fd) in
      let tele = R.telemetry ctx in
      let now = R.now ctx in
      let emit_all =
        List.iter (fun ev ->
            let tag, detail = Event.to_trace ev in
            R.emit ctx tag detail;
            Event.note tele ~self ~now ev)
      in
      (* recSA: one do-forever iteration, then the line-29 broadcast *)
      emit_all (Recsa.tick n.sa ~trusted);
      (* time the delicate-replacement automaton: a span opens when this
         node's notification leaves phase 0 and closes when it returns
         (Figure 2's 0 -> 1 -> 2 -> 0 cycle) *)
      let phase = (Recsa.prp n.sa).Notification.phase in
      if phase <> n.tele_phase then begin
        (match (n.tele_phase, phase) with
        | Notification.P0, (Notification.P1 | Notification.P2) ->
          Telemetry.span_begin tele ~name:"recsa.replacement_seconds" ~key:self ~now
        | (Notification.P1 | Notification.P2), Notification.P0 ->
          if Telemetry.span_open tele ~name:"recsa.replacement_seconds" ~key:self
          then
            Telemetry.span_end tele ~name:"recsa.replacement_seconds" ~key:self ~now
        | _ -> ());
        n.tele_phase <- phase
      end;
      let sa_msgs = Recsa.broadcast n.sa ~trusted in
      List.iter (fun (dst, m) -> send_gated ctx n Sa_k dst (Sa m)) sa_msgs;
      (* recMA *)
      let ma_msgs, ma_events =
        Recma.tick n.ma ~quorum ~trusted ~recsa:n.sa
          ~eval_conf:(fun members -> hooks.eval_conf ~self ~trusted members)
          ()
      in
      emit_all ma_events;
      List.iter (fun (dst, m) -> send_gated ctx n Ma_k dst (Ma m)) ma_msgs;
      (* joining mechanism (joiner side) *)
      let join_msgs, join_events =
        Join.tick n.join ~quorum ~trusted ~recsa:n.sa
          ~reset_vars:(fun () -> n.app <- hooks.plugin.p_init self)
          ~init_vars:(fun states ->
            n.app <- hooks.plugin.p_merge ~self n.app states)
          ()
      in
      emit_all join_events;
      List.iter (fun (dst, m) -> send_gated ctx n Join_k dst (Join m)) join_msgs;
      (* application plugin *)
      let app', app_msgs = hooks.plugin.p_tick (view_of ctx n ~trusted) n.app in
      n.app <- app';
      List.iter (fun (dst, m) -> send_gated ctx n App_k dst (App m)) app_msgs;
      (* heartbeats (the data-link token) to every known processor not already
         covered by a recSA broadcast, which goes to every trusted peer *)
      let broadcast = sa_msgs <> [] in
      let heartbeat dst =
        if not (Pid.equal dst self || (broadcast && Pid.Set.mem dst trusted)) then
          send_gated ctx n Heartbeat_k dst Heartbeat
      in
      if Pid.Set.for_all (Detector.Theta_fd.mem_known n.fd) n.seeds then
        Detector.Theta_fd.iter_known n.fd heartbeat
      else Pid.Set.iter heartbeat (Pid.Set.union n.seeds (Detector.Theta_fd.known n.fd));
      n
    in
    let on_message ctx from msg n =
      (match msg with
      | Snap m ->
        let s = snap_instance ~capacity n ~self:(R.self ctx) ~peer:from in
        let reply, completed = Snap_link.on_msg s m in
        (match reply with
        | Some r -> send_counted ctx Snap_k from (Snap r)
        | None -> ());
        (match completed with
        | `Completed -> R.emit ctx "snap.clean" (Pid.to_string from)
        | `Pending -> ())
      | Heartbeat | Sa _ | Ma _ | Join _ | App _ ->
        if link_clean n from then Detector.Theta_fd.heartbeat n.fd from);
      (match msg with
      | _ when not (link_clean n from) -> () (* link not yet cleaned *)
      | Snap _ -> ()
      | Heartbeat -> ()
      | Sa m -> Recsa.receive n.sa ~from m
      | Ma m -> Recma.receive n.ma ~from ~participant:(Recsa.is_participant n.sa) m
      | Join (Join.Join_request) ->
        let trusted = Detector.Theta_fd.trusted n.fd in
        (match
           Join.on_request n.join ~self_app:n.app ~from ~trusted ~recsa:n.sa
             ~pass_query:(fun joiner ->
               hooks.pass_query ~self:(R.self ctx) ~joiner)
         with
        | Some reply -> send_gated ctx n Join_k from (Join reply)
        | None -> ())
      | Join (Join.Join_reply { pass; app }) ->
        Join.on_reply n.join ~from ~participant:(Recsa.is_participant n.sa) ~pass ~app
      | App m ->
        let trusted = Intern.pid_set (Detector.Theta_fd.trusted n.fd) in
        let app', out = hooks.plugin.p_recv (view_of ctx n ~trusted) ~from m n.app in
        n.app <- app';
        List.iter (fun (dst, m) -> send_gated ctx n App_k dst (App m)) out);
      n
    in
    { Runtime.d_init = init; d_timer = on_timer; d_recv = on_message }
end

(* --- runtime-agnostic observation over collections of node states --- *)

let uniform_config_of nodes =
  let participant_configs =
    List.filter_map
      (fun (_, n) ->
        match Recsa.config n.sa with
        | Config_value.Not_participant -> None
        | v -> Some v)
      nodes
  in
  match participant_configs with
  | [] -> None
  | first :: rest ->
    if List.for_all (Config_value.equal first) rest then Config_value.to_set first
    else None

let quiescent_of nodes =
  match uniform_config_of nodes with
  | None -> false
  | Some _ ->
    List.for_all
      (fun (_, n) ->
        (not (Recsa.is_participant n.sa))
        || Recsa.no_reco n.sa ~trusted:(Detector.Theta_fd.trusted n.fd))
      nodes

(* --- seeded garbage: the raw material of transient faults --- *)

let random_pid_set rng pool =
  match Rng.subset rng pool with [] -> Pid.set_of_list [ List.hd pool ] | l -> Pid.set_of_list l

let random_config rng pool =
  match Rng.int rng 4 with
  | 0 -> Config_value.Reset
  | 1 -> Config_value.Set (random_pid_set rng pool)
  | 2 -> Config_value.Set Pid.Set.empty
  | _ -> Config_value.Set (random_pid_set rng pool)

let random_notification rng pool =
  match Rng.int rng 4 with
  | 0 -> Notification.default
  | 1 -> { Notification.phase = Notification.P0; set = Some (random_pid_set rng pool) }
  | 2 -> Notification.make Notification.P1 (random_pid_set rng pool)
  | _ -> Notification.make Notification.P2 (random_pid_set rng pool)

(* A stale recSA packet, as left behind by an arbitrary transient fault. *)
let stale_sa rng pool =
  let trusted = random_pid_set rng pool in
  Sa
    {
      Recsa.m_fd = trusted;
      m_part = random_pid_set rng pool;
      m_config = random_config rng pool;
      m_prp = random_notification rng pool;
      m_all = Rng.bool rng;
      m_echo = None;
    }

(* A corrupted channel's contents: zero to three stale packets. *)
let stale_packets rng pool = List.init (Rng.int rng 4) (fun _ -> stale_sa rng pool)

let to_engine_profile p =
  {
    Engine.lp_drop = p.Faults.Fault_plan.fp_drop;
    lp_dup = p.Faults.Fault_plan.fp_dup;
    lp_flip = p.Faults.Fault_plan.fp_flip;
  }

(* --- the system API, written once over a host runtime --- *)

module type HOST = sig
  module Ctx : Runtime.S

  type ('s, 'm) t

  val create : Scenario.t -> driver:('s, 'm, 'm Ctx.ctx) Runtime.driver -> ('s, 'm) t
  val pids : ('s, 'm) t -> Pid.t list
  val live_pids : ('s, 'm) t -> Pid.t list
  val state : ('s, 'm) t -> Pid.t -> 's
  val rounds : ('s, 'm) t -> int
  val run_rounds : ('s, 'm) t -> int -> unit
  val now : ('s, 'm) t -> float
  val trace : ('s, 'm) t -> Trace.t
  val telemetry : ('s, 'm) t -> Telemetry.t
  val add_node : ('s, 'm) t -> Pid.t -> unit
  val crash : ('s, 'm) t -> Pid.t -> unit
  val partition : ('s, 'm) t -> Pid.Set.t -> unit
  val heal : ('s, 'm) t -> unit

  val set_link_profile :
    ('s, 'm) t -> src:Pid.t -> dst:Pid.t -> Engine.link_profile option -> unit

  val clear_link_profiles : ('s, 'm) t -> unit
  val corrupt_channel : (('s, 'm) t -> src:Pid.t -> dst:Pid.t -> 'm list -> unit) option
  val set_mangler : (('s, 'm) t -> (Rng.t -> 'm -> 'm) option -> unit) option
end

module type SYSTEM = sig
  type ('s, 'm) host
  type ('app, 'msg) t

  val of_scenario : hooks:('app, 'msg) hooks -> Scenario.t -> ('app, 'msg) t
  val engine : ('app, 'msg) t -> ('app node_state, ('app, 'msg) message) host
  val add_joiner : ('app, 'msg) t -> Pid.t -> unit
  val node : ('app, 'msg) t -> Pid.t -> 'app node_state
  val live_nodes : ('app, 'msg) t -> (Pid.t * 'app node_state) list
  val trusted_of : ('app, 'msg) t -> Pid.t -> Pid.Set.t
  val uniform_config : ('app, 'msg) t -> Pid.Set.t option
  val quiescent : ('app, 'msg) t -> bool
  val total_resets : ('app, 'msg) t -> int
  val total_installs : ('app, 'msg) t -> int
  val total_triggers : ('app, 'msg) t -> int
  val run_rounds : ('app, 'msg) t -> int -> unit
  val run_until_quiescent : ('app, 'msg) t -> max_rounds:int -> int option
  val crash : ('app, 'msg) t -> Pid.t -> unit
  val estab : ('app, 'msg) t -> Pid.t -> Pid.Set.t -> bool
  val corrupt_node : ('app, 'msg) t -> Pid.t -> rng:Rng.t -> unit
  val fault_ops : ('app, 'msg) t -> Faults.Injector.ops

  val run_plan :
    ('app, 'msg) t -> plan:Faults.Fault_plan.t -> max_rounds:int -> int option
end

module Make (H : HOST) : SYSTEM with type ('s, 'm) host = ('s, 'm) H.t = struct
  module C = Core (H.Ctx)

  type ('s, 'm) host = ('s, 'm) H.t

  type ('app, 'msg) t = {
    host : ('app node_state, ('app, 'msg) message) H.t;
    hooks : ('app, 'msg) hooks;
    directory : Pid.Set.t ref;
  }

  let of_scenario ~hooks (sc : Scenario.t) =
    let members_set = Pid.set_of_list sc.sc_members in
    let directory = ref members_set in
    let driver =
      C.driver ~capacity:sc.sc_capacity ~n_bound:sc.sc_n_bound ~theta:sc.sc_theta
        ~quorum:sc.sc_quorum ~hooks ~members_set ~directory
    in
    let host = H.create sc ~driver in
    declare_metrics (H.telemetry host);
    Faults.Injector.declare_metrics (H.telemetry host);
    (* "bit flips" on profiled links: a typed message has no bits to flip, so
       a mangled packet re-parses as garbage — a heartbeat or a stale recSA
       packet *)
    Option.iter
      (fun set_mangler ->
        set_mangler host
          (Some
             (fun rng _msg ->
               if Rng.bool rng then Heartbeat else stale_sa rng (H.pids host))))
      H.set_mangler;
    { host; hooks; directory }

  let engine t = t.host

  let add_joiner t p =
    t.directory := Pid.Set.add p !(t.directory);
    H.add_node t.host p

  let node t p = H.state t.host p
  let live_nodes t = List.map (fun p -> (p, H.state t.host p)) (H.live_pids t.host)
  let trusted_of t p = Detector.Theta_fd.trusted (node t p).fd
  let uniform_config t = uniform_config_of (live_nodes t)
  let quiescent t = quiescent_of (live_nodes t)
  let sum_over t f = List.fold_left (fun acc (_, n) -> acc + f n) 0 (live_nodes t)
  let total_resets t = sum_over t (fun n -> Recsa.reset_count n.sa)
  let total_installs t = sum_over t (fun n -> Recsa.install_count n.sa)
  let total_triggers t = sum_over t (fun n -> Recma.trigger_count n.ma)
  let run_rounds t n = H.run_rounds t.host n

  let run_until_quiescent t ~max_rounds =
    let start = H.rounds t.host in
    let rec go () =
      if quiescent t then Some (H.rounds t.host - start)
      else if H.rounds t.host - start >= max_rounds then None
      else begin
        H.run_rounds t.host 1;
        go ()
      end
    in
    go ()

  let crash t p = H.crash t.host p
  let estab t p set = Recsa.estab (node t p).sa ~trusted:(trusted_of t p) set

  let corrupt_node t p ~rng =
    let pool = H.pids t.host in
    let n = node t p in
    Recsa.corrupt n.sa ~config:(random_config rng pool)
      ~prp:(random_notification rng pool) ~all:(Rng.bool rng)
      ~allseen:(random_pid_set rng pool) ();
    Recsa.clear_peers n.sa;
    let random_flags () = List.map (fun q -> (q, Rng.bool rng)) pool in
    Recma.corrupt n.ma ~no_maj:(random_flags ()) ~need_reconf:(random_flags ());
    Join.corrupt n.join ~rng ~pool;
    n.app <- t.hooks.plugin.p_corrupt rng n.app

  let fault_ops t =
    let h = t.host in
    {
      Faults.Injector.o_live = (fun () -> H.live_pids h);
      o_pids = (fun () -> H.pids h);
      o_rounds = (fun () -> H.rounds h);
      o_crash = (fun p -> H.crash h p);
      o_join = (fun p -> add_joiner t p);
      o_corrupt_node = (fun rng p -> corrupt_node t p ~rng);
      o_corrupt_link =
        Option.map
          (fun corrupt rng ~src ~dst -> corrupt h ~src ~dst (stale_packets rng (H.pids h)))
          H.corrupt_channel;
      o_set_link_profile =
        Some
          (fun ~src ~dst profile ->
            H.set_link_profile h ~src ~dst (Option.map to_engine_profile profile));
      o_partition = (fun group -> H.partition h group);
      o_heal =
        (fun () ->
          H.heal h;
          H.clear_link_profiles h);
      o_telemetry = H.telemetry h;
      o_emit =
        (fun ~tag ~detail -> Trace.record (H.trace h) ~time:(H.now h) ~tag detail);
    }

  let run_plan t ~plan ~max_rounds =
    let inj = Faults.Injector.create ~plan ~ops:(fault_ops t) in
    Faults.Injector.step inj;
    while not (Faults.Injector.finished inj) do
      run_rounds t 1;
      Faults.Injector.step inj
    done;
    run_until_quiescent t ~max_rounds
end

(* --- the two hosts --- *)

module Sim_host = struct
  include Engine
  module Ctx = Runtime.Sim_engine

  let create (sc : Scenario.t) ~driver =
    Engine.create ~seed:sc.sc_seed ~capacity:sc.sc_capacity ~loss:sc.sc_loss
      ~behavior:(Runtime.sim_behavior driver) ~pids:sc.sc_members ()

  let now = Engine.time
  let corrupt_channel = Some Engine.corrupt_channel
  let set_mangler = Some Engine.set_mangler
end

module Loop_host = struct
  include Runtime.Loop

  let create (sc : Scenario.t) ~driver =
    Runtime.Loop.create ~seed:sc.sc_seed ~driver ~pids:sc.sc_members ()

  (* mailboxes hold typed values a transient fault cannot fabricate, and a
     "bit-flipped" message is simply lost *)
  let corrupt_channel = None
  let set_mangler = None
end

(* --- the simulator-backed system, and what only the simulator offers --- *)

include Make (Sim_host)

let run_until t ~max_steps pred = Engine.run_until (engine t) ~max_steps (fun _ -> pred t)

let corrupt_everything t ~rng =
  let eng = engine t in
  let live = Engine.live_pids eng in
  List.iter (fun p -> corrupt_node t p ~rng) live;
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          if not (Pid.equal src dst) then
            Engine.corrupt_channel eng ~src ~dst (stale_packets rng (Engine.pids eng)))
        live)
    live

module Loop = Make (Loop_host)
