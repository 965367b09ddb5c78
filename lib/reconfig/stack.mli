(** The full reconfiguration scheme as a single "black box" (Figure 1):
    (N,Θ)-failure detector + recSA + recMA + joining mechanism, with a
    pluggable application on top.

    The protocol core is engine-agnostic: {!Core} builds the node automaton
    against any runtime implementing the RUNTIME signature
    ({!Runtime.S}) — the discrete-event simulator ({!Runtime.Sim_engine})
    or the real-time event loop ({!Runtime.Loop}). {!Make} builds the
    system API once over any {!HOST} runtime: this module is the
    simulator-backed system used by the tests and the experiment harness,
    and {!Loop} the same system on the event loop.

    ['app] is the application state (replicated to joiners by the joining
    mechanism); ['msg] is the application's own message type. Every
    Section-4 service (labeling, counters, virtual synchrony, shared
    memory) is a {!plugin} record carried by {!hooks}; {!Plugin.stack}
    layers one service over another. *)

open Sim

type ('app, 'msg) message =
  | Heartbeat  (** the data-link token; keeps failure detectors fed *)
  | Snap of Snap_link.msg
      (** snap-stabilizing link cleaning on new connections (Section 2) *)
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
  mutable seeds : Pid.Set.t;  (** initially-known processors *)
  mutable snap : Snap_link.t Pid.Map.t;
      (** per-peer cleaning handshakes; a joiner participates in the
          protocols over a link only once its handshake completed *)
  joiner : bool;  (** joined after system start (runs the handshake) *)
  mutable tele_phase : Notification.phase;
      (** last notification phase observed by the telemetry layer, for
          timing the delicate-replacement 0 -> 1 -> 2 -> 0 cycle *)
}

(** Read-only view of the scheme handed to the application plugin — the
    [getConfig()] / [noReco()] interfaces of Figure 1, enriched with the
    executing runtime's clock, randomness and telemetry. *)
type scheme_view = {
  v_self : Pid.t;
  v_trusted : Pid.Set.t;
  v_recsa : Recsa.t;
  v_emit : string -> string -> unit;  (** trace emission *)
  v_now : float;  (** the runtime's current time *)
  v_rng : Rng.t;  (** the runtime's random source *)
  v_telemetry : Telemetry.t;  (** shared telemetry registry *)
}

(** Derived read-only views of the scheme state, shared by all service
    plugins (previously duplicated per service). *)
module View : sig
  (** [current_members v] — the configuration member set while no
      reconfiguration is taking place, [None] during reconfigurations. *)
  val current_members : scheme_view -> Pid.Set.t option

  (** The trusted participants (getConfig ∪ prospective members ∩ FD). *)
  val participants : scheme_view -> Pid.Set.t

  (** The raw configuration value as a set, reconfiguring or not. *)
  val config_set : scheme_view -> Pid.Set.t option

  (** [is_member v] — is this node a member of the stable configuration? *)
  val is_member : scheme_view -> bool
end

(** An application plugin — the one contract through which every
    Section-4 service sits on the scheme: ticked after the scheme layers on
    every timer step, handed every [App] message. Both return messages to
    send. *)
type ('app, 'msg) plugin = {
  p_init : Pid.t -> 'app;
  p_tick : scheme_view -> 'app -> 'app * (Pid.t * 'msg) list;
  p_recv : scheme_view -> from:Pid.t -> 'msg -> 'app -> 'app * (Pid.t * 'msg) list;
  p_merge : self:Pid.t -> 'app -> 'app Pid.Map.t -> 'app;
      (** [initVars]: combine members' states into a fresh participant's
          state when joining completes *)
  p_corrupt : Rng.t -> 'app -> 'app;
      (** transient fault: rewrite the application state with seeded
          garbage. Self-stabilization demands the plugin converge from
          whatever this returns; [corrupt_node] and fault plans call it
          alongside the scheme-layer corruptors. *)
}

module Plugin : sig
  (** A do-nothing plugin for running the bare reconfiguration scheme. *)
  val null : (unit, unit) plugin

  (** [stack ~lower ~get ~set ~wrap ~unwrap upper] layers [upper] over
      [lower], with [lower]'s state embedded in [upper]'s through the
      [get]/[set] lens and its messages embedded through [wrap]/[unwrap].
      Each tick runs [lower] first (its messages precede [upper]'s, and
      [upper] observes the post-tick lower state); receipts that [unwrap]
      recognizes go to [lower] alone, all others to [upper]. [p_corrupt]
      corrupts [lower] through the lens, then [upper]; [p_merge] merges
      [lower] over [get] of the others' states, then [upper]. This is how
      the register and virtual-synchrony services embed the counter
      service. *)
  val stack :
    lower:('a, 'ma) plugin ->
    get:('b -> 'a) ->
    set:('b -> 'a -> 'b) ->
    wrap:('ma -> 'mb) ->
    unwrap:('mb -> 'ma option) ->
    ('b, 'mb) plugin ->
    ('b, 'mb) plugin
end

type ('app, 'msg) hooks = {
  eval_conf : self:Pid.t -> trusted:Pid.Set.t -> Pid.Set.t -> bool;
      (** prediction function: should the given configuration be replaced? *)
  pass_query : self:Pid.t -> joiner:Pid.t -> bool;
      (** may this joiner enter the computation? *)
  plugin : ('app, 'msg) plugin;
}

(** Never asks for reconfiguration; always passes joiners; null plugin. *)
val unit_hooks : (unit, unit) hooks

(** [default_eval_conf ~fraction ()] — the paper's example predictor:
    replace when at least [fraction] (default 1/4) of the members are
    untrusted. *)
val default_eval_conf :
  ?fraction:float -> unit -> self:Pid.t -> trusted:Pid.Set.t -> Pid.Set.t -> bool

(** [snap_nonce ~self ~peer] — deterministic handshake instance identifier
    for the directed link [self → peer]: the two pids packed side by side
    ({!Sim.Pid.key_bits} bits each), so distinct pairs always get distinct
    nonces. *)
val snap_nonce : self:Pid.t -> peer:Pid.t -> int

(** [declare_metrics tele] pre-registers every telemetry family the scheme
    emits (conflict counters per stale type, reset/install counters, the
    replacement/recovery/join/counter-op/view-change histograms), so
    exports list a stable schema even before any event fires. Called by
    every system's [of_scenario] ({!Make}). *)
val declare_metrics : Telemetry.t -> unit

(** {2 The engine-agnostic protocol core} *)

(** [Core (R)] builds the scheme's node automaton for any runtime [R]
    implementing the RUNTIME signature. *)
module Core (R : Runtime.S) : sig
  val driver :
    capacity:int ->
    n_bound:int ->
    theta:int ->
    quorum:(module Quorum.SYSTEM) ->
    hooks:('app, 'msg) hooks ->
    members_set:Pid.Set.t ->
    directory:Pid.Set.t ref ->
    ('app node_state, ('app, 'msg) message, ('app, 'msg) message R.ctx)
    Runtime.driver
  (** [directory] is read at node-init time: a node created after system
      start treats the processors then present as its seeds and runs the
      cleaning handshake against them. A driver serves one host: it keeps
      that host's [stack.sent] counter handles. *)
end

(** [quiescent_of nodes] — {!SYSTEM.quiescent} over any [(pid, node_state)]
    collection, for harnesses that drive the nodes themselves. *)
val quiescent_of : (Pid.t * 'app node_state) list -> bool

(** {2 Transient faults}

    Garbage generators shared by every host and by custom injectors: a
    random subset of [pool], a random configuration over it, and a random
    reconfiguration notification. *)

val random_pid_set : Rng.t -> Pid.t list -> Pid.Set.t
val random_config : Rng.t -> Pid.t list -> Config_value.t
val random_notification : Rng.t -> Pid.t list -> Notification.t

(** {2 Systems over a host runtime}

    {!Core} is one node's automaton. A {e system} is a set of such nodes on
    a host runtime, with the control, observation and fault surface that
    tests and harnesses drive. {!HOST} is what a runtime offers for that;
    {!Make} writes the whole {!SYSTEM} API once over it. *)

module type HOST = sig
  module Ctx : Runtime.S
  (** The per-step capabilities the node automaton runs against. *)

  type ('s, 'm) t
  (** A running set of nodes with state ['s] exchanging messages ['m]. *)

  val create : Scenario.t -> driver:('s, 'm, 'm Ctx.ctx) Runtime.driver -> ('s, 'm) t
  (** One node per [sc_members] pid, seeded with [sc_seed]; the host reads
      whichever other scenario knobs it models. *)

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
  (** Overwrite a directed channel's contents. [None] when the host's
      channels hold values a transient fault cannot fabricate; fault plans
      then count [Corrupt_channels] events as skipped. *)

  val set_mangler : (('s, 'm) t -> (Rng.t -> 'm -> 'm) option -> unit) option
  (** Install the rewriter of "bit-flipped" packets on profiled links.
      [None] when a flipped packet is simply lost. *)
end

module type SYSTEM = sig
  type ('s, 'm) host
  (** The host runtime's node set. *)

  type ('app, 'msg) t
  (** A system running the scheme on every node. *)

  val of_scenario : hooks:('app, 'msg) hooks -> Scenario.t -> ('app, 'msg) t
  (** The initial participants [sc_members] start with the agreed
      configuration [sc_members] (a steady config state); other processors
      enter later via [add_joiner] or a plan's [Join] events.
      [sc_quorum] generalizes recMA's collapse / prediction tests and the
      joining admission test to any intersecting quorum system — the
      generalization the paper claims in Related Work. Fault plans are
      applied by {!run_plan}. *)

  val engine : ('app, 'msg) t -> ('app node_state, ('app, 'msg) message) host
  (** The underlying host (for trace, telemetry and round access). *)

  val add_joiner : ('app, 'msg) t -> Pid.t -> unit
  (** [add_joiner t p] introduces a new processor over snap-stabilized
      (clean) links; it knows the processors present at its join time. *)

  (** {2 Observation} *)

  val node : ('app, 'msg) t -> Pid.t -> 'app node_state
  val live_nodes : ('app, 'msg) t -> (Pid.t * 'app node_state) list
  val trusted_of : ('app, 'msg) t -> Pid.t -> Pid.Set.t

  val uniform_config : ('app, 'msg) t -> Pid.Set.t option
  (** [Some s] iff every live {e participant} holds exactly [Set s] — the
      paper's conflict-free condition. [None] while any participant
      disagrees, is resetting, or no participant exists. *)

  val quiescent : ('app, 'msg) t -> bool
  (** Uniform configuration and [no_reco] holds at every live participant
      (steady config state). *)

  val installed : ('app, 'msg) t -> Pid.Set.t -> bool
  (** [installed t set] — {!quiescent} with [uniform_config t = Some set]:
      a replacement to [set] has completed. *)

  (** Sums over all live nodes: recSA brute-force resets, delicate
      installs, recMA accepted triggerings. *)

  val total_resets : ('app, 'msg) t -> int
  val total_installs : ('app, 'msg) t -> int
  val total_triggers : ('app, 'msg) t -> int

  (** {2 Driving} *)

  val rounds : ('app, 'msg) t -> int
  (** Asynchronous rounds completed so far (the host's round count). *)

  val run_rounds : ('app, 'msg) t -> int -> unit

  val run_until_quiescent : ('app, 'msg) t -> max_rounds:int -> int option
  (** Runs until {!quiescent}; returns the number of rounds consumed, or
      [None] on timeout. *)

  val crash : ('app, 'msg) t -> Pid.t -> unit

  val estab : ('app, 'msg) t -> Pid.t -> Pid.Set.t -> bool
  (** [estab t p set] — request a delicate replacement at node [p] (test
      hook; normally recMA decides). *)

  val propose : ('app, 'msg) t -> Pid.t -> Pid.Set.t -> tries:int -> bool
  (** [propose t p set ~tries] calls {!estab} up to [tries] times, running 2
      rounds after each refusal, until one is accepted. [false] when every
      try was refused (after [2 * tries] rounds). *)

  (** {2 Faults}

      Every host supports node corruption, link profiles, partitions,
      crashes and joins; {!HOST} lists the optional capabilities. *)

  val corrupt_node : ('app, 'msg) t -> Pid.t -> rng:Rng.t -> unit
  (** Writes pseudo-random garbage into the node's recSA, recMA, join and
      application state. *)

  val fault_ops : ('app, 'msg) t -> Faults.Injector.ops
  (** The capability record for {!Faults.Injector}. *)

  val run_plan :
    ('app, 'msg) t -> plan:Faults.Fault_plan.t -> max_rounds:int -> int option
  (** Drives the system round by round, applying [plan]'s events at their
      scheduled rounds, then runs on until quiescence. Returns the number
      of rounds between the last plan action and quiescence ([None] if
      the [max_rounds] budget expires first) — the measured stabilization
      time. *)
end

module Make (H : HOST) : SYSTEM with type ('s, 'm) host = ('s, 'm) H.t

(** {2 The simulator-backed system}

    It offers both optional {!HOST} capabilities. *)

include SYSTEM with type ('s, 'm) host = ('s, 'm) Engine.t

val run_until : ('app, 'msg) t -> max_steps:int -> (('app, 'msg) t -> bool) -> bool
(** Steps until the predicate holds, checking after every atomic step. *)

val corrupt_everything : ('app, 'msg) t -> rng:Rng.t -> unit
(** Corrupts every live node and fills every channel between live nodes
    with stale protocol packets. *)

(** {2 The loop-backed system}

    The identical stack on the real-time event loop ({!Runtime.Loop}),
    with neither optional capability. *)

module Loop : SYSTEM with type ('s, 'm) host = ('s, 'm) Runtime.Loop.t
