(** The observable steps of the reconfiguration scheme, as typed data.

    [Recsa.tick], [Recma.tick] and [Join.tick] return these; the node
    automaton renders each one twice: as a trace line ({!to_trace}) and
    into the telemetry registry ({!note}). *)

open Sim

(** Why recMA asked recSA for a delicate replacement. *)
type reason =
  | Collapse  (** no quorum of configuration members is trusted *)
  | Prediction  (** a quorum of members wants a replacement *)

type t =
  | Stale of int  (** Definition 3.1 stale information of this type (1–4) *)
  | Reset of string  (** a brute-force reset started, with its cause *)
  | Join_reset  (** a non-participant entered a reset it observed *)
  | Brute_force of Pid.Set.t  (** a reset ended: config ← this trusted set *)
  | Install of Pid.Set.t  (** a delicate replacement installed this set *)
  | Adopt of Notification.t  (** converged on a peer's greater notification *)
  | Phase2 of Pid.Set.t  (** the proposal for this set entered phase 2 *)
  | Phase0  (** the replacement cycle returned to phase 0 *)
  | Trigger of reason  (** recMA's [estab] was accepted *)
  | Join_start  (** the joiner (re)entered the joining state *)
  | Join_participate  (** the joiner became a participant *)

(** [to_trace e] is the [(tag, detail)] trace line, e.g.
    [("recsa.stale", "type-2")] or [("recma.trigger", "majority collapse")]. *)
val to_trace : t -> string * string

(** [note tele ~self ~now e] folds [e] into the telemetry families that
    [Stack.declare_metrics] registers: the conflict counter labeled by
    stale type, reset/brute-force/install counters, the reset-recovery and
    join-handshake spans keyed by [self], and recMA triggers labeled by
    reason. *)
val note : Telemetry.t -> self:Pid.t -> now:float -> t -> unit
