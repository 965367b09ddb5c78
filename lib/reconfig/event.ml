open Sim

type reason = Collapse | Prediction

type t =
  | Stale of int
  | Reset of string
  | Join_reset
  | Brute_force of Pid.Set.t
  | Install of Pid.Set.t
  | Adopt of Notification.t
  | Phase2 of Pid.Set.t
  | Phase0
  | Trigger of reason
  | Join_start
  | Join_participate

let to_trace = function
  | Stale ty -> ("recsa.stale", "type-" ^ string_of_int ty)
  | Reset cause -> ("recsa.reset", cause)
  | Join_reset -> ("recsa.join_reset", "")
  | Brute_force s -> ("recsa.brute_force", Format.asprintf "config <- %a" Pid.pp_set s)
  | Install s -> ("recsa.install", Format.asprintf "%a" Pid.pp_set s)
  | Adopt n -> ("recsa.adopt", Format.asprintf "%a" Notification.pp n)
  | Phase2 s -> ("recsa.phase2", Format.asprintf "%a" Pid.pp_set s)
  | Phase0 -> ("recsa.phase0", "replacement complete")
  | Trigger Collapse -> ("recma.trigger", "majority collapse")
  | Trigger Prediction -> ("recma.trigger", "majority prediction")
  | Join_start -> ("join.start", "")
  | Join_participate -> ("join.participate", "")

let recovery = "recsa.reset_recovery_seconds"
let handshake = "join.handshake_seconds"

(* only close spans we actually opened: a node corrupted straight into a
   reset never saw the reset event *)
let close tele ~name ~self ~now =
  if Telemetry.span_open tele ~name ~key:self then
    Telemetry.span_end tele ~name ~key:self ~now

let note tele ~self ~now = function
  | Stale ty ->
    Telemetry.inc tele ~labels:[ ("type", string_of_int ty) ] "recsa.conflicts"
  | Reset _ ->
    Telemetry.inc tele "recsa.resets";
    Telemetry.span_begin tele ~name:recovery ~key:self ~now
  | Join_reset -> Telemetry.span_begin tele ~name:recovery ~key:self ~now
  | Brute_force _ ->
    Telemetry.inc tele "recsa.brute_force";
    close tele ~name:recovery ~self ~now
  | Install _ ->
    Telemetry.inc tele "recsa.installs";
    (* a resetting node can also recover by adopting a peer's phase-2
       notification; that install ends its recovery too *)
    close tele ~name:recovery ~self ~now
  | Trigger Collapse ->
    Telemetry.inc tele ~labels:[ ("reason", "collapse") ] "recma.triggers"
  | Trigger Prediction ->
    Telemetry.inc tele ~labels:[ ("reason", "prediction") ] "recma.triggers"
  | Join_start -> Telemetry.span_begin tele ~name:handshake ~key:self ~now
  | Join_participate ->
    Telemetry.inc tele "join.completed";
    close tele ~name:handshake ~self ~now
  | Adopt _ | Phase2 _ | Phase0 -> ()
