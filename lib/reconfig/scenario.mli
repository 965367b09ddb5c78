(** One value that describes a whole run — the unified configuration API.

    Historically every entry point grew its own positional argument list
    (topology here, seed there, sink paths in the CLI only). A
    [Scenario.t] gathers all of it: topology, scheme knobs, the fault
    plan, and metrics/trace sinks. Every system's [of_scenario]
    ([Stack.Make]) consumes it directly; the [bin/] subcommands
    build one from shared flags ([Cli_common]); the harness derives
    per-cell scenarios from it. The record is deliberately concrete —
    a scenario is configuration data, and pattern matching on it is the
    point — with {!make} and the [with_*] functional updates as the
    builder API. *)

open Sim

type t = {
  sc_name : string;  (** label for traces/exports *)
  sc_members : Pid.t list;  (** initial participants *)
  sc_seed : int;  (** runtime schedule seed *)
  sc_capacity : int;  (** channel capacity (the paper's [cap]) *)
  sc_loss : float;  (** global message-loss probability (simulator) *)
  sc_theta : int;  (** failure-detector threshold *)
  sc_n_bound : int;  (** the paper's [N]: bound on processor count *)
  sc_quorum : (module Quorum.SYSTEM);
  sc_plan : Faults.Fault_plan.t option;  (** fault schedule, if any *)
  sc_jobs : int option;  (** harness parallelism; [None] = all cores *)
  sc_metrics_out : string option;  (** Prometheus text sink *)
  sc_metrics_jsonl : string option;  (** JSONL metrics sink *)
  sc_trace_out : string option;  (** trace sink *)
}

val default_members : int -> Pid.t list
(** [default_members n] — pids [1..n]. *)

val make :
  ?name:string ->
  ?members:Pid.t list ->
  ?seed:int ->
  ?capacity:int ->
  ?loss:float ->
  ?theta:int ->
  ?n_bound:int ->
  ?quorum:(module Quorum.SYSTEM) ->
  ?plan:Faults.Fault_plan.t ->
  ?jobs:int ->
  ?metrics_out:string ->
  ?metrics_jsonl:string ->
  ?trace_out:string ->
  ?nodes:int ->
  unit ->
  t
(** Defaults: [seed 42],
    [capacity 8], [loss 0.02], [theta 4], [quorum Majority],
    [members = default_members nodes], [n_bound = 2 * nodes]. At least one
    of [nodes] and [members] must be given. Raises [Invalid_argument] when
    neither is, the member list is empty, or [n_bound] is not positive. *)

val nodes : t -> int
(** Number of initial members. *)

(** {2 Functional updates} *)

val with_name : t -> string -> t
val with_members : t -> Pid.t list -> t

val with_nodes : t -> int -> t
(** Re-derives [sc_members] via {!default_members} and scales [sc_n_bound]
    to [2 * n] unless it was large enough already. *)

val with_seed : t -> int -> t
val with_loss : t -> float -> t
val with_n_bound : t -> int -> t
val with_quorum : t -> (module Quorum.SYSTEM) -> t
val with_plan : t -> Faults.Fault_plan.t option -> t
val with_jobs : t -> int option -> t

val pp : Format.formatter -> t -> unit
