(** One value that describes the system a run builds.

    A [Scenario.t] holds exactly what a host or the node automaton reads:
    the initial members, the runtime seed, the channel model and the
    scheme's knobs. Every system's [of_scenario] ([Stack.Make]) consumes
    it directly; the [bin/] subcommands build one from shared flags
    ([Cli_common]); the harness derives per-cell scenarios from it. Fault
    plans and export sinks are not part of it: a plan is passed to
    [run_plan], and sinks belong to whoever writes the files. The record
    is deliberately concrete — a scenario is configuration data, and
    pattern matching on it is the point — with {!make} as the builder. *)

open Sim

type t = {
  sc_members : Pid.t list;  (** initial participants *)
  sc_seed : int;  (** runtime schedule seed *)
  sc_capacity : int;  (** channel capacity (the paper's [cap]) *)
  sc_loss : float;  (** global message-loss probability (simulator) *)
  sc_theta : int;  (** failure-detector threshold *)
  sc_n_bound : int;  (** the paper's [N]: bound on processor count *)
  sc_quorum : (module Quorum.SYSTEM);
}

val default_members : int -> Pid.t list
(** [default_members n] — pids [1..n]. *)

val make :
  ?members:Pid.t list ->
  ?seed:int ->
  ?capacity:int ->
  ?loss:float ->
  ?theta:int ->
  ?n_bound:int ->
  ?quorum:(module Quorum.SYSTEM) ->
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

val with_n_bound : t -> int -> t
(** [with_n_bound t n] — [t] with the paper's [N] set to [n]. Raises
    [Invalid_argument] unless [n] is positive. *)
