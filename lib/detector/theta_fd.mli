(** The (N,Θ)-failure detector (Section 2).

    Every processor keeps an ordered heartbeat-count vector [nonCrashed]:
    when the token returns from processor [p], [p]'s count is zeroed and
    every other count is incremented. Live processors keep getting zeroed;
    a crashed processor's count grows without bound, opening an
    ever-expanding gap that ranks it below the live ones. The detector
    trusts the processors before the gap (at most [n_bound] of them — the
    paper's [N]) and estimates the number of active processors as the size
    of that prefix.

    The detector is unreliable: it may wrongly suspect slow processors.
    Convergence of the reconfiguration scheme only requires temporal
    reliability, which the simulator provides in fault-free stretches. *)

open Sim

type t

(** [create ~n_bound ~theta ~self] — [n_bound] is the system bound [N];
    [theta] is the gap factor: a count [c] is beyond the gap when
    [c > theta * (prev + 1)] with [prev] the preceding (smaller) count in
    the sorted vector. [self] is always trusted. *)
val create : n_bound:int -> ?theta:int -> self:Pid.t -> unit -> t

val self : t -> Pid.t

(** [heartbeat t p] — the token returned from [p]: zero [p]'s count,
    increment all other known counts. *)
val heartbeat : t -> Pid.t -> unit

(** [forget t p] removes [p] from the vector entirely (used when a crash
    becomes permanent knowledge in tests; the algorithm itself never needs
    it). Self is never forgotten. *)
val forget : t -> Pid.t -> unit

(** [trusted t] is the current trusted set (the paper's [FD\[i\]]): the
    processors before the gap, capped at [n_bound], always containing
    [self]. *)
val trusted : t -> Pid.Set.t

(** [estimate t] is the live-count estimate [n_i ≤ N]. *)
val estimate : t -> int

(** [count t p] is [p]'s current heartbeat count ([None] if unknown);
    self's is always [Some 0]. *)
val count : t -> Pid.t -> int option

(** [known t] is every processor ever heard from (trusted or suspected),
    and self. *)
val known : t -> Pid.Set.t

(** [mem_known t p] is [Pid.Set.mem p (known t)], without building the set. *)
val mem_known : t -> Pid.t -> bool

(** [iter_known t f] applies [f] to every member of [known t] in ascending
    order, without building the set. *)
val iter_known : t -> (Pid.t -> unit) -> unit

(** Arbitrary-state injection for stabilization tests. *)
val corrupt : t -> (Pid.t * int) list -> unit

val pp : Format.formatter -> t -> unit
