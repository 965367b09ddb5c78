(** The simulator's event queue: a binary min-heap of events, each an
    integer [kind] due at a virtual time [at].

    Events pop in order of [at]; events due at the same time pop in the
    order they were pushed (each push takes the next sequence number, and
    [(at, seq)] is a strict total order). The heap lives in parallel
    arrays — a [Float.Array.t] of times and [int array]s of sequence
    numbers and kinds — so a push or a pop allocates nothing beyond the
    occasional doubling of the arrays. *)

type t

val create : unit -> t
val is_empty : t -> bool
val size : t -> int

(** [push t ~at kind] schedules [kind] at time [at].
    @raise Invalid_argument if [at] is NaN. *)
val push : t -> at:float -> int -> unit

(** [min_at t] is the time of the earliest event.
    @raise Not_found if the queue is empty. *)
val min_at : t -> float

(** [pop t] removes the earliest event and returns its kind.
    @raise Not_found if the queue is empty. *)
val pop : t -> int
