(** The experiment suite (EXPERIMENTS.md / DESIGN.md Section 5).

    The paper is a theory paper: its evaluation is a set of theorems and
    asymptotic bounds plus two structural figures. Each experiment here
    regenerates the measurable content of one claim on the simulation
    substrate. Every experiment is deterministic given its seeds.

    Each (experiment x size x seed) cell is an independent simulation; the
    [?jobs] argument runs the cells on a {!Pool} of that many domains.
    Results are reassembled in deterministic order, so the rendered tables
    are byte-identical for every job count (default: sequential). *)

(** Default parameters; callers (bench, CLI) can shrink for quick runs. *)
type params = {
  sizes : int list;  (** configuration sizes N *)
  seeds : int list;  (** one run per (size, seed) *)
  max_rounds : int;  (** convergence budget per run *)
}

val default_params : params
val quick_params : params

(** The paper-claim tables E1..E18 by id, in order. E17 (the scale tier:
    recovery and throughput at N ∈ {16, 32, 64}) has wall-clock columns,
    the one exception to byte-identical output; E18 replays declarative
    {!Faults.Fault_plan}s of rising intensity at N ∈ {8, 16, 32}. *)
val registry : (string * (?jobs:int -> params -> Table.t)) list

(** The design ablations A1..A4 by id, in order. They are not paper
    claims; they measure the implementation's sensitivity to its own
    choices: the failure detector's gap factor Θ (A1), packet loss against
    delicate-replacement latency (A2), channel capacity against recovery
    cost (A3), and brute-force reset against delicate replacement (A4). *)
val ablations : (string * (?jobs:int -> params -> Table.t)) list

(** [by_id id] looks up an experiment of {!registry} by its "E<n>" id
    (case-insensitive). *)
val by_id : string -> (?jobs:int -> params -> Table.t) option
