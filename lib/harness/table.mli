(** Result tables printed by the experiment harness (one per experiment in
    EXPERIMENTS.md). *)

type t = {
  id : string;  (** experiment id, e.g. "E1" *)
  title : string;
  claim : string;  (** the paper claim being reproduced *)
  header : string list;
  rows : string list list;
  notes : string list;
}

val make :
  id:string ->
  title:string ->
  claim:string ->
  header:string list ->
  ?notes:string list ->
  string list list ->
  t

val pp : Format.formatter -> t -> unit

(** Format helpers for cells. *)

val cell_int : int -> string
val cell_float : float -> string
val cell_bool : bool -> string
