open Sim

(* Counts are stored inverted: a single [epoch] advances on every arrival,
   and [last] records the epoch at which each processor was last heard.
   A processor's count — "arrivals since we last heard from it" — is then
   [epoch - last], so a heartbeat is one O(log n) map update instead of
   rebuilding the whole counts map (the naive representation allocates
   O(n) map nodes per delivered message, which dominates the simulator's
   large-N hot path). Self is always in [last] and its count is always 0
   (every heartbeat zeroes it in the paper's vector), so its stored epoch
   is never read and a heartbeat need not restamp it. *)
type t = {
  n_bound : int;
  theta : int;
  fd_self : Pid.t;
  mutable epoch : int;
  mutable last : int Pid.Map.t;
}

let create ~n_bound ?(theta = 4) ~self () =
  if n_bound <= 0 then invalid_arg "Theta_fd.create: n_bound";
  if theta < 2 then invalid_arg "Theta_fd.create: theta must be >= 2";
  { n_bound; theta; fd_self = self; epoch = 0; last = Pid.Map.singleton self 0 }

let self t = t.fd_self

let heartbeat t p =
  t.epoch <- t.epoch + 1;
  t.last <- Pid.Map.add p t.epoch t.last

let forget t p = if not (Pid.equal p t.fd_self) then t.last <- Pid.Map.remove p t.last
let count_of t p l = if Pid.equal p t.fd_self then 0 else t.epoch - l

let compare_ranked ((c1 : int), p1) (c2, p2) =
  if c1 <> c2 then Int.compare c1 c2 else Pid.compare p1 p2

(* Sort by (count, pid); walk the prefix until the gap opens. *)
let ranked t =
  Pid.Map.fold (fun p l acc -> (count_of t p l, p) :: acc) t.last []
  |> List.sort compare_ranked

let trusted_list t =
  (* The gap threshold scales with the number of known processors: between
     two of a live processor's heartbeats, roughly one message from every
     other known processor arrives, so live counts cluster below a small
     multiple of |known|; a crashed processor's count keeps growing past
     theta * (prev + |known|). *)
  let known_count = max 1 (Pid.Map.cardinal t.last) in
  let rec walk prev taken acc = function
    | [] -> List.rev acc
    | (c, p) :: rest ->
      if taken >= t.n_bound then List.rev acc
      else if c > t.theta * (prev + known_count) then List.rev acc (* the gap *)
      else walk c (taken + 1) (p :: acc) rest
  in
  match ranked t with
  | [] -> [ t.fd_self ]
  | (c0, p0) :: rest -> walk c0 1 [ p0 ] rest

let trusted t = Pid.Set.add t.fd_self (Pid.set_of_list (trusted_list t))
let estimate t = Pid.Set.cardinal (trusted t)
let count t p = Option.map (count_of t p) (Pid.Map.find_opt p t.last)
let known t = Pid.Map.fold (fun p _ acc -> Pid.Set.add p acc) t.last Pid.Set.empty
let mem_known t p = Pid.Map.mem p t.last
let iter_known t f = Pid.Map.iter (fun p _ -> f p) t.last

let corrupt t assoc =
  t.last <-
    List.fold_left (fun m (p, c) -> Pid.Map.add p (t.epoch - c) m) Pid.Map.empty assoc;
  t.last <- Pid.Map.add t.fd_self t.epoch t.last

let pp fmt t =
  Format.fprintf fmt "FD(p%a){%a}" Pid.pp t.fd_self
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ")
       (fun fmt (c, p) -> Format.fprintf fmt "p%a:%d" Pid.pp p c))
    (ranked t)
