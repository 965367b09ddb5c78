(* The two properties [Vs.Vs_checker.check] verifies, checked in time
   near-linear in the number of deliveries (for a fixed member count).

   1. Per-view agreement: any two nodes' batch sequences for a common view
      are equal up to one trailing batch.
   2. Pairwise delivery order: no two nodes order two distinct deliveries
      differently, comparing first occurrences.

   [Vs_checker.check] compares every pair of views and every pair of
   deliveries, which is cubic; here views are matched through a hash
   index, and the order property reduces to "the deliveries the two nodes
   share appear in increasing position at the second node", one pass per
   pair of nodes. *)

open Sim
open Vs

(* coarser than [Vs_service.view_equal], so equal views share a key *)
let view_key (v : Vs_service.view) =
  Hashtbl.hash
    ( Option.map (fun c -> (c.Counters.Counter.seqn, c.Counters.Counter.wid)) v.vid,
      Pid.Set.elements v.vset )

(* consecutive same-view batches, grouped; the groups in journal order *)
let per_view (j : _ Vs_checker.node_journal) =
  let close acc = function
    | None -> acc
    | Some (v, rev) -> (v, List.rev rev) :: acc
  in
  let acc, cur =
    List.fold_left
      (fun (acc, cur) (view, batch) ->
        match cur with
        | Some (v, rev) when Vs_service.view_equal v view -> (acc, Some (v, batch :: rev))
        | _ -> (close acc cur, Some (view, [ batch ])))
      ([], None) j.batches
  in
  List.rev (close acc cur)

let rec equal_up_to_one_trailing a b =
  match (a, b) with
  | [], [] | [ _ ], [] | [], [ _ ] -> true
  | x :: a', y :: b' -> x = y && equal_up_to_one_trailing a' b'
  | _ -> false

let view_conflict journals =
  let tables =
    List.map
      (fun (j : _ Vs_checker.node_journal) ->
        let groups = per_view j in
        let index = Hashtbl.create 16 in
        List.iter (fun (v, b) -> Hashtbl.add index (view_key v) (v, b)) groups;
        (j.pid, groups, index))
      journals
  in
  List.find_map
    (fun (p1, groups1, _) ->
      List.find_map
        (fun (p2, _, index2) ->
          if p1 >= p2 then None
          else
            List.find_map
              (fun (v1, b1) ->
                List.find_map
                  (fun (v2, b2) ->
                    if Vs_service.view_equal v1 v2 && not (equal_up_to_one_trailing b1 b2)
                    then
                      Some
                        (Format.asprintf "nodes %a and %a disagree on deliveries in %a"
                           Pid.pp p1 Pid.pp p2 Vs_service.pp_view v1)
                    else None)
                  (Hashtbl.find_all index2 (view_key v1)))
              groups1)
        tables)
    tables

let order_conflict journals =
  let flat =
    List.map
      (fun (j : _ Vs_checker.node_journal) ->
        let a = Array.of_list (List.concat_map snd j.batches) in
        let first = Hashtbl.create (Array.length a) in
        Array.iteri (fun i x -> if not (Hashtbl.mem first x) then Hashtbl.add first x i) a;
        (j.pid, a, first))
      journals
  in
  let ordered_alike (a1, first1) first2 =
    let last = ref (-1) in
    let ok = ref true in
    Array.iteri
      (fun i x ->
        if !ok && Hashtbl.find first1 x = i then
          match Hashtbl.find_opt first2 x with
          | Some j -> if j < !last then ok := false else last := j
          | None -> ())
      a1;
    !ok
  in
  List.find_map
    (fun (p1, a1, first1) ->
      List.find_map
        (fun (p2, _, first2) ->
          if p1 >= p2 || ordered_alike (a1, first1) first2 then None
          else
            Some
              (Format.asprintf "nodes %a and %a order deliveries differently" Pid.pp p1
                 Pid.pp p2))
        flat)
    flat

let check journals =
  match view_conflict journals with
  | Some msg -> Error msg
  | None -> ( match order_conflict journals with Some msg -> Error msg | None -> Ok ())
