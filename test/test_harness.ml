(* Tests for the domain-pool experiment harness.

   The load-bearing property is determinism: every (experiment x size x
   seed) cell is an independent simulation, and the pool reassembles
   results in submission order, so the rendered tables must be
   byte-identical for any job count. *)

open Harness

(* --- Pool ----------------------------------------------------------- *)

let test_pool_map_order () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int)) "order preserved" (List.map (fun x -> x * x) xs)
    (Pool.map pool (fun x -> x * x) xs)

let test_pool_map_sequential () =
  Pool.with_pool ~jobs:1 @@ fun pool ->
  Alcotest.(check (list int)) "jobs=1 works" [ 2; 4; 6 ]
    (Pool.map pool (fun x -> 2 * x) [ 1; 2; 3 ])

let test_pool_more_jobs_than_items () =
  Pool.with_pool ~jobs:8 @@ fun pool ->
  Alcotest.(check (list int)) "tiny input" [ 10 ] (Pool.map pool (fun x -> 10 * x) [ 1 ]);
  Alcotest.(check (list int)) "empty input" [] (Pool.map pool (fun x -> x) [])

exception Boom

let test_pool_exception_propagates () =
  Pool.with_pool ~jobs:3 @@ fun pool ->
  Alcotest.check_raises "first worker exception re-raised" Boom (fun () ->
      ignore (Pool.map pool (fun x -> if x = 5 then raise Boom else x) (List.init 10 Fun.id)));
  (* the pool survives a failed batch *)
  Alcotest.(check (list int)) "pool reusable after failure" [ 1; 2; 3 ]
    (Pool.map pool Fun.id [ 1; 2; 3 ])

let test_pool_default_jobs () =
  Alcotest.(check bool) "default_jobs >= 1" true (Pool.default_jobs () >= 1)

(* --- deterministic tables across job counts ------------------------- *)

(* E17 (the scale tier) carries wall-clock throughput columns — the one
   documented exception to byte-identity — so renders exclude it here. *)
let render tables =
  tables
  |> List.filter (fun t -> not (String.equal t.Table.id "E17"))
  |> List.map (Format.asprintf "%a" Table.pp)
  |> String.concat "\n"

let run_all ~jobs registry =
  List.map (fun (_, f) -> f ?jobs:(Some jobs) Experiments.quick_params) registry

let test_experiments_jobs_byte_identical () =
  let seq = render (run_all ~jobs:1 Experiments.registry) in
  let par = render (run_all ~jobs:4 Experiments.registry) in
  Alcotest.(check string) "experiment tables identical for jobs=1 and jobs=4" seq par

let test_ablations_jobs_byte_identical () =
  let seq = render (run_all ~jobs:1 Experiments.ablations) in
  let par = render (run_all ~jobs:4 Experiments.ablations) in
  Alcotest.(check string) "ablation tables identical for jobs=1 and jobs=4" seq par

let suites =
  [
    ( "harness.pool",
      [
        Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
        Alcotest.test_case "sequential fallback" `Quick test_pool_map_sequential;
        Alcotest.test_case "more jobs than items" `Quick test_pool_more_jobs_than_items;
        Alcotest.test_case "exception propagates" `Quick test_pool_exception_propagates;
        Alcotest.test_case "default jobs" `Quick test_pool_default_jobs;
      ] );
    ( "harness.determinism",
      [
        Alcotest.test_case "experiments byte-identical across jobs" `Slow
          test_experiments_jobs_byte_identical;
        Alcotest.test_case "ablations byte-identical across jobs" `Slow
          test_ablations_jobs_byte_identical;
      ] );
  ]
