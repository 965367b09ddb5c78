(* Allocation gate for the steady-state path of the whole stack.

   Minor words allocated per engine step are deterministic for a fixed
   seed, code and compiler, so they can be gated exactly where wall time
   cannot. The bound is the value measured when the gate was set, plus
   10%: a change that makes the always-on gossip allocate more trips it
   and must either win the words back or move the bound with a measured
   reason. *)

open Sim
open Reconfig

(* minor words per step over 10 rounds of a warm N=16 system *)
let steady_words_per_step () =
  let sc = Scenario.make ~seed:11 ~n_bound:32 ~members:(List.init 16 Fun.id) () in
  let sys = Stack.of_scenario ~hooks:Stack.unit_hooks sc in
  (match Stack.run_until_quiescent sys ~max_rounds:200 with
  | Some _ -> ()
  | None -> Alcotest.fail "the N=16 system did not settle");
  Stack.run_rounds sys 20;
  let eng = Stack.engine sys in
  let steps0 = Engine.steps eng in
  let words0 = Gc.minor_words () in
  Stack.run_rounds sys 10;
  let words = Gc.minor_words () -. words0 in
  words /. float_of_int (Engine.steps eng - steps0)

let measured = 206.4
let bound = measured *. 1.10

let test_steady_alloc () =
  let w = steady_words_per_step () in
  if w > bound then
    Alcotest.failf "steady N=16 allocates %.2f minor words per step, above the gate %.2f" w
      bound

let suites = [ ("alloc", [ Alcotest.test_case "steady words per step" `Quick test_steady_alloc ]) ]
