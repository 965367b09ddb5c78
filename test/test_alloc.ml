(* Allocation gates for the steady-state path of the whole stack and of
   the bare engine under it.

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

let measured = 154.9
let bound = measured *. 1.10

let test_steady_alloc () =
  let w = steady_words_per_step () in
  if w > bound then
    Alcotest.failf "steady N=16 allocates %.2f minor words per step, above the gate %.2f" w
      bound

(* minor words per step of the engine alone: 16 nodes whose timer sends
   one packet to every peer and whose receipt does nothing, so every word
   counted is the engine's own (queue, outbox, channels, RNG) *)
let engine_words_per_step () =
  let n = 16 in
  let behavior =
    {
      Engine.init = (fun _ -> ());
      on_timer =
        (fun ctx () ->
          let self = Engine.self ctx in
          for p = 0 to n - 1 do
            if p <> self then Engine.send ctx p p
          done);
      on_message = (fun _ _ _ () -> ());
    }
  in
  let eng = Engine.create ~seed:5 ~behavior ~pids:(List.init n Fun.id) () in
  Engine.run_rounds eng 20;
  let steps0 = Engine.steps eng in
  let words0 = Gc.minor_words () in
  Engine.run_rounds eng 50;
  let words = Gc.minor_words () -. words0 in
  words /. float_of_int (Engine.steps eng - steps0)

(* what is left is three boxed floats per event (DESIGN.md, section 10) *)
let engine_measured = 6.0
let engine_bound = engine_measured *. 1.10

let test_engine_alloc () =
  let w = engine_words_per_step () in
  if w > engine_bound then
    Alcotest.failf "a bare N=16 engine allocates %.2f minor words per step, above the gate %.2f"
      w engine_bound

let suites =
  [
    ( "alloc",
      [
        Alcotest.test_case "steady words per step" `Quick test_steady_alloc;
        Alcotest.test_case "engine words per step" `Quick test_engine_alloc;
      ] );
  ]
