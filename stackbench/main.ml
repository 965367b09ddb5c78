(* The whole-stack benchmark: one workload per invocation.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures for S seconds with no tracing and reports the
   end-to-end metrics; --trace 1 runs the workload's deterministic prefix
   untraced and then traced, checks that both did the same thing, and
   reports the per-layer metrics. The last line of standard output is one
   JSON object {"correct", "attempted", "failed", "metrics"}; the line
   before it holds every metric of the run, the workload-specific ones
   included, with the machine's core count and the OCaml version. *)

open Stackbench

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_string s = "\"" ^ Telemetry.Export.json_escape s ^ "\""

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (mt : Report.metric) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string mt.name)
             (json_number mt.value) (json_string mt.unit_))
         ms)
  ^ "}"

let json_strings l = "[" ^ String.concat ", " (List.map json_string l) ^ "]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the workload's inputs");
      ("--seconds", Arg.Set_float seconds, "S how long a timed run measures");
      ("--trace", Arg.Set_int trace, "0|1 timed run (0) or traced run (1)");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S; one of: %s\n" !workload
        (String.concat ", " (List.map (fun (w : Workloads.workload) -> w.name) Workloads.all));
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  let acc, metrics, detail, notes =
    if !trace = 0 then begin
      let acc = Workloads.fresh () in
      w.run ~traced:false ~seed:!seed ~mode:(Workloads.Timed !seconds) ~prefix:w.prefix acc;
      let all = Report.end_to_end w acc in
      let gated = List.filter (fun (mt : Report.metric) -> List.mem mt.name Report.gated) all in
      (acc, gated, all, [])
    end
    else begin
      let t = Report.run_traced w ~seed:!seed ~prefix:w.prefix in
      let layers = Report.per_layer t in
      let top =
        List.map
          (fun (name, share) -> Printf.sprintf "%s %.1f%%" name (100.0 *. share))
          (Report.top_layers t 3)
      in
      let notes =
        ("top layers: " ^ String.concat ", " top)
        :: (if t.faithful then []
            else [ "traced run diverged from the untraced run: layer shares are unreliable" ])
      in
      if not t.faithful then Workloads.fail t.plain "traced run not faithful";
      (t.plain, layers, Report.end_to_end w t.plain @ layers, notes)
    end
  in
  List.iter (fun n -> print_endline ("# " ^ n)) notes;
  Printf.printf
    "{\"workload\": %s, \"seed\": %d, \"trace\": %d, \"nproc\": %d, \"ocaml\": %s, \
     \"units\": %d, \"unit_rate_quartiles\": [%s], \"ops\": %d, \"failures\": %s, \
     \"metrics\": %s}\n"
    (json_string w.name) !seed !trace
    (Domain.recommended_domain_count ())
    (json_string Sys.ocaml_version) (List.length acc.rates)
    (String.concat ", " (List.map json_number (Stats.quartiles acc.cpu_rates)))
    acc.win_ops (json_strings acc.failures) (json_metrics detail);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
    (acc.failed = 0) (max 1 acc.attempted) acc.failed (json_metrics metrics)
