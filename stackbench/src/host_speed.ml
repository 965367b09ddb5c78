(* The host's speed, measured on a fixed reference kernel.

   The benchmark runs on a few cores of a shared host, whose speed moves
   with the load of its other tenants: the process waits for a core, and
   the core it gets runs slower or faster. On one build, rounds per CPU
   second halved within an hour and swung by a third within a minute,
   while the process hardly waited for a core. A timed figure is therefore
   taken in the process's CPU seconds, which leave out the waiting, and
   scaled by the host's speed on this kernel, run just before it, which
   takes out most of the rest.

   The kernel does what the simulator does most: it builds and folds small
   persistent maps, so it allocates at a high rate and runs the minor
   collector, and its speed moves with the host's the way the simulator's
   does. Over a quarter of an hour of such swings, the spread of per-run
   medians (five 40-second runs per workload) fell from 12-17% of the
   median unscaled to 3-4% scaled by this kernel; pointer chasing through 0.5, 4
   or 32 MB left 10-18%, and arithmetic on a cached table 5-7%. The
   kernel is the benchmark's own code, so a change to the program moves
   every scaled figure in full. At most one of its maps (a few KB) is live
   at a time, so the heap figure does not see it, and allocation is
   counted inside the timed window only.

   [nominal_cpu_s] is the kernel's CPU time on a 2-core Intel Xeon VM of
   an idle host, so a scaled figure reads as CPU seconds there. *)

module Int_map = Map.Make (Int)

let maps = 40
let adds = 500
let keys = 4096
let nominal_cpu_s = 0.0014

(* keeps the kernel's result live *)
let sink = ref 0

let kernel () =
  let total = ref 0 in
  for r = 1 to maps do
    let m = ref Int_map.empty in
    for i = 1 to adds do
      m := Int_map.add (((i * 7919) + r) land (keys - 1)) i !m
    done;
    total := Int_map.fold (fun k v a -> a + k + v) !m !total
  done;
  sink := !sink + !total

(* CPU seconds of one run of the kernel *)
let sample () =
  let c0 = Sys.time () in
  kernel ();
  Sys.time () -. c0

(* The host's speed over an interval, from kernel samples taken next to
   it, relative to the nominal host: below 1 when it is slower. Multiply a
   CPU time by it, or divide a CPU-second rate by it, to scale the figure
   to the nominal host. *)
let speed samples =
  let m = Stats.median samples in
  if m <= 0.0 then 1.0 else nominal_cpu_s /. m
