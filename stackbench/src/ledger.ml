(* Per-layer self-time accounting for the traced run.

   Spans nest: the engine calls a node's timer or receive step, which calls
   the plugin, the prediction hooks and [send]. A span's self time is its
   duration minus the time of the spans it encloses, so the self times of
   all layers plus the time outside every span add up to the window's wall
   time. The clock is CLOCK_MONOTONIC in nanoseconds, read without
   allocating. All state is global: the benchmark runs on one domain. *)

type layer =
  | Timer  (** [d_timer]: one do-forever iteration of the scheme *)
  | Recv_heartbeat  (** [d_recv] of a [Heartbeat] *)
  | Recv_snap  (** [d_recv] of a [Snap] handshake packet *)
  | Recv_sa  (** [d_recv] of a recSA message *)
  | Recv_ma  (** [d_recv] of a recMA message *)
  | Recv_join  (** [d_recv] of a joining-mechanism message *)
  | Recv_app  (** [d_recv] of an application message, outside [p_recv] *)
  | Send  (** [Runtime.Sim_engine.send] *)
  | Eval_conf  (** the hooks' [eval_conf] *)
  | Pass_query  (** the hooks' [pass_query] *)
  | P_tick  (** the plugin's [p_tick] *)
  | P_recv  (** the plugin's [p_recv] *)
  | Inject  (** [Faults.Injector.step] *)
  | Harness  (** the benchmark's clients and checks *)

let all =
  [
    Timer; Recv_heartbeat; Recv_snap; Recv_sa; Recv_ma; Recv_join; Recv_app; Send;
    Eval_conf; Pass_query; P_tick; P_recv; Inject; Harness;
  ]

let index = function
  | Timer -> 0
  | Recv_heartbeat -> 1
  | Recv_snap -> 2
  | Recv_sa -> 3
  | Recv_ma -> 4
  | Recv_join -> 5
  | Recv_app -> 6
  | Send -> 7
  | Eval_conf -> 8
  | Pass_query -> 9
  | P_tick -> 10
  | P_recv -> 11
  | Inject -> 12
  | Harness -> 13

let name = function
  | Timer -> "stack.timer"
  | Recv_heartbeat -> "detector.recv_heartbeat"
  | Recv_snap -> "datalink.recv_snap"
  | Recv_sa -> "recsa.recv"
  | Recv_ma -> "recma.recv"
  | Recv_join -> "join.recv"
  | Recv_app -> "app.recv"
  | Send -> "runtime.send"
  | Eval_conf -> "recma.eval_conf"
  | Pass_query -> "join.pass_query"
  | P_tick -> "plugin.tick"
  | P_recv -> "plugin.recv"
  | Inject -> "faults.inject"
  | Harness -> "bench.harness"

let layers = List.length all
let now () = Int64.to_int (Monotonic_clock.now ())
let self_ns = Array.make layers 0
let calls = Array.make layers 0

(* the open spans: slot 0 stands for "outside every span" *)
let max_depth = 64
let starts = Array.make max_depth 0
let children = Array.make max_depth 0
let depth = ref 0

(* summed duration of the outermost spans *)
let spans_ns = ref 0

(* spans count only while enabled: during a traced run's timed units, not
   during its set-up *)
let enabled = ref false

let reset () =
  Array.fill self_ns 0 layers 0;
  Array.fill calls 0 layers 0;
  depth := 0;
  spans_ns := 0

let enter () =
  if !enabled then begin
    incr depth;
    let d = !depth in
    children.(d) <- 0;
    starts.(d) <- now ()
  end

let leave layer =
  if !enabled then begin
    let d = !depth in
    let elapsed = now () - starts.(d) in
    let i = index layer in
    self_ns.(i) <- self_ns.(i) + elapsed - children.(d);
    calls.(i) <- calls.(i) + 1;
    decr depth;
    if d = 1 then spans_ns := !spans_ns + elapsed
    else children.(d - 1) <- children.(d - 1) + elapsed
  end

(* [span layer f] for the benchmark's own code, where a closure is cheap
   next to the work it wraps *)
let span layer f =
  enter ();
  match f () with
  | r ->
    leave layer;
    r
  | exception e ->
    leave layer;
    raise e

let self_seconds layer = float_of_int self_ns.(index layer) *. 1e-9
let call_count layer = calls.(index layer)

(* wall time not covered by any span: the engine's own work (scheduling,
   channels, the event heap) between node steps *)
let outside_seconds ~wall = wall -. (float_of_int !spans_ns *. 1e-9)
