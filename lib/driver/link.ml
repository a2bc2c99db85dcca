open Pnp_engine
open Pnp_util
open Pnp_xkern
open Pnp_faults
open Pnp_proto

(* One direction of the link: a serialising transmitter feeding a receive
   thread through a delivery queue.  Every offered frame runs through the
   direction's fault pipeline before it reaches the wire. *)
type direction = {
  dest : Stack.t;
  queue : Msg.t Queue.t;
  mutable rx_wakeup : (int -> unit) option; (* receive thread parked here *)
  mutable busy_until : int; (* transmitter serialisation horizon *)
  mutable frames : int; (* frames OFFERED to this direction *)
  mutable pressure_drops : int; (* frames shed at rx for dest pool pressure *)
  faults : Faults.t;
}

(* A frame pushed up the stack can allocate a couple of transient mnodes
   from the receiver's pool (header walk + a pure ACK in reply).  Shedding
   at the wire while the pool can't cover that keeps receive processing
   from ever tripping the hard capacity — the drop is accounted and TCP's
   retransmission recovers the data. *)
let rx_headroom_margin = 4

type t = {
  plat : Platform.t;
  latency : Units.ns;
  bandwidth_mbps : float;
  ab : direction;
  ba : direction;
  mutable in_flight : int;
}

type fault_stats = {
  offered : int;
  dropped : int;
  dropped_loss : int;
  dropped_burst : int;
  dropped_blackout : int;
  dropped_pool_pressure : int;
  corrupted : int;
  duplicated : int;
  reordered : int;
  delayed : int;
}

let serialisation_ns t bytes =
  (* Mbit/s = 10^-3 bits/ns. *)
  int_of_float (float_of_int (8 * bytes) /. (t.bandwidth_mbps /. 1000.0))

(* Fault records carry the sending thread's ids, or -1 outside a thread.
   Callers test [tracing] first, so an untraced run builds no record. *)
let tracing t = Trace.enabled (Sim.tracer t.plat.Platform.sim)

let trace_fault t ev =
  let sim = t.plat.Platform.sim in
  let tracer = Sim.tracer sim in
  if Trace.enabled tracer then
    if Sim.in_thread sim then
      let th = Sim.self sim in
      Trace.emit tracer ~ts:(Sim.now sim) ~tid:(Sim.tid th) ~cpu:(Sim.cpu th) ev
    else Trace.emit tracer ~ts:(Sim.now sim) ~tid:(-1) ~cpu:(-1) ev

let on_fault t ev =
  if tracing t then
    match ev with
    | Faults.Ev_drop cause ->
      trace_fault t (Trace.Fault_drop { cause = Faults.drop_cause_label cause })
    | Faults.Ev_dup -> trace_fault t (Trace.Fault_dup { copies = 1 })
    | Faults.Ev_corrupt { off; bit } -> trace_fault t (Trace.Fault_corrupt { off; bit })
    | Faults.Ev_reorder { delay_ns } -> trace_fault t (Trace.Fault_reorder { delay_ns })
    | Faults.Ev_delay _ -> () (* jitter perturbs timing only; not a fault event *)

(* The receive side: a daemon thread that sleeps until frames arrive and
   pushes them up the destination stack. *)
let start_rx t dir ~name ~cpu =
  ignore
    (Sim.spawn t.plat.Platform.sim ~cpu ~name (fun () ->
         while true do
           if Queue.is_empty dir.queue then
             Sim.suspend t.plat.Platform.sim (fun resume -> dir.rx_wakeup <- Some resume)
           else begin
             let frame = Queue.pop dir.queue in
             t.in_flight <- t.in_flight - 1;
             if Mpool.headroom dir.dest.Stack.pool < rx_headroom_margin then begin
               dir.pressure_drops <- dir.pressure_drops + 1;
               if tracing t then trace_fault t (Trace.Fault_drop { cause = "pool_pressure" });
               Msg.destroy frame
             end
             else Fddi.input dir.dest.Stack.fddi frame
           end
         done))

let deliver t dir frame =
  Queue.push frame dir.queue;
  match dir.rx_wakeup with
  | Some resume ->
    dir.rx_wakeup <- None;
    resume (Sim.now t.plat.Platform.sim)
  | None -> ()

(* The transmit side: run the fault pipeline, then schedule each surviving
   frame's arrival after serialisation + propagation (+ any fault-injected
   extra delay).  Runs in the sender's thread; only the arrival crosses
   into the receive thread. *)
let transmit t dir frame =
  dir.frames <- dir.frames + 1;
  let sim = t.plat.Platform.sim in
  let now = Sim.now sim in
  let deliveries =
    Faults.feed dir.faults ~now ~on_event:(on_fault t) frame
  in
  List.iter
    (fun (frame, extra_ns) ->
      let start = max now dir.busy_until in
      let ser = serialisation_ns t (Msg.length frame) in
      dir.busy_until <- start + ser;
      t.in_flight <- t.in_flight + 1;
      Sim.at sim (start + ser + t.latency + extra_ns) (fun () -> deliver t dir frame))
    deliveries

let connect plat ?(latency = Units.us 50.0) ?(bandwidth_mbps = 100.0)
    ?(plan = Faults.none) ~(a : Stack.t) ~(b : Stack.t) () =
  let rng = Prng.split (Sim.prng plat.Platform.sim) in
  let mk dest =
    {
      dest;
      queue = Queue.create ();
      rx_wakeup = None;
      busy_until = 0;
      frames = 0;
      pressure_drops = 0;
      faults = Faults.instantiate plan ~prng:rng ~skip_bytes:Fddi.header_bytes;
    }
  in
  let t = { plat; latency; bandwidth_mbps; ab = mk b; ba = mk a; in_flight = 0 } in
  Fddi.set_transmit a.Stack.fddi (fun frame -> transmit t t.ab frame);
  Fddi.set_transmit b.Stack.fddi (fun frame -> transmit t t.ba frame);
  start_rx t t.ab ~name:"link.rx.b" ~cpu:100;
  start_rx t t.ba ~name:"link.rx.a" ~cpu:101;
  t

let frames_ab t = t.ab.frames
let frames_ba t = t.ba.frames

let fault_stats t =
  let f g = g t.ab.faults + g t.ba.faults in
  {
    offered = f Faults.offered;
    dropped = f Faults.dropped;
    dropped_loss = f Faults.dropped_loss;
    dropped_burst = f Faults.dropped_burst;
    dropped_blackout = f Faults.dropped_blackout;
    dropped_pool_pressure = t.ab.pressure_drops + t.ba.pressure_drops;
    corrupted = f Faults.corrupted;
    duplicated = f Faults.duplicated;
    reordered = f Faults.reordered;
    delayed = f Faults.delayed;
  }

let dropped t = Faults.dropped t.ab.faults + Faults.dropped t.ba.faults
let pressure_drops t = t.ab.pressure_drops + t.ba.pressure_drops
let plan_name t = (Faults.plan_of t.ab.faults).Faults.name
let in_flight t = t.in_flight
