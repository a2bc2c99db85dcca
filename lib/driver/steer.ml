(* NIC packet steering: which receive worker carries the next arriving
   frame of which connection up the stack.

   The model is a virtual multi-queue NIC in front of the receive
   workers.  A deterministic global arrival stream walks a sliding "hot
   window" of connections (traffic concentrates on a small working set
   that drifts over the whole population) in short per-connection bursts.
   Each arrival is *reserved* against its connection's source stream the
   moment the NIC sees it — that pins the segment's sequence number in
   arrival order — and the reservation token is appended to the queue of
   the worker the steering policy assigns:

   - [Hash] (RSS): the worker is a pure hash of the connection identity.
     All frames of a connection land on one worker's FIFO queue forever,
     so each connection's segments climb the stack serially and in
     arrival order.

   - [Last_sender] (Intel Flow Director's ATR mode): the NIC routes a
     flow to the core that last transmitted on it.  When the application
     thread migrates, the flow's affinity follows it *while earlier
     frames are still queued on the old core* — two workers then hold
     consecutive segments of one connection concurrently, and whichever
     queue drains faster delivers its segments first.  That is exactly
     the reordering mechanism "Why Does Flow Director Cause Packet
     Reordering?" documents; we model the migration as a deterministic
     affinity flap part-way through a burst.

   Arrivals are generated lazily: a worker that finds its queue empty
   pulls the global stream forward (bounded) until a frame steers to it.
   The pull — counter advance, reservation, queue append — happens under
   the NIC's demux lock, so reservations are made strictly in arrival
   order no matter which worker is pulling.  Everything is a pure
   function of the call sequence, so runs are deterministic for a given
   simulator seed. *)

open Pnp_engine

type policy = Hash | Last_sender

let policy_to_string = function Hash -> "hash" | Last_sender -> "last-sender"

type 'a t = {
  policy : policy;
  workers : int;
  conns : int;
  affinity : int array; (* connection -> current worker *)
  queues : 'a Queue.t array; (* per-worker reserved, undelivered frames *)
  lock : Lock.t; (* the NIC's single demux/DMA engine *)
  hot_size : int; (* connections in the hot window *)
  mutable counter : int; (* global arrival counter *)
}

(* The stream's shape: consecutive frames per connection, the
   Last_sender flap period in bursts, and the per-worker ring depth
   (overflow drops the frame). *)
let burst = 4
let flap_every = 2
let queue_cap = 16

let create plat ~policy ~workers ~conns () =
  if workers <= 0 then invalid_arg "Steer.create: workers must be positive";
  if conns <= 0 then invalid_arg "Steer.create: conns must be positive";
  {
    policy;
    workers;
    conns;
    affinity = Array.init conns (fun c -> c mod workers);
    queues = Array.init workers (fun _ -> Queue.create ());
    lock =
      Lock.create plat.Platform.sim plat.Platform.arch Lock.Unfair ~name:"nic.steer";
    hot_size = min 64 conns;
    counter = 0;
  }

(* Advance the global arrival stream one frame: pick the connection, let
   the policy (possibly) migrate it, and return (conn, worker).  Callers
   hold [t.lock]. *)
let arrival t =
  let n = t.counter in
  let burst_no = n / burst in
  let slot = burst_no mod t.hot_size in
  let window = burst_no / t.hot_size in
  let base = window * t.hot_size mod t.conns in
  let conn = (base + slot) mod t.conns in
  (* Flow-Director flap: every [flap_every]-th appearance of a
     connection migrates its application thread after the burst's first
     frame, so the rest of the burst steers to the next worker while the
     first frame is still queued on the old one.  Mix the window number
     in: [slot] alone is fixed per connection (the window base moves in
     [hot_size] strides), so a slot-only or burst_no-only condition
     flaps a fixed subset of connections forever and drives the affinity
     map into a one-worker degenerate state. *)
  if
    t.policy = Last_sender && t.workers > 1
    && n mod burst = 1
    && (window + slot) mod flap_every = 0
  then t.affinity.(conn) <- (t.affinity.(conn) + 1) mod t.workers;
  t.counter <- n + 1;
  (conn, t.affinity.(conn))

let next t ~worker ~reserve =
  if worker < 0 || worker >= t.workers then invalid_arg "Steer.next: bad worker";
  if Queue.is_empty t.queues.(worker) then
    Lock.with_lock t.lock (fun () ->
        (* Another worker's pull may have fed this queue while we waited
           for the demux engine; the loop condition re-checks. *)
        let budget = ref (burst * (t.hot_size + t.workers)) in
        while Queue.is_empty t.queues.(worker) && !budget > 0 do
          decr budget;
          let conn, w = arrival t in
          (* Ring overflow drops the frame before any sequence number is
             consumed, so the stream stays hole-free.  A finite ring is
             also what keeps the reorder window bounded — without it a
             slow worker's backlog grows without limit and reserved
             segments are never delivered at all.  A [None] reservation
             (closed window, unestablished stream) drops the arrival
             too: the NIC does not retry an arrival slot. *)
          if Queue.length t.queues.(w) < queue_cap then
            match reserve ~conn with
            | Some token -> Queue.push token t.queues.(w)
            | None -> ()
        done);
  Queue.take_opt t.queues.(worker)
