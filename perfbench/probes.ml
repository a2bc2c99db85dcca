(* Host probes: each one times a public call of one module on inputs
   sized to the workload it serves, and reports host nanoseconds and
   minor-heap words per call.  They answer "which layer got slower" when
   an end-to-end figure moves; the pairing of probe, workload and
   end-to-end metric is in README.md. *)

open Pnp_engine
open Pnp_xkern
module Units = Pnp_util.Units
module Prng = Pnp_util.Prng

type sample = { ns_per_op : float; words_per_op : float }

(* Repeat [batch] (which returns how many operations it performed) until
   [slice] seconds have passed, and at least three times.  ns/op is the
   median over batches; words/op is taken over all of them. *)
let repeat ~slice batch =
  let samples = ref [] and words = ref 0.0 and ops = ref 0 and batches = ref 0 in
  let stop = Stat.now () +. slice in
  while !batches < 3 || Stat.now () < stop do
    let w0 = Gc.minor_words () in
    let t0 = Stat.now () in
    let n = batch () in
    let t1 = Stat.now () in
    words := !words +. (Gc.minor_words () -. w0);
    ops := !ops + n;
    incr batches;
    samples := ((t1 -. t0) *. 1e9 /. float_of_int (max 1 n)) :: !samples
  done;
  { ns_per_op = Stat.median !samples; words_per_op = !words /. float_of_int (max 1 !ops) }

(* Run [f] inside one simulated thread (locks, pools and maps charge
   simulated time, which only a thread may consume) and stop the world
   when it returns. *)
let in_thread sim f =
  let out = ref None in
  ignore
    (Sim.spawn sim ~cpu:0 ~name:"probe" (fun () ->
         out := Some (f ());
         Sim.stop sim));
  Sim.run sim;
  match !out with Some x -> x | None -> failwith "perfbench: probe thread did not finish"

let platform ?map_shards () = Platform.create ~seed:1 ?map_shards Arch.challenge_100
let batch_ops = 2000

(* Keeps a computed value alive so the loop computing it is not dead code. *)
let sink = ref 0

(* ---- paper / check: dispatch, locks, buffers, checksum -------------- *)

(* The shape of the paper cells, measured from [Run.run_traced] traces of
   all twelve paper configurations under seeds 1, 2 and 3 (the three
   seeds agree to within 1%).  A delay is a [Thread_block] /
   [Thread_resume] pair that no lock grant or gate pass follows; tracing
   sends every delay through the event queue, so the trace sees them all. *)

(* The delays' distribution: the midpoints of its ten deciles, in ns.
   Of the 7.1 x 10^5 delays in the twelve cells of one seed, the median
   is 450 ns and the mean 8.1 us. *)
let paper_delays = [| 150; 150; 150; 180; 180; 500; 700; 1300; 14_000; 40_000 |]

(* Thread resumes pending in the event queue when a delay begins: at
   most 5 (mean 3.6).  Timer callbacks leave no trace record, so they
   are not counted; the queue can be deeper by that many. *)
let paper_queue_depth = 5

(* Per acquisition of a [.conn:] lock: mean hold 37.6 us, mean wait
   54.5 us.  Four threads looping on one saturated lock each wait for the
   other three holds, so away + wait = 3 x hold gives the time a thread
   stays away: 3 x 37.6 - 54.5 = 58.4 us. *)
let paper_conn_hold_ns = 37_600
let paper_conn_away_ns = 58_400

(* The event heap at a paper cell's depth: every pop re-adds its event
   one paper delay later, so the depth stays put. *)
let eventq_add_pop ~slice =
  let q = Eventq.create () in
  let gap k = paper_delays.(k mod Array.length paper_delays) in
  let ev () = () in
  for i = 0 to paper_queue_depth - 1 do
    Eventq.add q ~time:(gap (3 * i)) ev
  done;
  let k = ref 0 in
  repeat ~slice (fun () ->
      for _ = 1 to batch_ops * 10 do
        let t = Eventq.peek_time_exn q in
        let e = Eventq.pop_exn q in
        incr k;
        Eventq.add q ~time:(t + gap !k) e
      done;
      batch_ops * 10)

(* Advance a world of [threads] simulated threads, one per CPU, each
   looping the body [make_body] built for the world; a batch runs two
   simulated milliseconds and counts the bodies completed. *)
let world_batches ~slice ~threads make_body =
  let sim = Sim.create ~seed:1 () in
  let body = make_body sim in
  let count = ref 0 and stop = ref false in
  for cpu = 0 to threads - 1 do
    ignore
      (Sim.spawn sim ~cpu ~name:"probe" (fun () ->
           while not !stop do
             body ~cpu;
             incr count
           done))
  done;
  let horizon = ref 0 in
  let r =
    repeat ~slice (fun () ->
        let c0 = !count in
        horizon := !horizon + Units.ms 2.0;
        Sim.run ~until:!horizon sim;
        !count - c0)
  in
  stop := true;
  Sim.run sim;
  r

(* Four CPUs, each stepping through the paper delays from its own
   starting decile, so whether a delay takes the inline path or suspends
   depends on the others as it does in a cell. *)
let sim_delay ~slice =
  world_batches ~slice ~threads:4 (fun sim ->
      let step = Array.make 4 0 in
      fun ~cpu ->
        let k = step.(cpu) in
        step.(cpu) <- k + 1;
        Sim.delay sim paper_delays.(((3 * cpu) + k) mod Array.length paper_delays))

let lock_uncontended ~slice =
  let sim = Sim.create ~seed:1 () in
  let l = Lock.create sim Arch.challenge_100 Lock.Unfair ~name:"probe" in
  in_thread sim (fun () ->
      repeat ~slice (fun () ->
          for _ = 1 to batch_ops do
            Lock.acquire l;
            Lock.release l
          done;
          batch_ops))

(* Four CPUs on one unfair mutex with the paper cells' measured hold and
   away times, so the lock stays saturated and releases hand it over. *)
let lock_handoff ~slice =
  world_batches ~slice ~threads:4 (fun sim ->
      let l = Lock.create sim Arch.challenge_100 Lock.Unfair ~name:"probe" in
      fun ~cpu:_ ->
        Lock.acquire l;
        Sim.delay sim paper_conn_hold_ns;
        Lock.release l;
        Sim.delay sim paper_conn_away_ns)

let payload = 4096

let mpool_alloc_decref ~slice =
  let plat = platform () in
  let pool = Mpool.create plat in
  in_thread plat.Platform.sim (fun () ->
      repeat ~slice (fun () ->
          for _ = 1 to batch_ops do
            Mpool.decref pool (Mpool.alloc pool payload)
          done;
          batch_ops))

(* Push and strip the FDDI + IP + TCP headers on a 4 KB message. *)
let msg_push_pop ~slice =
  let plat = platform () in
  let pool = Mpool.create plat in
  let hdr =
    Pnp_proto.Fddi.header_bytes + Pnp_proto.Ip.header_bytes + Pnp_proto.Tcp_wire.header_bytes
  in
  in_thread plat.Platform.sim (fun () ->
      let m = Msg.create pool payload in
      let r =
        repeat ~slice (fun () ->
            for _ = 1 to batch_ops do
              Msg.push m hdr;
              Msg.pop m hdr
            done;
            batch_ops)
      in
      Msg.destroy m;
      r)

(* One 4 KB payload summed per call; reported per KB. *)
let inet_cksum ~slice =
  let buf = Bytes.init payload (fun i -> Char.chr (i mod 251)) in
  let r =
    repeat ~slice (fun () ->
        for _ = 1 to batch_ops do
          sink := !sink + Pnp_proto.Inet_cksum.sum_bytes buf 0 payload
        done;
        batch_ops)
  in
  let kb = float_of_int payload /. 1024.0 in
  { ns_per_op = r.ns_per_op /. kb; words_per_op = r.words_per_op /. kb }

(* ---- steering: demux at 10^4 connections ---------------------------- *)

module Key = struct
  type t = int

  let hash = Hashtbl.hash
  let equal = Int.equal
end

module Map = Xmap.Make (Key)

(* Lookups in a seeded random order over 10^4 keys in 64 shards, so the
   one-behind caches rarely hit, as under steered traffic. *)
let xmap_lookup ~slice ~seed =
  let keys = Workloads.steering_conns in
  let plat = platform ~map_shards:64 () in
  let order = Array.init keys Fun.id in
  Prng.shuffle (Prng.create seed) order;
  in_thread plat.Platform.sim (fun () ->
      let m = Map.create plat ~shards:64 ~name:"probe" () in
      Array.iter (fun k -> Map.insert m k k) order;
      Prng.shuffle (Prng.create (seed + 1)) order;
      let j = ref 0 in
      repeat ~slice (fun () ->
          for _ = 1 to batch_ops do
            (match Map.lookup m order.(!j) with Some v -> sink := !sink + v | None -> ());
            j := if !j + 1 = keys then 0 else !j + 1
          done;
          batch_ops))

(* Four workers polling a Flow-Director-style NIC over 10^4 flows. *)
let steer_next ~slice =
  let plat = platform () in
  let st =
    Pnp_driver.Steer.create plat ~policy:Pnp_driver.Steer.Last_sender
      ~workers:Workloads.steering_procs ~conns:Workloads.steering_conns ()
  in
  let reserve ~conn = Some conn in
  in_thread plat.Platform.sim (fun () ->
      let w = ref 0 in
      repeat ~slice (fun () ->
          for _ = 1 to batch_ops do
            (match Pnp_driver.Steer.next st ~worker:!w ~reserve with
             | Some c -> sink := !sink + c
             | None -> ());
            w := (!w + 1) land 3
          done;
          batch_ops))

(* ---- incast: connection churn, timers, the faulted wire ------------- *)

(* The incast server's demux: 8 shards holding 10^3 live connections;
   every call binds a new one and drops the oldest. *)
let xmap_insert_remove ~slice =
  let live = Workloads.incast_senders in
  let plat = platform ~map_shards:8 () in
  in_thread plat.Platform.sim (fun () ->
      let m = Map.create plat ~shards:8 ~name:"probe" () in
      for k = 0 to live - 1 do
        Map.insert m k k
      done;
      let next = ref live in
      repeat ~slice (fun () ->
          for _ = 1 to batch_ops do
            Map.insert m !next !next;
            ignore (Map.remove m (!next - live));
            incr next
          done;
          batch_ops))

(* Arm and cancel a retransmission-scale timer on a wheel already
   holding one long timer per incast connection. *)
let timewheel_schedule_cancel ~slice =
  let plat = platform () in
  let tw = Timewheel.create plat ~name:"probe" () in
  in_thread plat.Platform.sim (fun () ->
      for _ = 1 to Workloads.incast_senders do
        ignore (Timewheel.schedule tw ~after:(Units.sec 3600.0) ignore)
      done;
      repeat ~slice (fun () ->
          for _ = 1 to batch_ops do
            ignore (Timewheel.cancel tw (Timewheel.schedule tw ~after:(Units.ms 500.0) ignore))
          done;
          batch_ops))

(* Offer incast-sized frames (1 KB MSS plus headers) to the burst plan's
   Gilbert-Elliott stage; each call hands over one shared copy of the
   frame and releases whatever the pipeline returns. *)
let faults_feed ~slice ~seed =
  let plat = platform () in
  let pool = Mpool.create plat in
  let fi =
    Pnp_faults.Faults.instantiate Workloads.burst_plan ~prng:(Prng.create seed)
      ~skip_bytes:Pnp_proto.Fddi.header_bytes
  in
  let frame =
    Msg.create pool
      (1024 + Pnp_proto.Tcp_wire.header_bytes + Pnp_proto.Ip.header_bytes
     + Pnp_proto.Fddi.header_bytes)
  in
  let now = ref 0 in
  let r =
    repeat ~slice (fun () ->
        for _ = 1 to batch_ops do
          now := !now + 1000;
          List.iter
            (fun (m, _) -> Msg.destroy m)
            (Pnp_faults.Faults.feed fi ~now:!now ~on_event:ignore (Msg.dup frame))
        done;
        batch_ops)
  in
  Msg.destroy frame;
  r

(* ---- check: tracing and the analyses -------------------------------- *)

let trace_emit ~slice =
  let tr = Trace.create () in
  Trace.enable tr;
  repeat ~slice (fun () ->
      Trace.clear tr;
      for i = 1 to batch_ops * 10 do
        Trace.emit tr ~ts:i ~tid:(i land 3) ~cpu:(i land 3)
          (Trace.Lock_grant { lock = "tcp.conn:probe"; waiters = 0; wait_ns = i })
      done;
      batch_ops * 10)

let check_configs ~seed = Workloads.seeded Workloads.check_configs ~seed ~replicas:1

(* [Check.all] over the trace of the first check scenario; reported per
   trace event. *)
let check_all ~slice ~seed =
  let _, tr = Pnp_harness.Run.run_traced (List.hd (check_configs ~seed)) in
  let events = Trace.count tr in
  repeat ~slice (fun () ->
      sink := !sink + List.length (Pnp_analysis.Check.all tr);
      events)

(* Traced over untraced host time of the check scenarios, alternating
   the two so drift in host speed hits both; the median of the per-round
   ratios. *)
let trace_overhead ~slice ~seed =
  let cfgs = check_configs ~seed in
  let ratios = ref [] and rounds = ref 0 in
  let stop = Stat.now () +. slice in
  while !rounds < 3 || Stat.now () < stop do
    let (), plain = Stat.time (fun () -> List.iter (fun c -> ignore (Pnp_harness.Run.run c)) cfgs) in
    let (), traced =
      Stat.time (fun () -> List.iter (fun c -> ignore (Pnp_harness.Run.run_traced c)) cfgs)
    in
    ratios := (traced /. plain) :: !ratios;
    incr rounds
  done;
  Stat.median !ratios

(* Every probe, as (ns metric, words metric, run). *)
let all ~seed =
  [
    ("eventq.add_pop_ns", "eventq.add_pop_words", eventq_add_pop);
    ("sim.delay_ns", "sim.delay_words", sim_delay);
    ("lock.uncontended_ns", "lock.uncontended_words", lock_uncontended);
    ("lock.handoff_ns", "lock.handoff_words", lock_handoff);
    ("mpool.alloc_decref_ns", "mpool.alloc_decref_words", mpool_alloc_decref);
    ("msg.push_pop_ns", "msg.push_pop_words", msg_push_pop);
    ("inet_cksum.ns_per_kb", "inet_cksum.words_per_kb", inet_cksum);
    ("xmap.lookup_ns", "xmap.lookup_words", xmap_lookup ~seed);
    ("steer.next_ns", "steer.next_words", steer_next);
    ("xmap.insert_remove_ns", "xmap.insert_remove_words", xmap_insert_remove);
    ( "timewheel.schedule_cancel_ns",
      "timewheel.schedule_cancel_words",
      timewheel_schedule_cancel );
    ("faults.feed_ns", "faults.feed_words", faults_feed ~seed);
    ("trace.emit_ns", "trace.emit_words", trace_emit);
    ("check.ns_per_trace_event", "check.words_per_trace_event", check_all ~seed);
  ]
