open Pnp_engine
open Pnp_util
open Pnp_xkern
open Pnp_proto
open Pnp_driver

type result = {
  throughput_mbps : float;
  goodput_mbps : float;
  packets : int;
  ooo_pct : float;
  wire_misorder_pct : float;
  pred_miss_pct : float;
  rexmit_pct : float;
  lock_wait_pct : float;
  cache_hit_pct : float;
  scr_appends : int;
  scr_replayed : int;
  scr_resyncs : int;
}

let sender_addr = 0x0a000001
let receiver_addr = 0x0a000002

(* Every counter of a world, read at one instant.  A run's result is the
   difference of two samples: at the end of warmup and at the end of the
   run.  A world fills only the fields it has, on top of [zero]. *)
type counters = {
  bytes : int;           (* payload bytes forwarded so far *)
  unique : int;          (* in-order bytes net of retransmitted dups *)
  packets : int;
  ooo_segs : int;        (* out-of-order data segments, of [data_segs] *)
  data_segs : int;
  wire_misorders : int;  (* send side: misordered below TCP, of [wire_segs] *)
  wire_segs : int;
  pred_misses : int;     (* header-prediction misses, of [pred_total] *)
  pred_total : int;
  rexmits : int;         (* retransmitted segments, of [segs_out] *)
  segs_out : int;
  lock_wait : int;       (* ns threads spent blocked on connection locks *)
  cache_hits : int;      (* MNode allocations served by per-thread caches *)
  allocations : int;
  scr_appends : int;
  scr_replayed : int;
  scr_resyncs : int;
}

let zero =
  {
    bytes = 0;
    unique = 0;
    packets = 0;
    ooo_segs = 0;
    data_segs = 0;
    wire_misorders = 0;
    wire_segs = 0;
    pred_misses = 0;
    pred_total = 0;
    rexmits = 0;
    segs_out = 0;
    lock_wait = 0;
    cache_hits = 0;
    allocations = 0;
    scr_appends = 0;
    scr_replayed = 0;
    scr_resyncs = 0;
  }

let pct num den = if den <= 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

(* A TCP world's sample: the application-level counters [app] plus every
   per-session statistic, summed in one pass over the sessions. *)
let tcp_counters tcp (app : counters) =
  List.fold_left
    (fun c s ->
      let st = Tcp.stats s in
      let c =
        {
          c with
          ooo_segs = c.ooo_segs + st.Tcp.ooo_segs;
          data_segs = c.data_segs + st.Tcp.segs_in - st.Tcp.acks_in;
          pred_misses = c.pred_misses + st.Tcp.pred_misses;
          pred_total = c.pred_total + st.Tcp.pred_hits + st.Tcp.pred_misses;
          rexmits = c.rexmits + st.Tcp.rexmits;
          segs_out = c.segs_out + st.Tcp.segs_out;
          lock_wait = c.lock_wait + Tcp.lock_wait_ns s;
        }
      in
      match Tcp.scr_counters s with
      | None -> c
      | Some x ->
        {
          c with
          scr_appends = c.scr_appends + x.Tcp.scr_appends;
          scr_replayed = c.scr_replayed + x.Tcp.scr_replayed;
          scr_resyncs = c.scr_resyncs + x.Tcp.scr_resyncs;
        })
    app (Tcp.sessions tcp)

let sum n f =
  let acc = ref 0 in
  for j = 0 to n - 1 do
    acc := !acc + f j
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Workload assembly                                                   *)
(* ------------------------------------------------------------------ *)

let tcp_config (cfg : Config.t) =
  {
    Tcp.default_config with
    Tcp.locking = cfg.Config.tcp_locking;
    checksum = cfg.Config.checksum;
    cksum_under_lock = cfg.Config.cksum_under_lock;
    assume_in_order = cfg.Config.assume_in_order;
    ticketing = cfg.Config.ticketing;
    mss = cfg.Config.payload;
    scr_log_bound = cfg.Config.scr_log_bound;
  }

let make_platform (cfg : Config.t) =
  Platform.create ~seed:cfg.Config.seed ~lock_disc:cfg.Config.lock_disc
    ~refcnt_mode:cfg.Config.refcnt_mode
    ~message_caching:cfg.Config.message_caching ~map_locking:cfg.Config.map_locking
    ~map_shards:cfg.Config.demux_shards cfg.Config.arch

(* The per-connection application endpoint: counts packets under its own
   small lock (the paper's lock-increment-unlock critical section), honouring
   tickets when ordering is required. *)
type app = {
  app_lock : Lock.t;
  mutable app_bytes : int;
  mutable app_packets : int;
}

let make_app plat j =
  {
    app_lock =
      Lock.create plat.Platform.sim plat.Platform.arch Lock.Unfair
        ~name:("app." ^ string_of_int j);
    app_bytes = 0;
    app_packets = 0;
  }

(* The per-connection application step: the paper's lock-increment-unlock
   critical section.  When ticketing is on, TCP already serialises this
   upcall in packet order.  With [presentation], the application first
   unmarshals the payload — a compute-bound per-byte pass. *)
let app_receive (cfg : Config.t) plat pool app msg =
  let msg = if cfg.Config.presentation then Pres.decode plat pool msg else msg in
  Costs.charge plat Costs.app_recv;
  Lock.acquire app.app_lock;
  app.app_bytes <- app.app_bytes + Msg.length msg;
  app.app_packets <- app.app_packets + 1;
  Lock.release app.app_lock;
  Msg.destroy msg

(* How receive workers choose which connection's next packet to carry up.

   Placement: Connection_level statically partitions the connections over
   the workers (the paper's Figure 12 setup and its Section 8 future-work
   strategy); Packet_level lets any worker take any connection's packet.

   Load: per-connection weights follow Zipf(skew).  With [offered_mbps]
   unset the drivers saturate (a packet is always ready); with it set,
   arrivals on stream j are paced at the stream's share of the offered
   rate, so a worker whose streams have no backlog idles — which is what
   exposes load imbalance under connection-level placement. *)

type feed =
  | Now of int     (* carry stream j's next packet up *)
  | Wait of int    (* no backlog; next arrival in this many ns *)

let zipf_weights (cfg : Config.t) =
  Array.init cfg.Config.connections (fun j ->
      1.0 /. (float_of_int (j + 1) ** cfg.Config.skew))

(* Shared pacing state: arrivals accrued per stream since time 0. *)
type pacing = { intervals : float array; consumed : int array }

let make_pacing (cfg : Config.t) =
  match cfg.Config.offered_mbps with
  | None -> None
  | Some rate ->
    let ws = zipf_weights cfg in
    let total_w = Array.fold_left ( +. ) 0.0 ws in
    let bits = float_of_int (8 * cfg.Config.payload) in
    let intervals =
      Array.map
        (fun w ->
          let rate_j_mbps = rate *. w /. total_w in
          (* Mbit/s = 10^6 bits/s = 10^-3 bits/ns *)
          bits /. (rate_j_mbps /. 1000.0))
        ws
    in
    Some { intervals; consumed = Array.make cfg.Config.connections 0 }

let make_feeder (cfg : Config.t) plat pacing ~worker =
  let conns = cfg.Config.connections in
  let procs = cfg.Config.procs in
  let mine =
    match cfg.Config.placement with
    | Config.Connection_level ->
      List.filter (fun j -> j mod procs = worker) (List.init conns Fun.id)
    | Config.Packet_level -> List.init conns Fun.id
  in
  match mine with
  | [] -> None
  | js -> (
    let js = Array.of_list js in
    match pacing with
    | Some pace ->
      (* Arrival-limited: serve the most backlogged owned stream. *)
      Some
        (fun () ->
          let now = float_of_int (Sim.now plat.Platform.sim) in
          let best = ref (-1) and best_backlog = ref 0 in
          let soonest = ref infinity in
          Array.iter
            (fun j ->
              let arrived = int_of_float (now /. pace.intervals.(j)) in
              let backlog = arrived - pace.consumed.(j) in
              if backlog > !best_backlog then begin
                best := j;
                best_backlog := backlog
              end;
              let next_arrival = float_of_int (pace.consumed.(j) + 1) *. pace.intervals.(j) in
              if next_arrival -. now < !soonest then soonest := next_arrival -. now)
            js;
          if !best >= 0 then begin
            pace.consumed.(!best) <- pace.consumed.(!best) + 1;
            Now !best
          end
          else Wait (max 1_000 (int_of_float !soonest)))
    | None ->
      (* Saturating: weighted random pick (uniform when skew = 0). *)
      if Array.length js = 1 then Some (fun () -> Now js.(0))
      else begin
        let ws_all = zipf_weights cfg in
        let ws = Array.map (fun j -> ws_all.(j)) js in
        let total = Array.fold_left ( +. ) 0.0 ws in
        let rng = Prng.split (Sim.prng plat.Platform.sim) in
        Some
          (fun () ->
            let x = Prng.float rng total in
            let rec go i acc =
              if i >= Array.length js - 1 then js.(i)
              else if acc +. ws.(i) > x then js.(i)
              else go (i + 1) (acc +. ws.(i))
            in
            Now (go 0 0.0))
      end)

(* The receive worlds' application counters, one [app] per connection. *)
let app_counters apps =
  let n = Array.length apps in
  let bytes = sum n (fun j -> apps.(j).app_bytes) in
  { zero with bytes; unique = bytes; packets = sum n (fun j -> apps.(j).app_packets) }

(* One application sender per processor, on connection [i mod conns]:
   the send-side throughput test. *)
let spawn_senders (cfg : Config.t) plat pool ~name ~session ~send =
  let sim = plat.Platform.sim in
  for i = 0 to cfg.Config.procs - 1 do
    let rng = Prng.split (Sim.prng sim) in
    ignore
      (Sim.spawn sim ~cpu:i ~name:(Printf.sprintf "%s.%d" name i) (fun () ->
           let sess = session (i mod cfg.Config.connections) in
           while true do
             Costs.charge plat Costs.app_send;
             (* small application service jitter; keeps the system off
                artificial deterministic phase-locks *)
             Platform.charge plat (int_of_float (Prng.exponential rng ~mean:1000.0));
             let m = Msg.create pool cfg.Config.payload in
             Costs.fill_payload plat m ~off:0 ~len:cfg.Config.payload ~stream_off:0;
             send sess (if cfg.Config.presentation then Pres.encode plat pool m else m)
           done))
  done

(* One receive worker per processor that owns a connection, carrying up
   whichever stream's next packet its feeder picks. *)
let spawn_receivers (cfg : Config.t) plat ~name ~next =
  let sim = plat.Platform.sim in
  let pacing = make_pacing cfg in
  for i = 0 to cfg.Config.procs - 1 do
    match make_feeder cfg plat pacing ~worker:i with
    | None -> () (* more workers than owned connections *)
    | Some feed ->
      ignore
        (Sim.spawn sim ~cpu:i ~name:(Printf.sprintf "%s.%d" name i) (fun () ->
             while true do
               match feed () with
               | Now stream -> next stream
               | Wait d -> Sim.delay sim d
             done))
  done

(* Build stack + drivers + worker threads; return the world's sampler and
   its pool. *)
let setup (cfg : Config.t) plat =
  let procs = cfg.Config.procs in
  let conns = cfg.Config.connections in
  let sim = plat.Platform.sim in
  assert (procs >= 1 && conns >= 1);
  (match cfg.Config.steering with
   | Some _ when cfg.Config.protocol <> Config.Tcp || cfg.Config.side <> Config.Recv ->
     invalid_arg "Run.setup: steering applies to the TCP receive side only"
   | Some _ when cfg.Config.offered_mbps <> None ->
     invalid_arg "Run.setup: steering models a saturating NIC; unset offered_mbps"
   | _ -> ());
  let udp = cfg.Config.protocol = Config.Udp in
  let stack =
    Stack.create plat
      ?udp_checksum:(if udp then Some cfg.Config.checksum else None)
      ?tcp_config:(if udp then None else Some (tcp_config cfg))
      ~local_addr:(if cfg.Config.side = Config.Send then sender_addr else receiver_addr)
      ()
  in
  let pool = stack.Stack.pool in
  let payload = cfg.Config.payload and checksum = cfg.Config.checksum in
  (* Interrupt/DMA service variance grows with the number of CPUs
     hammering the bus; Table 1's MCS column is its footprint. *)
  let jitter_mean_ns =
    cfg.Config.driver_jitter_ns *. (1.0 +. (0.12 *. float_of_int (procs - 1)))
  in
  let deliver apps j m = app_receive cfg plat pool apps.(j) m in
  let world =
    match (cfg.Config.protocol, cfg.Config.side, cfg.Config.steering) with
    | Config.Udp, Config.Send, _ ->
      let sink = Udp_sink.attach stack in
      let sessions =
        Array.init conns (fun j ->
            Udp.open_session stack.Stack.udp ~local_port:(5000 + j)
              ~remote_addr:receiver_addr ~remote_port:(80 + j)
              ~recv:(fun m -> Msg.destroy m))
      in
      spawn_senders cfg plat pool ~name:"udp-send" ~session:(Array.get sessions)
        ~send:Udp.send;
      fun () ->
        let bytes = Udp_sink.bytes_received sink in
        { zero with bytes; unique = bytes; packets = Udp_sink.frames_received sink }
    | Config.Udp, Config.Recv, _ ->
      let ports = List.init conns (fun j -> (2000 + j, 4000 + j)) in
      let src =
        Udp_source.attach stack ~peer_addr:sender_addr ~payload ~checksum ~jitter_mean_ns
          ~ports ()
      in
      let apps = Array.init conns (make_app plat) in
      List.iteri
        (fun j (_, rcv_port) ->
          ignore
            (Udp.open_session stack.Stack.udp ~local_port:rcv_port ~remote_addr:sender_addr
               ~remote_port:(2000 + j) ~recv:(deliver apps j)))
        ports;
      spawn_receivers cfg plat ~name:"udp-recv" ~next:(fun stream ->
          Udp_source.next src ~stream);
      fun () -> app_counters apps
    | Config.Tcp, Config.Send, _ ->
      let peer =
        Tcp_peer.attach stack ~peer_addr:receiver_addr ~checksum
          ~loss_rate:cfg.Config.loss_rate ()
      in
      let sessions = Array.make conns None in
      ignore
        (Sim.spawn sim ~cpu:0 ~name:"tcp-connector" (fun () ->
             for j = 0 to conns - 1 do
               sessions.(j) <-
                 Some
                   (Tcp.connect stack.Stack.tcp ~local_port:(5000 + j)
                      ~remote_addr:receiver_addr ~remote_port:(80 + j))
             done));
      spawn_senders cfg plat pool ~name:"tcp-send"
        ~session:(fun j ->
          (* wait for the connector to finish our session *)
          while sessions.(j) = None do
            Sim.delay sim (Units.us 20.0)
          done;
          Option.get sessions.(j))
        ~send:Tcp.send;
      fun () ->
        tcp_counters stack.Stack.tcp
          {
            zero with
            bytes = Tcp_peer.bytes_received peer;
            unique = sum conns (fun j -> Tcp_peer.unique_bytes peer ~port:(5000 + j));
            packets = Tcp_peer.data_segments peer;
            wire_misorders = Tcp_peer.wire_misorders peer;
            wire_segs = Tcp_peer.data_segments peer;
          }
    | Config.Tcp, Config.Recv, Some policy ->
      (* Steered receive: a virtual multi-queue NIC (Steer) picks the
         worker per frame instead of the placement feeders.  One shared
         listen port with per-stream source addresses carries the
         connection count past the 16-bit port space. *)
      let listen_port = 4000 in
      let addr_span = 1 lsl 14 (* streams per source address *) in
      let addr_of j = sender_addr + ((j / addr_span) lsl 16) in
      let ports = List.init conns (fun j -> (2000 + (j mod addr_span), listen_port)) in
      let src =
        Tcp_source.attach stack ~peer_addr:sender_addr ~payload ~checksum ~jitter_mean_ns
          ~addr_of ~ports ()
      in
      let apps = Array.init conns (make_app plat) in
      Tcp.listen stack.Stack.tcp ~local_port:listen_port ~accept:(fun sess ->
          let raddr, rport = Tcp.remote_endpoint sess in
          let j = (((raddr - sender_addr) lsr 16) * addr_span) + (rport - 2000) in
          Tcp.set_receiver sess (deliver apps j));
      (* Handshake in parallel slices: serially opening 10^5 connections
         from one thread would eat whole simulated seconds. *)
      let slice = (conns + procs - 1) / procs in
      for i = 0 to procs - 1 do
        let first = i * slice and last = min conns ((i + 1) * slice) in
        if first < last then
          ignore
            (Sim.spawn sim ~cpu:i ~name:(Printf.sprintf "tcp-handshaker.%d" i) (fun () ->
                 Tcp_source.start_range src ~first ~last))
      done;
      let steer = Steer.create plat ~policy ~workers:procs ~conns () in
      let reserve ~conn = Tcp_source.reserve src ~stream:conn in
      for i = 0 to procs - 1 do
        ignore
          (Sim.spawn sim ~cpu:i ~name:(Printf.sprintf "tcp-recv.%d" i) (fun () ->
               while true do
                 match Steer.next steer ~worker:i ~reserve with
                 | Some r -> Tcp_source.inject src r
                 | None -> Sim.delay sim (Units.us 20.0)
               done))
      done;
      fun () -> tcp_counters stack.Stack.tcp (app_counters apps)
    | Config.Tcp, Config.Recv, None ->
      let ports = List.init conns (fun j -> (2000 + j, 4000 + j)) in
      let src =
        Tcp_source.attach stack ~peer_addr:sender_addr ~payload ~checksum ~jitter_mean_ns
          ~ports ()
      in
      let apps = Array.init conns (make_app plat) in
      List.iteri
        (fun j (_, rcv_port) ->
          Tcp.listen stack.Stack.tcp ~local_port:rcv_port ~accept:(fun sess ->
              Tcp.set_receiver sess (deliver apps j)))
        ports;
      ignore (Sim.spawn sim ~cpu:0 ~name:"tcp-handshaker" (fun () -> Tcp_source.start src));
      spawn_receivers cfg plat ~name:"tcp-recv" ~next:(fun stream ->
          if not (Tcp_source.next src ~stream) then Sim.delay sim (Units.us 20.0));
      fun () -> tcp_counters stack.Stack.tcp (app_counters apps)
  in
  let sample () =
    { (world ()) with cache_hits = Mpool.cache_hits pool; allocations = Mpool.allocations pool }
  in
  (sample, pool)

let run_gen ?(trace = false) ?stall_ns (cfg : Config.t) =
  let plat = make_platform cfg in
  let sample, pool = setup cfg plat in
  let tracer = Sim.tracer plat.Platform.sim in
  let wd =
    match stall_ns with
    | None -> None
    | Some s ->
      Some
        (Watchdog.install plat.Platform.sim ~stall_ns:s
           ~progress:(fun () -> (sample ()).bytes)
           ())
  in
  let s0 = ref None in
  Sim.at plat.Platform.sim cfg.Config.warmup (fun () ->
      s0 := Some (sample ());
      (* Start tracing at the same instant the warmup sample is taken, so
         trace-event totals line up with the counter deltas over the
         measurement window. *)
      if trace then Trace.enable tracer);
  Sim.run ~until:(cfg.Config.warmup + cfg.Config.measure) plat.Platform.sim;
  (match wd with Some w -> Watchdog.disarm w | None -> ());
  if trace then Trace.disable tracer;
  Hostprof.note_sim_events (Sim.events_processed plat.Platform.sim);
  Hostprof.note_arena_hwm (Mpool.arena_hwm pool);
  (* The run just reached its event horizon — quiescence: release surplus
     recycled buffers so a burst in this cell does not pin host memory
     while the next cells run. *)
  Mpool.quiesce pool;
  let s0 = match !s0 with Some s -> s | None -> failwith "Run.run: warmup never fired" in
  let s1 = sample () in
  let duration = cfg.Config.measure in
  let mbps b = Units.mbits_per_sec ~bytes_transferred:b ~duration in
  ( ({
       throughput_mbps = mbps (s1.bytes - s0.bytes);
       goodput_mbps = mbps (s1.unique - s0.unique);
       packets = s1.packets - s0.packets;
       ooo_pct = pct (s1.ooo_segs - s0.ooo_segs) (s1.data_segs - s0.data_segs);
       wire_misorder_pct =
         pct (s1.wire_misorders - s0.wire_misorders) (s1.wire_segs - s0.wire_segs);
       pred_miss_pct = pct (s1.pred_misses - s0.pred_misses) (s1.pred_total - s0.pred_total);
       rexmit_pct = pct (s1.rexmits - s0.rexmits) (s1.segs_out - s0.segs_out);
       lock_wait_pct = pct (s1.lock_wait - s0.lock_wait) (cfg.Config.procs * duration);
       cache_hit_pct =
         pct (s1.cache_hits - s0.cache_hits) (s1.allocations - s0.allocations);
       scr_appends = s1.scr_appends - s0.scr_appends;
       scr_replayed = s1.scr_replayed - s0.scr_replayed;
       scr_resyncs = s1.scr_resyncs - s0.scr_resyncs;
     }
      : result),
    tracer,
    match wd with None -> [] | Some w -> Watchdog.stalls w )

(* Sweep-cell memo.  A cell is a pure function of its [Config.t] (every
   stochastic choice is seeded from [cfg.seed]), and the figures reuse
   many identical cells — Figure 10's mutex column is Figure 8/9's 4 KB
   checksum-on sweep, Table 1 re-runs Figure 10's configurations for a
   different metric, and so on.  Memoizing on the configuration itself
   makes those repeats free without changing a single byte of output: a
   hit returns exactly the value a fresh run would compute.

   Keys compare structurally, so every field of [Config.t] (the
   architecture record included) separates cells with no list to keep in
   step.  The default [Hashtbl.hash] stops after 10 meaningful words and
   would put configs that differ only in a late field (seed, connections,
   loss rate) in one bucket; 64 words reach every field.

   The table is shared across Pool worker domains, hence the mutex.  If
   two domains race on the same miss, both compute the (identical)
   result and the first one wins the insert — wasted work, never a wrong
   answer. *)
module Cells = Hashtbl.Make (struct
  type t = Config.t

  let equal = ( = )
  let hash = Hashtbl.hash_param 64 128
end)

let memo_enabled = ref true
let memo_lock = Mutex.create ()
let memo : result Cells.t = Cells.create 256

let set_cell_memo on = memo_enabled := on

let clear_cell_memo () =
  Mutex.protect memo_lock (fun () -> Cells.reset memo)

let cell_memo_size () = Mutex.protect memo_lock (fun () -> Cells.length memo)

let result_of (r, _, _) = r

let run cfg =
  if not !memo_enabled then result_of (run_gen cfg)
  else
    match Mutex.protect memo_lock (fun () -> Cells.find_opt memo cfg) with
    | Some r ->
        Hostprof.note_cell_hit ();
        r
    | None ->
        Hostprof.note_cell_miss ();
        let r = result_of (run_gen cfg) in
        Mutex.protect memo_lock (fun () ->
            if not (Cells.mem memo cfg) then Cells.add memo cfg r);
        r

(* Traced runs are never memoized: the caller wants the tracer. *)
let run_traced cfg =
  let r, tracer, _ = run_gen ~trace:true cfg in
  (r, tracer)

(* Watched runs are never memoized either: liveness is a property of the
   execution, and a memo hit would not re-execute. *)
let run_watched ?(stall_ns = Units.ms 100.0) cfg =
  let r, _, stalls = run_gen ~stall_ns cfg in
  let findings =
    List.map
      (fun (s : Watchdog.stall) ->
        Pnp_analysis.Finding.v ~checker:"watchdog"
          ~subject:(Printf.sprintf "%s@t=%dns" (Config.describe cfg) s.Watchdog.at)
          (Watchdog.describe_stall s))
      stalls
  in
  (r, findings)

let run_seeds cfg ~seeds =
  Pool.map
    (fun i -> run { cfg with Config.seed = cfg.Config.seed + i })
    (List.init seeds Fun.id)

let throughput_summary cfg ~seeds =
  Stats.summary (List.map (fun r -> r.throughput_mbps) (run_seeds cfg ~seeds))
