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
  gate_wait_ns : int;
  scr_appends : int;
  scr_replayed : int;
  scr_resyncs : int;
  rcu_reads : int;
}

let sender_addr = 0x0a000001
let receiver_addr = 0x0a000002

type probe = {
  bytes : unit -> int;              (* payload bytes forwarded so far *)
  unique : unit -> int;             (* in-order bytes net of retransmitted dups *)
  packets : unit -> int;
  ooo : unit -> int * int;          (* (ooo segments, data segments) *)
  wire : unit -> int * int;         (* (misordered, data segments) on the wire *)
  pred : unit -> int * int;         (* (misses, hits+misses) *)
  lock_wait : unit -> int;
  cache : unit -> int * int;        (* (cache hits, allocations) *)
  gate_wait : unit -> int;
  rexmit : unit -> int * int;       (* (retransmitted segments, segments out) *)
  scr : unit -> int * int * int;    (* (log appends, entries replayed, resyncs) *)
  rcu : unit -> int * int;          (* (lock-free reads, snapshot publishes) *)
  p_pool : Mpool.t;                 (* the cell's allocator, for host-side
                                       arena accounting and quiescence *)
}

let pct num den = if den <= 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

let percent_between f0 f1 =
  let n0, d0 = f0 and n1, d1 = f1 in
  pct (n1 - n0) (d1 - d0)

(* Sum a per-session statistic over all TCP sessions. *)
let sum_sessions tcp f = List.fold_left (fun acc s -> acc + f s) 0 (Tcp.sessions tcp)

let tcp_data_segs st = st.Tcp.segs_in - st.Tcp.acks_in

let make_tcp_probe stack ?app_unique ~app_bytes ~app_packets ~peer ~gates () =
  let tcp = stack.Stack.tcp in
  {
    bytes = app_bytes;
    unique = Option.value app_unique ~default:app_bytes;
    packets = app_packets;
    ooo =
      (fun () ->
        ( sum_sessions tcp (fun s -> (Tcp.stats s).Tcp.ooo_segs),
          sum_sessions tcp (fun s -> tcp_data_segs (Tcp.stats s)) ));
    wire =
      (fun () ->
        match peer with
        | Some p -> (Tcp_peer.wire_misorders p, Tcp_peer.data_segments p)
        | None -> (0, 0));
    pred =
      (fun () ->
        ( sum_sessions tcp (fun s -> (Tcp.stats s).Tcp.pred_misses),
          sum_sessions tcp (fun s ->
              let st = Tcp.stats s in
              st.Tcp.pred_hits + st.Tcp.pred_misses) ));
    lock_wait = (fun () -> sum_sessions tcp Tcp.lock_wait_ns);
    cache = (fun () -> (Mpool.cache_hits stack.Stack.pool, Mpool.allocations stack.Stack.pool));
    gate_wait = (fun () -> List.fold_left (fun acc g -> acc + Gate.total_wait_ns g) 0 gates);
    rexmit =
      (fun () ->
        ( sum_sessions tcp (fun s -> (Tcp.stats s).Tcp.rexmits),
          sum_sessions tcp (fun s -> (Tcp.stats s).Tcp.segs_out) ));
    scr =
      (fun () ->
        List.fold_left
          (fun (a, r, y) s ->
            match Tcp.scr_counters s with
            | None -> (a, r, y)
            | Some c ->
              ( a + c.Tcp.scr_appends,
                r + c.Tcp.scr_replayed,
                y + c.Tcp.scr_resyncs ))
          (0, 0, 0) (Tcp.sessions tcp));
    rcu =
      (fun () ->
        List.fold_left
          (fun (rd, pb) s ->
            match Tcp.rcu_counters s with
            | None -> (rd, pb)
            | Some (r, p) -> (rd + r, pb + p))
          (0, 0) (Tcp.sessions tcp));
    p_pool = stack.Stack.pool;
  }

type snapshot = {
  s_bytes : int;
  s_unique : int;
  s_packets : int;
  s_ooo : int * int;
  s_wire : int * int;
  s_pred : int * int;
  s_lock_wait : int;
  s_cache : int * int;
  s_gate : int;
  s_rexmit : int * int;
  s_scr : int * int * int;
  s_rcu : int * int;
}

let take probe =
  {
    s_bytes = probe.bytes ();
    s_unique = probe.unique ();
    s_packets = probe.packets ();
    s_ooo = probe.ooo ();
    s_wire = probe.wire ();
    s_pred = probe.pred ();
    s_lock_wait = probe.lock_wait ();
    s_cache = probe.cache ();
    s_gate = probe.gate_wait ();
    s_rexmit = probe.rexmit ();
    s_scr = probe.scr ();
    s_rcu = probe.rcu ();
  }

(* ------------------------------------------------------------------ *)
(* Workload assembly                                                   *)
(* ------------------------------------------------------------------ *)

let tcp_config (cfg : Config.t) =
  {
    Tcp.locking = cfg.Config.tcp_locking;
    checksum = cfg.Config.checksum;
    cksum_under_lock = cfg.Config.cksum_under_lock;
    assume_in_order = cfg.Config.assume_in_order;
    ticketing = cfg.Config.ticketing;
    nodelay = false;
    mss = cfg.Config.payload;
    rcv_wnd = 1 lsl 20;
    snd_buf = 1 lsl 20;
    syn_backlog = cfg.Config.syn_backlog;
    sb_policy = Pnp_proto.Sockbuf.Block;
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
        ~name:(Printf.sprintf "app.%d" j);
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

(* Build stack + drivers + worker threads; return the probe. *)
let setup (cfg : Config.t) plat =
  let procs = cfg.Config.procs in
  let conns = cfg.Config.connections in
  assert (procs >= 1 && conns >= 1);
  (match cfg.Config.steering with
   | Some _ when cfg.Config.protocol <> Config.Tcp || cfg.Config.side <> Config.Recv ->
     invalid_arg "Run.setup: steering applies to the TCP receive side only"
   | _ -> ());
  match (cfg.Config.protocol, cfg.Config.side) with
  | Config.Udp, Config.Send ->
    let stack =
      Stack.create plat ~udp_checksum:cfg.Config.checksum
        ?pool_capacity:cfg.Config.pool_capacity ~local_addr:sender_addr ()
    in
    let sink = Udp_sink.attach stack in
    let sessions =
      Array.init conns (fun j ->
          Udp.open_session stack.Stack.udp ~local_port:(5000 + j)
            ~remote_addr:receiver_addr ~remote_port:(80 + j)
            ~recv:(fun m -> Msg.destroy m))
    in
    for i = 0 to procs - 1 do
      let sess = sessions.(i mod conns) in
      let rng = Prng.split (Sim.prng plat.Platform.sim) in
      ignore
        (Sim.spawn plat.Platform.sim ~cpu:i ~name:(Printf.sprintf "udp-send.%d" i)
           (fun () ->
             while true do
               Costs.charge plat Costs.app_send;
               (* small application service jitter; keeps the system off
                  artificial deterministic phase-locks *)
               Platform.charge plat (int_of_float (Prng.exponential rng ~mean:1000.0));
               let m = Msg.create stack.Stack.pool cfg.Config.payload in
               Costs.fill_payload plat m ~off:0 ~len:cfg.Config.payload ~stream_off:0;
               let m =
                 if cfg.Config.presentation then Pres.encode plat stack.Stack.pool m
                 else m
               in
               Udp.send sess m
             done))
    done;
    {
      bytes = (fun () -> Udp_sink.bytes_received sink);
      unique = (fun () -> Udp_sink.bytes_received sink);
      packets = (fun () -> Udp_sink.frames_received sink);
      ooo = (fun () -> (0, 0));
      wire = (fun () -> (0, 0));
      pred = (fun () -> (0, 0));
      lock_wait = (fun () -> 0);
      cache = (fun () -> (Mpool.cache_hits stack.Stack.pool, Mpool.allocations stack.Stack.pool));
      gate_wait = (fun () -> 0);
      rexmit = (fun () -> (0, 0));
      scr = (fun () -> (0, 0, 0));
      rcu = (fun () -> (0, 0));
      p_pool = stack.Stack.pool;
    }
  | Config.Udp, Config.Recv ->
    let stack =
      Stack.create plat ~udp_checksum:cfg.Config.checksum
        ?pool_capacity:cfg.Config.pool_capacity ~local_addr:receiver_addr ()
    in
    let ports = List.init conns (fun j -> (2000 + j, 4000 + j)) in
    let src =
      let jitter =
        cfg.Config.driver_jitter_ns *. (1.0 +. (0.12 *. float_of_int (procs - 1)))
      in
      Udp_source.attach stack ~peer_addr:sender_addr ~payload:cfg.Config.payload
        ~checksum:cfg.Config.checksum ~jitter_mean_ns:jitter ~ports ()
    in
    let apps = Array.init conns (fun j -> make_app plat j) in
    List.iteri
      (fun j (_, rcv_port) ->
        ignore
          (Udp.open_session stack.Stack.udp ~local_port:rcv_port ~remote_addr:sender_addr
             ~remote_port:(2000 + j)
             ~recv:(fun m -> app_receive cfg plat stack.Stack.pool apps.(j) m)))
      ports;
    let pacing = make_pacing cfg in
    for i = 0 to procs - 1 do
      match make_feeder cfg plat pacing ~worker:i with
      | None -> () (* more workers than owned connections *)
      | Some feed ->
        ignore
          (Sim.spawn plat.Platform.sim ~cpu:i ~name:(Printf.sprintf "udp-recv.%d" i)
             (fun () ->
               while true do
                 match feed () with
                 | Now stream -> Udp_source.next src ~stream
                 | Wait d -> Sim.delay plat.Platform.sim d
               done))
    done;
    {
      bytes = (fun () -> Array.fold_left (fun acc a -> acc + a.app_bytes) 0 apps);
      unique = (fun () -> Array.fold_left (fun acc a -> acc + a.app_bytes) 0 apps);
      packets = (fun () -> Array.fold_left (fun acc a -> acc + a.app_packets) 0 apps);
      ooo = (fun () -> (0, 0));
      wire = (fun () -> (0, 0));
      pred = (fun () -> (0, 0));
      lock_wait = (fun () -> 0);
      cache = (fun () -> (Mpool.cache_hits stack.Stack.pool, Mpool.allocations stack.Stack.pool));
      gate_wait = (fun () -> 0);
      rexmit = (fun () -> (0, 0));
      scr = (fun () -> (0, 0, 0));
      rcu = (fun () -> (0, 0));
      p_pool = stack.Stack.pool;
    }
  | Config.Tcp, Config.Send ->
    let stack =
      Stack.create plat ~tcp_config:(tcp_config cfg)
        ?pool_capacity:cfg.Config.pool_capacity ~local_addr:sender_addr ()
    in
    let peer =
      Tcp_peer.attach stack ~peer_addr:receiver_addr ~ack_window:(1 lsl 20)
        ~checksum:cfg.Config.checksum ~loss_rate:cfg.Config.loss_rate ()
    in
    let sessions = Array.make conns None in
    ignore
      (Sim.spawn plat.Platform.sim ~cpu:0 ~name:"tcp-connector" (fun () ->
           for j = 0 to conns - 1 do
             sessions.(j) <-
               Some
                 (Tcp.connect stack.Stack.tcp ~local_port:(5000 + j)
                    ~remote_addr:receiver_addr ~remote_port:(80 + j))
           done));
    for i = 0 to procs - 1 do
      let j = i mod conns in
      let rng = Prng.split (Sim.prng plat.Platform.sim) in
      ignore
        (Sim.spawn plat.Platform.sim ~cpu:i ~name:(Printf.sprintf "tcp-send.%d" i)
           (fun () ->
             (* wait for the connector to finish our session *)
             while sessions.(j) = None do
               Sim.delay plat.Platform.sim (Units.us 20.0)
             done;
             let sess = Option.get sessions.(j) in
             while true do
               Costs.charge plat Costs.app_send;
               (* small application service jitter; keeps the system off
                  artificial deterministic phase-locks *)
               Platform.charge plat (int_of_float (Prng.exponential rng ~mean:1000.0));
               let m = Msg.create stack.Stack.pool cfg.Config.payload in
               Costs.fill_payload plat m ~off:0 ~len:cfg.Config.payload ~stream_off:0;
               let m =
                 if cfg.Config.presentation then Pres.encode plat stack.Stack.pool m
                 else m
               in
               Tcp.send sess m
             done))
    done;
    make_tcp_probe stack
      ~app_unique:(fun () ->
        let u = ref 0 in
        for j = 0 to conns - 1 do
          u := !u + Tcp_peer.unique_bytes peer ~port:(5000 + j)
        done;
        !u)
      ~app_bytes:(fun () -> Tcp_peer.bytes_received peer)
      ~app_packets:(fun () -> Tcp_peer.data_segments peer)
      ~peer:(Some peer) ~gates:[] ()
  | Config.Tcp, Config.Recv when cfg.Config.steering <> None ->
    (* Steered receive: a virtual multi-queue NIC (Steer) picks the
       worker per frame instead of the placement feeders.  One shared
       listen port with per-stream source addresses carries the
       connection count past the 16-bit port space. *)
    let policy = Option.get cfg.Config.steering in
    if cfg.Config.offered_mbps <> None then
      invalid_arg "Run.setup: steering models a saturating NIC; unset offered_mbps";
    let stack =
      Stack.create plat ~tcp_config:(tcp_config cfg)
        ?pool_capacity:cfg.Config.pool_capacity ~local_addr:receiver_addr ()
    in
    let listen_port = 4000 in
    let addr_span = 1 lsl 14 (* streams per source address *) in
    let addr_of j = sender_addr + ((j / addr_span) lsl 16) in
    let ports = List.init conns (fun j -> (2000 + (j mod addr_span), listen_port)) in
    let src =
      let jitter =
        cfg.Config.driver_jitter_ns *. (1.0 +. (0.12 *. float_of_int (procs - 1)))
      in
      Tcp_source.attach stack ~peer_addr:sender_addr ~payload:cfg.Config.payload
        ~checksum:cfg.Config.checksum ~jitter_mean_ns:jitter ~addr_of ~ports ()
    in
    let apps = Array.init conns (fun j -> make_app plat j) in
    Tcp.listen stack.Stack.tcp ~local_port:listen_port ~accept:(fun sess ->
        let raddr, rport = Tcp.remote_endpoint sess in
        let j = (((raddr - sender_addr) lsr 16) * addr_span) + (rport - 2000) in
        Tcp.set_receiver sess (fun m -> app_receive cfg plat stack.Stack.pool apps.(j) m));
    (* Handshake in parallel slices: serially opening 10^5 connections
       from one thread would eat whole simulated seconds. *)
    let slice = (conns + procs - 1) / procs in
    for i = 0 to procs - 1 do
      let first = i * slice and last = min conns ((i + 1) * slice) in
      if first < last then
        ignore
          (Sim.spawn plat.Platform.sim ~cpu:i
             ~name:(Printf.sprintf "tcp-handshaker.%d" i)
             (fun () -> Tcp_source.start_range src ~first ~last))
    done;
    let steer = Steer.create plat ~policy ~workers:procs ~conns () in
    let reserve ~conn = Tcp_source.reserve src ~stream:conn in
    for i = 0 to procs - 1 do
      ignore
        (Sim.spawn plat.Platform.sim ~cpu:i ~name:(Printf.sprintf "tcp-recv.%d" i)
           (fun () ->
             while true do
               match Steer.next steer ~worker:i ~reserve with
               | Some r -> Tcp_source.inject src r
               | None -> Sim.delay plat.Platform.sim (Units.us 20.0)
             done))
    done;
    make_tcp_probe stack
      ~app_bytes:(fun () -> Array.fold_left (fun acc a -> acc + a.app_bytes) 0 apps)
      ~app_packets:(fun () -> Array.fold_left (fun acc a -> acc + a.app_packets) 0 apps)
      ~peer:None ~gates:[] ()
  | Config.Tcp, Config.Recv ->
    let stack =
      Stack.create plat ~tcp_config:(tcp_config cfg)
        ?pool_capacity:cfg.Config.pool_capacity ~local_addr:receiver_addr ()
    in
    let ports = List.init conns (fun j -> (2000 + j, 4000 + j)) in
    let src =
      (* Interrupt/DMA service variance grows with the number of CPUs
         hammering the bus; Table 1's MCS column is its footprint. *)
      let jitter =
        cfg.Config.driver_jitter_ns *. (1.0 +. (0.12 *. float_of_int (procs - 1)))
      in
      Tcp_source.attach stack ~peer_addr:sender_addr ~payload:cfg.Config.payload
        ~checksum:cfg.Config.checksum ~jitter_mean_ns:jitter ~ports ()
    in
    let apps = Array.init conns (fun j -> make_app plat j) in
    let gates = ref [] in
    List.iteri
      (fun j (_, rcv_port) ->
        Tcp.listen stack.Stack.tcp ~local_port:rcv_port ~accept:(fun sess ->
            gates := Tcp.ticket_gate sess :: !gates;
            Tcp.set_receiver sess (fun m -> app_receive cfg plat stack.Stack.pool apps.(j) m)))
      ports;
    ignore
      (Sim.spawn plat.Platform.sim ~cpu:0 ~name:"tcp-handshaker" (fun () ->
           Tcp_source.start src));
    let pacing = make_pacing cfg in
    for i = 0 to procs - 1 do
      match make_feeder cfg plat pacing ~worker:i with
      | None -> ()
      | Some feed ->
        ignore
          (Sim.spawn plat.Platform.sim ~cpu:i ~name:(Printf.sprintf "tcp-recv.%d" i)
             (fun () ->
               while true do
                 match feed () with
                 | Now stream ->
                   if not (Tcp_source.next src ~stream) then
                     Sim.delay plat.Platform.sim (Units.us 20.0)
                 | Wait d -> Sim.delay plat.Platform.sim d
               done))
    done;
    make_tcp_probe stack
      ~app_bytes:(fun () -> Array.fold_left (fun acc a -> acc + a.app_bytes) 0 apps)
      ~app_packets:(fun () -> Array.fold_left (fun acc a -> acc + a.app_packets) 0 apps)
      ~peer:None
      ~gates:!gates ()

let run_gen ?(trace = false) ?stall_ns (cfg : Config.t) =
  let plat = make_platform cfg in
  let probe = setup cfg plat in
  let tracer = Sim.tracer plat.Platform.sim in
  let wd =
    match stall_ns with
    | None -> None
    | Some s ->
      Some
        (Watchdog.install plat.Platform.sim ~stall_ns:s
           ~progress:(fun () -> probe.bytes ())
           ())
  in
  let s0 = ref None in
  Sim.at plat.Platform.sim cfg.Config.warmup (fun () ->
      s0 := Some (take probe);
      (* Start tracing at the same instant the warmup snapshot is taken, so
         trace-event totals line up with the aggregate counter deltas over
         the measurement window. *)
      if trace then Trace.enable tracer);
  Sim.run ~until:(cfg.Config.warmup + cfg.Config.measure) plat.Platform.sim;
  (match wd with Some w -> Watchdog.disarm w | None -> ());
  if trace then Trace.disable tracer;
  Hostprof.note_sim_events (Sim.events_processed plat.Platform.sim);
  Hostprof.note_arena_hwm (Mpool.arena_hwm probe.p_pool);
  (* The run just reached its event horizon — quiescence: release surplus
     recycled buffers so a burst in this cell does not pin host memory
     while the next cells run. *)
  Mpool.quiesce probe.p_pool;
  let s0 = match !s0 with Some s -> s | None -> failwith "Run.run: warmup never fired" in
  let s1 = take probe in
  let duration = cfg.Config.measure in
  ( {
      throughput_mbps =
        Units.mbits_per_sec ~bytes_transferred:(s1.s_bytes - s0.s_bytes) ~duration;
      goodput_mbps =
        Units.mbits_per_sec ~bytes_transferred:(s1.s_unique - s0.s_unique) ~duration;
      packets = s1.s_packets - s0.s_packets;
      ooo_pct = percent_between s0.s_ooo s1.s_ooo;
      wire_misorder_pct = percent_between s0.s_wire s1.s_wire;
      pred_miss_pct = percent_between s0.s_pred s1.s_pred;
      rexmit_pct = percent_between s0.s_rexmit s1.s_rexmit;
      lock_wait_pct =
        pct (s1.s_lock_wait - s0.s_lock_wait) (cfg.Config.procs * duration);
      cache_hit_pct = percent_between s0.s_cache s1.s_cache;
      gate_wait_ns = s1.s_gate - s0.s_gate;
      scr_appends =
        (let a1, _, _ = s1.s_scr and a0, _, _ = s0.s_scr in
         a1 - a0);
      scr_replayed =
        (let _, r1, _ = s1.s_scr and _, r0, _ = s0.s_scr in
         r1 - r0);
      scr_resyncs =
        (let _, _, y1 = s1.s_scr and _, _, y0 = s0.s_scr in
         y1 - y0);
      rcu_reads = fst s1.s_rcu - fst s0.s_rcu;
    },
    tracer,
    match wd with None -> [] | Some w -> Watchdog.stalls w )

(* Sweep-cell memo.  A cell is a pure function of its [Config.t] (every
   stochastic choice is seeded from [cfg.seed]), and the figures reuse
   many identical cells — Figure 10's mutex column is Figure 8/9's 4 KB
   checksum-on sweep, Table 1 re-runs Figure 10's configurations for a
   different metric, and so on.  Memoizing on the canonical key makes
   those repeats free without changing a single byte of output: a hit
   returns exactly the value a fresh run would compute.

   The table is shared across Pool worker domains, hence the mutex.  If
   two domains race on the same miss, both compute the (identical)
   result and the first one wins the insert — wasted work, never a wrong
   answer. *)
let memo_enabled = ref true
let memo_lock = Mutex.create ()
let memo : (string, result) Hashtbl.t = Hashtbl.create 256

let set_cell_memo on = memo_enabled := on

let clear_cell_memo () =
  Mutex.protect memo_lock (fun () -> Hashtbl.reset memo)

let cell_memo_size () = Mutex.protect memo_lock (fun () -> Hashtbl.length memo)

let result_of (r, _, _) = r

let run cfg =
  if not !memo_enabled then result_of (run_gen cfg)
  else
    let key = Config.canonical cfg in
    match Mutex.protect memo_lock (fun () -> Hashtbl.find_opt memo key) with
    | Some r ->
        Hostprof.note_cell_hit ();
        r
    | None ->
        Hostprof.note_cell_miss ();
        let r = result_of (run_gen cfg) in
        Mutex.protect memo_lock (fun () ->
            if not (Hashtbl.mem memo key) then Hashtbl.add memo key r);
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
