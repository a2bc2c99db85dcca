open Pnp_engine
open Pnp_util
open Pnp_xkern
open Pnp_proto
open Pnp_driver
open Pnp_faults
open Pnp_analysis

let client_addr = 0x0a000001
let server_addr = 0x0a000002
let server_port = 80
let base_port = 5000

type flow = {
  id : int;
  mutable established : bool;
  mutable completed : bool;
  mutable received : int;
  mutable digest : int;
  mutable start_ns : int;
  mutable done_ns : int;
}

type outcome = {
  scenario : string;
  senders : int;
  bytes_per_flow : int;
  plan_name : string;
  accepted : int;
  completed : int;
  elapsed_ns : int;
  goodput_mbps : float;
  fairness : float;
  completion_ns : (int * int) list;
  drops : Recovery.overload_drops;
  rexmits : int;
  pool_pressure_entries : int;
  stalls : Watchdog.stall list;
  findings : Finding.t list;
}

(* A flow's golden stream: printable (32..126 for any seed, negative
   ones included), deterministic, distinct per flow, so cross-flow
   misdelivery shows up as a digest mismatch rather than passing by
   coincidence.  Byte [i] is [32 + (i + offset) mod 95], so every stream
   is a cut of one cycle of the 95 printable bytes, starting at the
   flow's own offset. *)
let golden_offset ~seed ~flow =
  let r = ((seed * 131) + (flow * 17)) mod 95 in
  if r < 0 then r + 95 else r

(* The cycle, long enough to cut [bytes] bytes at any offset. *)
let golden_cycle bytes = String.init (bytes + 94) (fun i -> Char.unsafe_chr (32 + (i mod 95)))
let cut_golden cycle ~seed ~flow ~bytes = String.sub cycle (golden_offset ~seed ~flow) bytes
let golden ~seed ~flow ~bytes = cut_golden (golden_cycle bytes) ~seed ~flow ~bytes

let send_chunked sock body =
  let n = String.length body in
  let rec send_from off =
    if off < n then begin
      let len = min 1000 (n - off) in
      Socket.send_string sock (String.sub body off len);
      send_from (off + len)
    end
  in
  send_from 0

let caught_checksums (a : Stack.t) (b : Stack.t) =
  Ip.header_failures a.Stack.ip + Ip.header_failures b.Stack.ip
  + Tcp.checksum_failures a.Stack.tcp
  + Tcp.checksum_failures b.Stack.tcp
  + Udp.checksum_failures a.Stack.udp
  + Udp.checksum_failures b.Stack.udp

let max_senders = 8000

(* The stall horizon must exceed TCP's longest legitimate silence: the
   retransmit timer backs off to 64x the RTO ({!set_rexmt_timer}'s BSD
   shift cap), so a lone connection sitting out a ~64 s backoff is live,
   not stalled.  70 s clears that ceiling. *)
let stall_ns = Units.sec 70.0

(* The common world: one client stack and one server stack joined by one
   link — the link {e is} the shared bottleneck, exactly the incast
   topology (N sources funnelling into one receiver port).  [stagger_ns]
   separates flow starts: 0 is the synchronized incast burst (and, with a
   small [syn_backlog], a SYN flood); a positive value paces the joins
   for the steady shared-bottleneck fairness workload. *)
let world ~scenario ~plan ~seed ~senders ~bytes_per_flow ~stagger_ns ~syn_backlog
    ~sb_policy ~pool_capacity ~demux_shards ~lock_disc ~tcp_locking ~bandwidth_mbps
    ~latency ~horizon () =
  if senders < 1 || senders > max_senders then
    invalid_arg "Overload: senders out of range (port space)";
  let plat =
    Platform.create ~seed ~lock_disc ~map_shards:demux_shards Arch.challenge_100
  in
  let sim = plat.Platform.sim in
  let tcp_config =
    {
      Tcp.default_config with
      Tcp.mss = 1024;
      syn_backlog;
      sb_policy;
      locking = tcp_locking;
    }
  in
  let client =
    Stack.create plat ~tcp_config ?pool_capacity ~local_addr:client_addr ()
  in
  let server =
    Stack.create plat ~tcp_config ?pool_capacity ~local_addr:server_addr ()
  in
  let link =
    Link.connect plat ~bandwidth_mbps ~latency ~plan ~a:client ~b:server ()
  in
  let cycle = golden_cycle bytes_per_flow in
  let flows =
    Array.init senders (fun id ->
        {
          id;
          established = false;
          completed = false;
          received = 0;
          digest = Recovery.digest "";
          start_ns = -1;
          done_ns = -1;
        })
  in
  let received_total = ref 0 in
  let completed_total = ref 0 in
  let accepted_total = ref 0 in
  (* Server: pure upcall plumbing, no per-connection threads — 10^3
     concurrent flows cost 10^3 sessions, not 10^3 fibers. *)
  Tcp.listen server.Stack.tcp ~local_port:server_port ~accept:(fun sess ->
      let _, rport = Tcp.remote_endpoint sess in
      let f = flows.(rport - base_port) in
      Tcp.set_receiver sess (fun msg ->
          let n = Msg.length msg in
          let add h node off len = Recovery.digest_add h (Mpool.data node) off len in
          f.digest <- Msg.fold_parts msg add f.digest;
          Msg.destroy msg;
          f.received <- f.received + n;
          received_total := !received_total + n);
      Tcp.set_fin_handler sess (fun () ->
          if (not f.completed) && f.received = bytes_per_flow then begin
            f.completed <- true;
            f.done_ns <- Sim.now sim;
            incr completed_total;
            (* Termination detection: once every flow has delivered its
               whole stream there is nothing left to wait for. *)
            if !completed_total = senders then Sim.stop sim
          end));
  for j = 0 to senders - 1 do
    let f = flows.(j) in
    let body = cut_golden cycle ~seed ~flow:j ~bytes:bytes_per_flow in
    ignore
      (Sim.spawn sim ~cpu:(j mod 8) ~name:(Printf.sprintf "%s.%d" scenario j)
         (fun () ->
           Sim.delay sim (Units.ms 1.0 + (j * stagger_ns));
           f.start_ns <- Sim.now sim;
           let sock =
             Socket.connect plat client.Stack.pool client.Stack.tcp
               ~local_port:(base_port + j) ~remote_addr:server_addr
               ~remote_port:server_port
           in
           f.established <- true;
           incr accepted_total;
           send_chunked sock body;
           Socket.close sock))
  done;
  (* Progress for the watchdog: anything the run can legitimately be
     doing — delivering bytes, finishing handshakes, or shedding load to
     a named cause.  Only a world doing none of these is stalled. *)
  let progress () =
    !received_total + !accepted_total
    + Link.dropped link
    + Link.pressure_drops link
    + Tcp.syn_backlog_drops server.Stack.tcp
    + Tcp.total_sockbuf_drops client.Stack.tcp
    + List.fold_left
        (fun acc s -> acc + (Tcp.stats s).Tcp.rexmits)
        0
        (Tcp.sessions client.Stack.tcp)
  in
  let wd = Watchdog.install sim ~stall_ns ~stop_on_stall:true ~progress () in
  Sim.run ~until:horizon sim;
  Watchdog.disarm wd;
  Hostprof.note_sim_events (Sim.events_processed sim);
  let elapsed_ns = Sim.now sim in
  let drops =
    {
      Recovery.link = Link.dropped link;
      pool_pressure = Link.pressure_drops link;
      syn_backlog =
        Tcp.syn_backlog_drops server.Stack.tcp
        + Tcp.syn_backlog_drops client.Stack.tcp;
      sockbuf_full =
        Tcp.total_sockbuf_drops client.Stack.tcp
        + Tcp.total_sockbuf_drops server.Stack.tcp;
      checksum = caught_checksums client server;
    }
  in
  let oracle_flows =
    Array.to_list
      (Array.map
         (fun f ->
           {
             Recovery.flow = Printf.sprintf "flow/%03d" f.id;
             accepted = f.established;
             completed = f.completed;
             sent_bytes = bytes_per_flow;
             received_bytes = f.received;
             received_digest = f.digest;
             expected_digest =
               (* over-delivery is reported by the oracle's length rule;
                  clamp so the digest here stays well-defined *)
               Recovery.digest
                 (cut_golden cycle ~seed ~flow:f.id ~bytes:(min f.received bytes_per_flow));
           })
         flows)
  in
  let oracle =
    Recovery.check_overload
      { Recovery.scenario; flows = oracle_flows; drops }
  in
  let stall_findings =
    List.map
      (fun s ->
        Finding.v ~checker:"watchdog"
          ~subject:(Printf.sprintf "%s@t=%dns" scenario s.Watchdog.at)
          (Watchdog.describe_stall s))
      (Watchdog.stalls wd)
  in
  let per_flow_received =
    Array.to_list (Array.map (fun f -> float_of_int f.received) flows)
  in
  let completion_ns =
    Array.to_list flows
    |> List.filter_map (fun (f : flow) ->
           if f.completed then Some (f.id, f.done_ns - f.start_ns) else None)
  in
  let rexmits =
    List.fold_left
      (fun acc s -> acc + (Tcp.stats s).Tcp.rexmits)
      0
      (Tcp.sessions client.Stack.tcp)
  in
  {
    scenario;
    senders;
    bytes_per_flow;
    plan_name = Link.plan_name link;
    accepted = !accepted_total;
    completed = !completed_total;
    elapsed_ns;
    goodput_mbps =
      Units.mbits_per_sec ~bytes_transferred:!received_total ~duration:elapsed_ns;
    fairness = Report.jain per_flow_received;
    completion_ns;
    drops;
    rexmits;
    pool_pressure_entries =
      Mpool.pressure_entries client.Stack.pool
      + Mpool.pressure_entries server.Stack.pool;
    stalls = Watchdog.stalls wd;
    findings = Finding.sort (oracle @ stall_findings);
  }

let default_horizon = Units.sec 600.0

let incast ?(plan = Faults.none) ?(senders = 32) ?(bytes_per_flow = 2048) ?(seed = 1)
    ?(sb_policy = Sockbuf.Block) ?pool_capacity ?(lock_disc = Lock.Unfair)
    ?(tcp_locking = Tcp.One) ?(horizon = default_horizon) () =
  world ~scenario:"incast" ~plan ~seed ~senders ~bytes_per_flow ~stagger_ns:0
    ~syn_backlog:16 ~sb_policy ~pool_capacity ~demux_shards:8 ~lock_disc ~tcp_locking
    ~bandwidth_mbps:100.0 ~latency:(Units.us 200.0) ~horizon ()

let shared_bottleneck ?(plan = Faults.none) ?(senders = 8) ?(seed = 1)
    ?(sb_policy = Sockbuf.Block) ?pool_capacity ?(lock_disc = Lock.Unfair)
    ?(tcp_locking = Tcp.One) () =
  world ~scenario:"bottleneck" ~plan ~seed ~senders ~bytes_per_flow:40_000
    ~stagger_ns:(Units.ms 2.0) ~syn_backlog:128 ~sb_policy ~pool_capacity ~demux_shards:1
    ~lock_disc ~tcp_locking ~bandwidth_mbps:40.0 ~latency:(Units.us 200.0)
    ~horizon:default_horizon ()

let completion_ms p o =
  match o.completion_ns with
  | [] -> 0.0
  | cs -> Report.percentile p (List.map (fun (_, ns) -> float_of_int ns /. 1e6) cs)

let passed o = o.findings = []

let to_line o =
  Printf.sprintf
    "%-10s %-10s n=%-4d %5dB/flow  acc=%-4d done=%-4d  good=%7.2f Mb/s  jain=%.3f  \
     drops[link=%d pool=%d syn=%d sb=%d ck=%d]  rexmit=%d  stalls=%d  %s"
    o.scenario o.plan_name o.senders o.bytes_per_flow o.accepted o.completed
    o.goodput_mbps o.fairness o.drops.Recovery.link o.drops.Recovery.pool_pressure
    o.drops.Recovery.syn_backlog o.drops.Recovery.sockbuf_full
    o.drops.Recovery.checksum o.rexmits (List.length o.stalls)
    (if passed o then "PASS" else "FAIL")
