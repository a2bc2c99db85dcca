open Pnp_engine
open Pnp_util
open Pnp_xkern
open Pnp_proto
open Pnp_driver
open Pnp_faults
open Pnp_analysis

let addr_a = 0x0a000001
let addr_b = 0x0a000002

type outcome = {
  plan_name : string;
  disc : Lock.discipline;
  locking : Tcp.locking;
  bytes : int;
  tcp_done_ns : int;
  tcp_rexmits : int;
  tcp_link : Link.fault_stats;
  udp_link : Link.fault_stats;
  udp : Recovery.udp_account;
  corruption : Recovery.corruption;
  findings : Finding.t list;
}

(* ------------------------------------------------------------------ *)
(* TCP world: a full blocking-socket transfer over the faulted link     *)
(* ------------------------------------------------------------------ *)

let tcp_world ~plan ~disc ~tcp_locking ~seed ~bytes ~horizon =
  let plat = Platform.create ~seed ~lock_disc:disc Arch.challenge_100 in
  let cfg = { Tcp.default_config with Tcp.mss = 1024; locking = tcp_locking } in
  let a = Stack.create plat ~tcp_config:cfg ~local_addr:addr_a () in
  let b = Stack.create plat ~tcp_config:cfg ~local_addr:addr_b () in
  (* Slow the wire down (40 Mbit/s, 200 us) so a default transfer spans
     the plans' burst and blackout windows instead of finishing first. *)
  let link =
    Link.connect plat ~bandwidth_mbps:40.0 ~latency:(Units.us 200.0) ~plan ~a ~b ()
  in
  let payload = Overload.golden ~seed ~flow:0 ~bytes in
  let received_bytes = ref 0 in
  let received_digest = ref (Recovery.digest "") in
  let got_eof = ref false in
  let eof_at = ref (-1) in
  let established = ref false in
  let sent_all = ref false in
  let _ =
    Sim.spawn plat.Platform.sim ~cpu:0 ~name:"chaos-server" (fun () ->
        let lst = Socket.Listener.listen plat b.Stack.pool b.Stack.tcp ~port:80 in
        let sock = Socket.Listener.accept lst in
        let rec drain () =
          match Socket.recv_string sock with
          | Some s ->
            received_bytes := !received_bytes + String.length s;
            received_digest :=
              Recovery.digest_add !received_digest (Buf.of_string s) 0
                (String.length s);
            drain ()
          | None ->
            got_eof := true;
            eof_at := Sim.now plat.Platform.sim
        in
        drain ())
  in
  let _ =
    Sim.spawn plat.Platform.sim ~cpu:1 ~name:"chaos-client" (fun () ->
        Sim.delay plat.Platform.sim (Units.ms 1.0);
        let sock =
          Socket.connect plat a.Stack.pool a.Stack.tcp ~local_port:5000
            ~remote_addr:addr_b ~remote_port:80
        in
        established := true;
        Overload.send_chunked sock payload;
        sent_all := true;
        Socket.close sock)
  in
  Sim.run ~until:horizon plat.Platform.sim;
  Hostprof.note_sim_events (Sim.events_processed plat.Platform.sim);
  let rexmits =
    List.fold_left (fun acc s -> acc + (Tcp.stats s).Tcp.rexmits) 0 (Tcp.sessions a.Stack.tcp)
  in
  let stream =
    {
      Recovery.label = "tcp";
      sent_bytes = String.length payload;
      received_bytes = !received_bytes;
      sent_digest = Recovery.digest payload;
      received_digest = !received_digest;
      established = !established;
      drained = !sent_all && !got_eof && Link.in_flight link = 0;
      rexmits;
    }
  in
  (stream, Link.fault_stats link, Overload.caught_checksums a b, !eof_at)

(* ------------------------------------------------------------------ *)
(* UDP world: paced datagrams whose fate must balance exactly           *)
(* ------------------------------------------------------------------ *)

let udp_world ~plan ~disc ~seed ~datagrams ~horizon =
  let plat = Platform.create ~seed:(seed + 7919) ~lock_disc:disc Arch.challenge_100 in
  let a = Stack.create plat ~local_addr:addr_a () in
  let b = Stack.create plat ~local_addr:addr_b () in
  let link = Link.connect plat ~plan ~a ~b () in
  let delivered = ref 0 in
  let _ =
    Sim.spawn plat.Platform.sim ~cpu:0 ~name:"chaos-udp-recv" (fun () ->
        ignore
          (Udp.open_session b.Stack.udp ~local_port:9 ~remote_addr:addr_a ~remote_port:9
             ~recv:(fun m ->
               incr delivered;
               Msg.destroy m)))
  in
  let _ =
    Sim.spawn plat.Platform.sim ~cpu:1 ~name:"chaos-udp-send" (fun () ->
        let sess =
          Udp.open_session a.Stack.udp ~local_port:9 ~remote_addr:addr_b ~remote_port:9
            ~recv:(fun m -> Msg.destroy m)
        in
        let body = Overload.golden ~seed ~flow:0 ~bytes:512 in
        for _ = 1 to datagrams do
          Udp.send sess (Msg.of_string a.Stack.pool body);
          Sim.delay plat.Platform.sim (Units.us 200.0)
        done)
  in
  Sim.run ~until:horizon plat.Platform.sim;
  Hostprof.note_sim_events (Sim.events_processed plat.Platform.sim);
  let fs = Link.fault_stats link in
  let dropped_proto =
    Fddi.frames_dropped b.Stack.fddi + Ip.datagrams_dropped b.Stack.ip
    + Udp.datagrams_dropped b.Stack.udp
  in
  let account =
    {
      Recovery.injected = fs.Link.offered;
      duplicated = fs.Link.duplicated;
      delivered = !delivered;
      dropped_link = fs.Link.dropped;
      dropped_proto;
      dropped_pressure = fs.Link.dropped_pool_pressure;
    }
  in
  (account, fs, Overload.caught_checksums a b)

(* ------------------------------------------------------------------ *)
(* Cells and the matrix                                                 *)
(* ------------------------------------------------------------------ *)

let run_cell ?(bytes = 200_000) ?(datagrams = 600) ?(seed = 1)
    ?(tcp_locking = Tcp.One) ~plan ~disc () =
  let horizon = Units.sec 300.0 in
  let stream, tcp_link, tcp_caught, eof_at =
    tcp_world ~plan ~disc ~tcp_locking ~seed ~bytes ~horizon
  in
  let udp, udp_link, udp_caught =
    udp_world ~plan ~disc ~seed ~datagrams ~horizon:(Units.sec 10.0)
  in
  let corruption =
    {
      Recovery.injected = tcp_link.Link.corrupted + udp_link.Link.corrupted;
      caught = tcp_caught + udp_caught;
    }
  in
  let obs =
    {
      Recovery.run =
        Printf.sprintf "chaos/%s/%s/%s" plan.Faults.name (Config.disc_label disc)
          (Config.locking_label tcp_locking);
      streams = [ stream ];
      corruption = Some corruption;
      udp = Some udp;
    }
  in
  {
    plan_name = plan.Faults.name;
    disc;
    locking = tcp_locking;
    bytes;
    tcp_done_ns = eof_at;
    tcp_rexmits = stream.Recovery.rexmits;
    tcp_link;
    udp_link;
    udp;
    corruption;
    findings = Recovery.check obs;
  }

let passed o = o.findings = []

let to_line o =
  let u = o.udp in
  Printf.sprintf
    "%-8s %-6s %-4s tcp: %dB in %.3fs rexmits=%-3d link(off=%d drop=%d corr=%d dup=%d reord=%d) | \
     udp: %d+%d = %d+%d+%d | cksum %d/%d | %s"
    o.plan_name (Config.disc_label o.disc) (Config.locking_label o.locking) o.bytes
    (if o.tcp_done_ns < 0 then -1.0 else float_of_int o.tcp_done_ns /. 1e9)
    o.tcp_rexmits o.tcp_link.Link.offered o.tcp_link.Link.dropped
    o.tcp_link.Link.corrupted o.tcp_link.Link.duplicated o.tcp_link.Link.reordered
    u.Recovery.injected u.Recovery.duplicated u.Recovery.delivered u.Recovery.dropped_link
    u.Recovery.dropped_proto o.corruption.Recovery.caught o.corruption.Recovery.injected
    (if passed o then "PASS" else "FAIL")

(* The matrix's recovery-oracle SCR leg: every plan also runs with the
   log-replay discipline under MCS, so faults (loss, dup, reorder,
   corruption) hit the replay path and the oracle still demands a
   byte-identical drained stream. *)
let matrix ?bytes ?datagrams ?seed ?plan () =
  let plans = match plan with Some p -> [ p ] | None -> List.map snd Faults.builtin in
  let cells =
    List.concat_map
      (fun plan ->
        [
          (plan, Lock.Unfair, Tcp.One);
          (plan, Lock.Fifo, Tcp.One);
          (plan, Lock.Fifo, Tcp.Scr);
        ])
      plans
  in
  Pool.map
    (fun (plan, disc, tcp_locking) ->
      run_cell ?bytes ?datagrams ?seed ~plan ~disc ~tcp_locking ())
    cells
