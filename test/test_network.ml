(* Two complete stacks talking over a simulated link: both ends run the
   full protocol machinery (no simulated peer), with latency, finite
   bandwidth and loss on the wire, and the blocking socket API on top. *)

open Pnp_engine
open Pnp_util
open Pnp_xkern
open Pnp_proto
open Pnp_driver

let addr_a = 0x0a000001
let addr_b = 0x0a000002

let two_hosts ?(latency = Units.us 50.0) ?(bandwidth_mbps = 100.0)
    ?(plan = Pnp_faults.Faults.none) ?(mss = 1024) () =
  let plat = Platform.create ~seed:21 Arch.challenge_100 in
  let cfg = { Tcp.default_config with Tcp.mss } in
  let a = Stack.create plat ~tcp_config:cfg ~local_addr:addr_a () in
  let b = Stack.create plat ~tcp_config:cfg ~local_addr:addr_b () in
  let link = Link.connect plat ~latency ~bandwidth_mbps ~plan ~a ~b () in
  (plat, a, b, link)

let run_to ?(horizon = Units.sec 120.0) plat = Sim.run ~until:horizon plat.Platform.sim

(* ------------------------------------------------------------------ *)

let test_udp_across_link () =
  let plat, a, b, link = two_hosts () in
  let got = ref [] in
  let _ =
    Sim.spawn plat.Platform.sim ~cpu:0 ~name:"host-b" (fun () ->
        ignore
          (Udp.open_session b.Stack.udp ~local_port:9 ~remote_addr:addr_a ~remote_port:9
             ~recv:(fun m ->
               got := Msg.to_string m :: !got;
               Msg.destroy m)))
  in
  let _ =
    Sim.spawn plat.Platform.sim ~cpu:1 ~name:"host-a" (fun () ->
        Sim.delay plat.Platform.sim (Units.us 100.0);
        let sess =
          Udp.open_session a.Stack.udp ~local_port:9 ~remote_addr:addr_b ~remote_port:9
            ~recv:(fun m -> Msg.destroy m)
        in
        Udp.send sess (Msg.of_string a.Stack.pool "across");
        Udp.send sess (Msg.of_string a.Stack.pool "the wire"))
  in
  run_to plat;
  Alcotest.(check (list string)) "datagrams crossed" [ "across"; "the wire" ]
    (List.rev !got);
  Alcotest.(check int) "two frames a->b" 2 (Link.frames_ab link);
  Alcotest.(check int) "none in flight" 0 (Link.in_flight link)

let test_tcp_handshake_and_transfer_across_link () =
  let plat, a, b, _link = two_hosts () in
  let received = Buffer.create 1024 in
  let server_done = ref false in
  let _ =
    Sim.spawn plat.Platform.sim ~cpu:0 ~name:"server" (fun () ->
        let lst = Socket.Listener.listen plat b.Stack.pool b.Stack.tcp ~port:80 in
        let sock = Socket.Listener.accept lst in
        let rec drain () =
          match Socket.recv_string sock with
          | Some s ->
            Buffer.add_string received s;
            drain ()
          | None -> server_done := true
        in
        drain ())
  in
  let _ =
    Sim.spawn plat.Platform.sim ~cpu:1 ~name:"client" (fun () ->
        Sim.delay plat.Platform.sim (Units.ms 1.0);
        let sock =
          Socket.connect plat a.Stack.pool a.Stack.tcp ~local_port:5000
            ~remote_addr:addr_b ~remote_port:80
        in
        Alcotest.(check string) "client established" "ESTABLISHED"
          (Tcp.state_name (Socket.session sock));
        for i = 0 to 9 do
          Socket.send_string sock (Printf.sprintf "chunk-%02d." i)
        done;
        Socket.close sock)
  in
  run_to plat;
  Alcotest.(check bool) "server saw end of stream" true !server_done;
  let expect = String.concat "" (List.init 10 (Printf.sprintf "chunk-%02d.")) in
  Alcotest.(check string) "whole stream, in order" expect (Buffer.contents received)

let test_tcp_echo_roundtrip () =
  let plat, a, b, _ = two_hosts () in
  let echoed = ref None in
  let _ =
    Sim.spawn plat.Platform.sim ~cpu:0 ~name:"echo-server" (fun () ->
        let lst = Socket.Listener.listen plat b.Stack.pool b.Stack.tcp ~port:7 in
        let sock = Socket.Listener.accept lst in
        let rec loop () =
          match Socket.recv_string sock with
          | Some s ->
            Socket.send_string sock s;
            loop ()
          | None -> Socket.close sock
        in
        loop ())
  in
  let _ =
    Sim.spawn plat.Platform.sim ~cpu:1 ~name:"client" (fun () ->
        Sim.delay plat.Platform.sim (Units.ms 1.0);
        let sock =
          Socket.connect plat a.Stack.pool a.Stack.tcp ~local_port:6000
            ~remote_addr:addr_b ~remote_port:7
        in
        Socket.send_string sock "ping over a real network";
        echoed := Socket.recv_string sock;
        Socket.close sock)
  in
  run_to plat;
  Alcotest.(check (option string)) "echo came back" (Some "ping over a real network")
    !echoed

(* The server writes straight after accept, while its SYN-ACK is still
   unacknowledged: the data must wait for the handshake's final ACK and
   then start at stream byte 0. *)
let test_tcp_server_sends_before_final_ack () =
  let plat, a, b, _ = two_hosts () in
  let payload = String.init 16_384 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let received = ref None in
  let _ =
    Sim.spawn plat.Platform.sim ~cpu:0 ~name:"server" (fun () ->
        let lst = Socket.Listener.listen plat b.Stack.pool b.Stack.tcp ~port:80 in
        let sock = Socket.Listener.accept lst in
        Socket.send_string sock payload)
  in
  let _ =
    Sim.spawn plat.Platform.sim ~cpu:1 ~name:"client" (fun () ->
        Sim.delay plat.Platform.sim (Units.ms 1.0);
        let sock =
          Socket.connect plat a.Stack.pool a.Stack.tcp ~local_port:5000
            ~remote_addr:addr_b ~remote_port:80
        in
        received := Socket.recv_exactly sock (String.length payload))
  in
  run_to plat;
  Alcotest.(check bool) "the exact stream" true (!received = Some payload)

let test_tcp_recovers_from_link_loss () =
  let plat, a, b, link = two_hosts ~plan:(Pnp_faults.Faults.bernoulli 0.08) () in
  let received = Buffer.create 4096 in
  let got_eof = ref false in
  let _ =
    Sim.spawn plat.Platform.sim ~cpu:0 ~name:"server" (fun () ->
        let lst = Socket.Listener.listen plat b.Stack.pool b.Stack.tcp ~port:80 in
        let sock = Socket.Listener.accept lst in
        let rec drain () =
          match Socket.recv_string sock with
          | Some s ->
            Buffer.add_string received s;
            drain ()
          | None -> got_eof := true
        in
        drain ())
  in
  let payload = String.init 20_000 (fun i -> Char.chr (32 + (i mod 95))) in
  let _ =
    Sim.spawn plat.Platform.sim ~cpu:1 ~name:"client" (fun () ->
        Sim.delay plat.Platform.sim (Units.ms 1.0);
        let sock =
          Socket.connect plat a.Stack.pool a.Stack.tcp ~local_port:5000
            ~remote_addr:addr_b ~remote_port:80
        in
        (* Send in 1000-byte application writes. *)
        String.iteri (fun _ _ -> ()) "";
        let n = String.length payload in
        let rec send_from off =
          if off < n then begin
            let len = min 1000 (n - off) in
            Socket.send_string sock (String.sub payload off len);
            send_from (off + len)
          end
        in
        send_from 0;
        Socket.close sock)
  in
  run_to ~horizon:(Units.sec 300.0) plat;
  Alcotest.(check bool) "the lossy link really dropped frames" true (Link.dropped link > 0);
  Alcotest.(check bool) "stream completed (eof)" true !got_eof;
  Alcotest.(check string) "every byte arrived in order" payload (Buffer.contents received)

let test_latency_reflected_in_rtt () =
  (* Connect across two different latencies; the higher-latency handshake
     completes later. *)
  let complete_at latency =
    let plat, a, b, _ = two_hosts ~latency () in
    let t = ref 0 in
    let _ =
      Sim.spawn plat.Platform.sim ~cpu:0 ~name:"server" (fun () ->
          Tcp.listen b.Stack.tcp ~local_port:80 ~accept:(fun sess ->
              Tcp.set_receiver sess (fun m -> Msg.destroy m)))
    in
    let _ =
      Sim.spawn plat.Platform.sim ~cpu:1 ~name:"client" (fun () ->
          Sim.delay plat.Platform.sim (Units.us 100.0);
          let _sock =
            Tcp.connect a.Stack.tcp ~local_port:5000 ~remote_addr:addr_b ~remote_port:80
          in
          t := Sim.now plat.Platform.sim)
    in
    run_to plat;
    !t
  in
  let fast = complete_at (Units.us 20.0) in
  let slow = complete_at (Units.ms 5.0) in
  Alcotest.(check bool)
    (Printf.sprintf "5ms link connects later (%d vs %d ns)" slow fast)
    true
    (slow > fast + (2 * Units.ms 4.0))

let test_bandwidth_serialisation () =
  (* At 10 Mbit/s a 4-KB frame takes ~3.3 ms to serialise; a burst of 10
     cannot arrive faster than ~33 ms. *)
  let plat, a, b, _ = two_hosts ~bandwidth_mbps:10.0 ~latency:(Units.us 1.0) () in
  let last_arrival = ref 0 and count = ref 0 in
  let _ =
    Sim.spawn plat.Platform.sim ~cpu:0 ~name:"sink" (fun () ->
        ignore
          (Udp.open_session b.Stack.udp ~local_port:9 ~remote_addr:addr_a ~remote_port:9
             ~recv:(fun m ->
               incr count;
               last_arrival := Sim.now plat.Platform.sim;
               Msg.destroy m)))
  in
  let _ =
    Sim.spawn plat.Platform.sim ~cpu:1 ~name:"burst" (fun () ->
        let sess =
          Udp.open_session a.Stack.udp ~local_port:9 ~remote_addr:addr_b ~remote_port:9
            ~recv:(fun m -> Msg.destroy m)
        in
        for _ = 1 to 10 do
          let m = Msg.create a.Stack.pool 4096 in
          Msg.fill_pattern m ~off:0 ~len:4096 ~stream_off:0;
          Udp.send sess m
        done)
  in
  run_to plat;
  Alcotest.(check int) "all arrived" 10 !count;
  Alcotest.(check bool)
    (Printf.sprintf "serialised burst took %.1fms" (float_of_int !last_arrival /. 1e6))
    true
    (!last_arrival > Units.ms 30.0)

let test_socket_recv_exactly () =
  let plat, a, b, _ = two_hosts () in
  let first = ref None and second = ref None in
  let _ =
    Sim.spawn plat.Platform.sim ~cpu:0 ~name:"server" (fun () ->
        let lst = Socket.Listener.listen plat b.Stack.pool b.Stack.tcp ~port:80 in
        let sock = Socket.Listener.accept lst in
        first := Socket.recv_exactly sock 5;
        second := Socket.recv_exactly sock 6)
  in
  let _ =
    Sim.spawn plat.Platform.sim ~cpu:1 ~name:"client" (fun () ->
        Sim.delay plat.Platform.sim (Units.ms 1.0);
        let sock =
          Socket.connect plat a.Stack.pool a.Stack.tcp ~local_port:5000
            ~remote_addr:addr_b ~remote_port:80
        in
        (* One write; the reader splits it at its own boundaries. *)
        Socket.send_string sock "helloworld!";
        Socket.close sock)
  in
  run_to plat;
  Alcotest.(check (option string)) "first five" (Some "hello") !first;
  Alcotest.(check (option string)) "next six" (Some "world!") !second

(* ------------------------------------------------------------------ *)
(* ICMP echo                                                           *)
(* ------------------------------------------------------------------ *)

let test_ping_across_link () =
  let plat, a, _b, _ = two_hosts ~latency:(Units.us 300.0) () in
  let rtts = ref [] in
  let _ =
    Sim.spawn plat.Platform.sim ~cpu:0 ~name:"pinger" (fun () ->
        for seq = 1 to 5 do
          Icmp.ping a.Stack.icmp ~dst:addr_b ~ident:1 ~seq
            ~on_reply:(fun ~rtt_ns -> rtts := rtt_ns :: !rtts)
            ();
          Sim.delay plat.Platform.sim (Units.ms 2.0)
        done)
  in
  run_to plat;
  Alcotest.(check int) "all replies" 5 (List.length !rtts);
  List.iter
    (fun rtt ->
      (* at least two propagation delays, and well under 10 ms *)
      Alcotest.(check bool)
        (Printf.sprintf "rtt %dns sane" rtt)
        true
        (rtt >= 2 * Units.us 300.0 && rtt < Units.ms 10.0))
    !rtts;
  Alcotest.(check int) "no bad replies" 0 (Icmp.bad_replies a.Stack.icmp)

let test_ping_rtt_tracks_latency () =
  let rtt_at latency =
    let plat, a, _b, _ = two_hosts ~latency () in
    let rtt = ref 0 in
    let _ =
      Sim.spawn plat.Platform.sim ~cpu:0 ~name:"pinger" (fun () ->
          Icmp.ping a.Stack.icmp ~dst:addr_b ~ident:2 ~seq:1
            ~on_reply:(fun ~rtt_ns -> rtt := rtt_ns)
            ())
    in
    run_to plat;
    !rtt
  in
  let fast = rtt_at (Units.us 50.0) in
  let slow = rtt_at (Units.ms 2.0) in
  Alcotest.(check bool)
    (Printf.sprintf "rtt grows with latency (%d vs %d)" slow fast)
    true
    (slow - fast > 2 * (Units.ms 2.0 - Units.us 50.0) - Units.us 100.0)

let test_unanswered_ping_times_out_silently () =
  (* Ping an address nobody owns: no reply, no crash, pending entry
     stays (no timeout machinery is claimed for ICMP). *)
  let plat, a, _b, _ = two_hosts () in
  let got = ref 0 in
  let _ =
    Sim.spawn plat.Platform.sim ~cpu:0 ~name:"pinger" (fun () ->
        Icmp.ping a.Stack.icmp ~dst:0x0a0000ff ~ident:3 ~seq:1
          ~on_reply:(fun ~rtt_ns:_ -> incr got)
          ())
  in
  run_to plat;
  Alcotest.(check int) "no reply" 0 !got;
  Alcotest.(check int) "request counted" 1 (Icmp.requests_sent a.Stack.icmp)

(* Every state access checks its discipline's declared guard while
   tracing is on.  This world reaches each state class and the sites
   the measured scenarios never do: both ends close, so each end builds
   a FIN and takes the peer's FIN in order, and [b] advertises a zero
   window, so [a]'s bytes cross only as persist-timer window probes.
   The reordering link puts [b]'s data through [a]'s reassembly queue.
   A guard violation raises out of [Sim.run]. *)
let test_guarded_accesses locking () =
  let plat = Platform.create ~seed:21 Arch.challenge_100 in
  let tracer = Sim.tracer plat.Platform.sim in
  Trace.enable tracer;
  let cfg = { Tcp.default_config with Tcp.locking; mss = 1024 } in
  let a = Stack.create plat ~tcp_config:cfg ~local_addr:addr_a () in
  let b = Stack.create plat ~tcp_config:{ cfg with Tcp.rcv_wnd = 0 } ~local_addr:addr_b () in
  let plan = Pnp_faults.Faults.plan [ Reorder { p = 0.3; hold_ns = Units.us 400.0 } ] in
  let _link = Link.connect plat ~plan ~a ~b () in
  let data = String.init (16 * 1024) (fun i -> Char.chr (i land 0xff)) in
  let drain sock =
    let got = Buffer.create 1024 in
    let rec go () =
      match Socket.recv_string sock with
      | Some s ->
        Buffer.add_string got s;
        go ()
      | None -> Buffer.contents got
    in
    go ()
  in
  let at_a = ref "" and at_b = ref "" and probes = ref 0 and b_closed = ref false in
  let _ =
    Sim.spawn plat.Platform.sim ~cpu:0 ~name:"server" (fun () ->
        let lst = Socket.Listener.listen plat b.Stack.pool b.Stack.tcp ~port:80 in
        let sock = Socket.Listener.accept lst in
        at_b := Option.value ~default:"" (Socket.recv_exactly sock 3);
        Socket.send_string sock data;
        Socket.close sock;
        Alcotest.(check string) "nothing after a's probes" "" (drain sock);
        b_closed := true)
  in
  let _ =
    Sim.spawn plat.Platform.sim ~cpu:1 ~name:"client" (fun () ->
        Sim.delay plat.Platform.sim (Units.ms 1.0);
        let sock =
          Socket.connect plat a.Stack.pool a.Stack.tcp ~local_port:5000 ~remote_addr:addr_b
            ~remote_port:80
        in
        Socket.send_string sock "abc";
        at_a := drain sock;
        Socket.close sock;
        probes := (Tcp.stats (Socket.session sock)).Tcp.persist_probes)
  in
  run_to plat;
  Alcotest.(check bool) "window probes sent" true (!probes >= 3);
  Alcotest.(check bool) "b's stream in order" true (!at_a = data);
  Alcotest.(check string) "a's stream, probed through a zero window" "abc" !at_b;
  Alcotest.(check bool) "b saw a's FIN" true !b_closed;
  let classes = Hashtbl.create 4 in
  Trace.iter tracer (fun r ->
      match r.Trace.ev with
      | Trace.Access { state; _ } ->
        let k = String.rindex state '#' in
        Hashtbl.replace classes (String.sub state k (String.length state - k)) ()
      | _ -> ());
  List.iter
    (fun c -> Alcotest.(check bool) (c ^ " accessed") true (Hashtbl.mem classes c))
    [ "#snd"; "#rcv"; "#reass"; "#sb" ]

let suites =
  [
    ( "network.two-hosts",
      [
        Alcotest.test_case "UDP across the link" `Quick test_udp_across_link;
        Alcotest.test_case "TCP handshake + transfer" `Quick
          test_tcp_handshake_and_transfer_across_link;
        Alcotest.test_case "TCP echo roundtrip" `Quick test_tcp_echo_roundtrip;
        Alcotest.test_case "TCP server sends before the final ACK" `Quick
          test_tcp_server_sends_before_final_ack;
        Alcotest.test_case "TCP recovers from link loss" `Quick
          test_tcp_recovers_from_link_loss;
        Alcotest.test_case "latency reflected in connect time" `Quick
          test_latency_reflected_in_rtt;
        Alcotest.test_case "bandwidth serialisation" `Quick test_bandwidth_serialisation;
        Alcotest.test_case "socket recv_exactly" `Quick test_socket_recv_exactly;
      ] );
    ( "network.guards",
      List.map
        (fun (name, locking) ->
          Alcotest.test_case (name ^ " accesses hold their guards") `Quick
            (test_guarded_accesses locking))
        [
          ("TCP-1", Tcp.One);
          ("TCP-2", Tcp.Two);
          ("TCP-6", Tcp.Six);
          ("SCR", Tcp.Scr);
          ("RCU", Tcp.Rcu);
        ] );
    ( "network.icmp",
      [
        Alcotest.test_case "ping across the link" `Quick test_ping_across_link;
        Alcotest.test_case "rtt tracks latency" `Quick test_ping_rtt_tracks_latency;
        Alcotest.test_case "unanswered ping is silent" `Quick
          test_unanswered_ping_times_out_silently;
      ] );
  ]
