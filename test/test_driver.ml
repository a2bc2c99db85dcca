(* Driver-layer units: frame summaries (sniffer), taps, and link
   accounting. *)

open Pnp_engine
open Pnp_util
open Pnp_xkern
open Pnp_proto
open Pnp_driver

let plat () = Platform.create Arch.challenge_100

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_sniffer_summarises_tcp () =
  let p = plat () in
  let pool = Mpool.create p in
  let payload = Msg.of_string pool "xyz" in
  let frame =
    Frame.build_tcp pool ~src:0x0a000001 ~dst:0x0a000002 ~sport:1234 ~dport:80 ~seq:42
      ~ack:7 ~flags:Tcp_wire.flag_syn_ack ~win:4096 ~payload:(Some payload) ~checksum:true
  in
  let s = Sniffer.summarise frame in
  List.iter
    (fun part -> Alcotest.(check bool) (Printf.sprintf "has %S in %S" part s) true (contains s part))
    [ "TCP"; "10.0.0.1:1234"; "10.0.0.2:80"; "seq=42"; "ack=7"; "len=3"; "[SA]" ];
  Msg.destroy frame

let test_sniffer_summarises_udp () =
  let p = plat () in
  let pool = Mpool.create p in
  let payload = Msg.of_string pool "hello" in
  let frame =
    Frame.build_udp pool ~src:0x0a000001 ~dst:0x0a000002 ~sport:53 ~dport:9999 ~payload
      ~checksum:true
  in
  let s = Sniffer.summarise frame in
  List.iter
    (fun part -> Alcotest.(check bool) (Printf.sprintf "has %S" part) true (contains s part))
    [ "UDP"; "10.0.0.1:53"; "10.0.0.2:9999" ];
  Msg.destroy frame

let test_sniffer_handles_junk () =
  let p = plat () in
  let pool = Mpool.create p in
  let short = Msg.of_string pool "tiny" in
  Alcotest.(check bool) "short frame reported" true
    (contains (Sniffer.summarise short) "short");
  Msg.destroy short

let test_sniffer_with_driver () =
  let p = plat () in
  let stack = Stack.create p ~local_addr:0x0a000001 () in
  let sniffer = Sniffer.attach stack () in
  let _peer =
    Tcp_peer.attach stack ~peer_addr:0x0a000002 ~ack_window:(1 lsl 20) ~checksum:true ()
  in
  let _ =
    Sim.spawn p.Platform.sim ~cpu:0 ~name:"app" (fun () ->
        let sess =
          Tcp.connect stack.Stack.tcp ~local_port:5000 ~remote_addr:0x0a000002
            ~remote_port:80
        in
        let m = Msg.create stack.Stack.pool 1024 in
        Msg.fill_pattern m ~off:0 ~len:1024 ~stream_off:0;
        Tcp.send sess m)
  in
  Sim.run ~until:(Units.sec 2.0) p.Platform.sim;
  let es = Sniffer.entries sniffer in
  Alcotest.(check bool) "entries recorded" true (List.length es >= 4);
  let outs = List.filter (fun e -> e.Sniffer.dir = `Out) es in
  let ins = List.filter (fun e -> e.Sniffer.dir = `In) es in
  Alcotest.(check bool) "both directions" true (outs <> [] && ins <> []);
  let times = List.map (fun e -> e.Sniffer.time_ns) es in
  Alcotest.(check bool) "timestamps non-decreasing" true
    (List.sort compare times = times);
  Alcotest.(check int) "seen counts everything" (List.length es) (Sniffer.seen sniffer);
  Sniffer.clear sniffer;
  Alcotest.(check int) "cleared" 0 (List.length (Sniffer.entries sniffer))

let test_link_accounting () =
  let p = plat () in
  let a = Stack.create p ~local_addr:0x0a000001 () in
  let b = Stack.create p ~local_addr:0x0a000002 () in
  let link = Link.connect p ~latency:(Units.us 10.0) ~a ~b () in
  let _ =
    Sim.spawn p.Platform.sim ~cpu:0 ~name:"rx" (fun () ->
        ignore
          (Udp.open_session b.Stack.udp ~local_port:9 ~remote_addr:0x0a000001
             ~remote_port:9
             ~recv:(fun m -> Msg.destroy m)))
  in
  let _ =
    Sim.spawn p.Platform.sim ~cpu:1 ~name:"tx" (fun () ->
        Sim.delay p.Platform.sim 1000;
        let sess =
          Udp.open_session a.Stack.udp ~local_port:9 ~remote_addr:0x0a000002
            ~remote_port:9
            ~recv:(fun m -> Msg.destroy m)
        in
        for _ = 1 to 5 do
          Udp.send sess (Msg.of_string a.Stack.pool "x")
        done)
  in
  Sim.run ~until:(Units.sec 1.0) p.Platform.sim;
  Alcotest.(check int) "five frames a->b" 5 (Link.frames_ab link);
  Alcotest.(check int) "none b->a" 0 (Link.frames_ba link);
  Alcotest.(check int) "none dropped" 0 (Link.dropped link);
  Alcotest.(check int) "none in flight at quiescence" 0 (Link.in_flight link)

let test_lossy_link_drops () =
  let p = plat () in
  let a = Stack.create p ~local_addr:0x0a000001 () in
  let b = Stack.create p ~local_addr:0x0a000002 () in
  let link = Link.connect p ~loss_rate:0.5 ~a ~b () in
  let got = ref 0 in
  let _ =
    Sim.spawn p.Platform.sim ~cpu:0 ~name:"rx" (fun () ->
        ignore
          (Udp.open_session b.Stack.udp ~local_port:9 ~remote_addr:0x0a000001
             ~remote_port:9
             ~recv:(fun m -> incr got; Msg.destroy m)))
  in
  let _ =
    Sim.spawn p.Platform.sim ~cpu:1 ~name:"tx" (fun () ->
        Sim.delay p.Platform.sim 1000;
        let sess =
          Udp.open_session a.Stack.udp ~local_port:9 ~remote_addr:0x0a000002
            ~remote_port:9
            ~recv:(fun m -> Msg.destroy m)
        in
        for _ = 1 to 100 do
          Udp.send sess (Msg.of_string a.Stack.pool "datagram")
        done)
  in
  Sim.run ~until:(Units.sec 2.0) p.Platform.sim;
  Alcotest.(check int) "drops + deliveries = sent" 100 (!got + Link.dropped link);
  Alcotest.(check bool)
    (Printf.sprintf "roughly half dropped (%d)" (Link.dropped link))
    true
    (Link.dropped link > 25 && Link.dropped link < 75)

(* Every TCP frame the receive-side driver injects — handshake, the
   shared template payload or a per-segment pattern fill — carries a
   checksum that a flat byte scan of the segment verifies, with the
   checksum-sum memo on and off. *)
let test_tcp_source_checksums () =
  let src_addr = 0x0a000001 and dst_addr = 0x0a000002 in
  let run ~sequential_payload ~memo =
    let was = Mpool.sum_cache_enabled () in
    Mpool.set_sum_cache memo;
    Fun.protect ~finally:(fun () -> Mpool.set_sum_cache was) @@ fun () ->
    let p = plat () in
    let stack = Stack.create p ~local_addr:dst_addr () in
    let src =
      Tcp_source.attach stack ~peer_addr:src_addr ~payload:1001 ~checksum:true
        ~sequential_payload ~ports:[ (2000, 4000) ] ()
    in
    let frames = ref 0 and data = ref 0 in
    Fddi.set_tap stack.Stack.fddi (fun ~dir frame ->
        if dir = `In then begin
          let b = Bytes.of_string (Msg.to_string frame) in
          let off = Fddi.header_bytes + Ip.header_bytes in
          let len = Bytes.length b - off in
          let sum =
            Inet_cksum.add (Inet_cksum.sum_bytes b off len)
              (Tcp_wire.pseudo_sum ~src:src_addr ~dst:dst_addr ~len)
          in
          Alcotest.(check int) "segment verifies" 0 (Inet_cksum.finish sum);
          incr frames;
          if len > Tcp_wire.header_bytes then incr data
        end);
    let _ =
      Sim.spawn p.Platform.sim ~cpu:0 ~name:"rx" (fun () ->
          Tcp.listen stack.Stack.tcp ~local_port:4000 ~accept:(fun sess ->
              Tcp.set_receiver sess (fun m -> Msg.destroy m));
          Tcp_source.start src;
          for _ = 1 to 8 do
            ignore (Tcp_source.next src ~stream:0)
          done;
          Tcp_source.finish src ~stream:0)
    in
    Sim.run ~until:(Units.sec 1.0) p.Platform.sim;
    Alcotest.(check int) "eight data segments" 8 !data;
    Alcotest.(check int) "plus SYN, handshake ACK and FIN" 11 !frames
  in
  List.iter
    (fun sequential_payload ->
      List.iter (fun memo -> run ~sequential_payload ~memo) [ true; false ])
    [ false; true ]

(* Streams are keyed by [(addr lsl 16) lor port], so a driver port
   outside 16 bits would alias another stream's key. *)
let test_tcp_source_rejects_wide_port () =
  let stack = Stack.create (plat ()) ~local_addr:0x0a000002 () in
  List.iter
    (fun port ->
      match
        Tcp_source.attach stack ~peer_addr:0x0a000001 ~payload:512 ~checksum:true
          ~ports:[ (port, 4000) ] ()
      with
      | _ -> Alcotest.fail (Printf.sprintf "driver port %d accepted" port)
      | exception Invalid_argument msg ->
        Alcotest.(check bool) "names the range" true (contains msg "0..65535"))
    [ 65536; -1; 1 lsl 20 ]

let suites =
  [
    ( "driver.sniffer",
      [
        Alcotest.test_case "summarises TCP" `Quick test_sniffer_summarises_tcp;
        Alcotest.test_case "summarises UDP" `Quick test_sniffer_summarises_udp;
        Alcotest.test_case "handles junk" `Quick test_sniffer_handles_junk;
        Alcotest.test_case "records both directions" `Quick test_sniffer_with_driver;
      ] );
    ( "driver.link",
      [
        Alcotest.test_case "accounting" `Quick test_link_accounting;
        Alcotest.test_case "lossy link drops" `Quick test_lossy_link_drops;
      ] );
    ( "driver.tcp_source",
      [
        Alcotest.test_case "injected checksums verify" `Quick test_tcp_source_checksums;
        Alcotest.test_case "driver port outside 16 bits rejected" `Quick
          test_tcp_source_rejects_wide_port;
      ] );
  ]
