open Pnp_engine
open Pnp_xkern
open Pnp_proto
open Pnp_driver

let plat ?(lock_disc = Lock.Unfair) () = Platform.create ~lock_disc Arch.challenge_100

let in_sim ?(horizon = Pnp_util.Units.sec 30.0) plat body =
  let result = ref None in
  let _ = Sim.spawn plat.Platform.sim ~name:"test" (fun () -> result := Some (body ())) in
  Sim.run ~until:horizon plat.Platform.sim;
  match !result with Some r -> r | None -> Alcotest.fail "simulated thread did not finish"

(* ------------------------------------------------------------------ *)
(* Internet checksum                                                   *)
(* ------------------------------------------------------------------ *)

let test_cksum_known_vector () =
  (* Classic example: the IP-style words 0x0001 0xf203 0xf4f5 0xf6f7 *)
  let p = plat () in
  let pool = Mpool.create p in
  in_sim p (fun () ->
      let m = Msg.create pool 8 in
      List.iteri (fun i w -> Msg.set_u16 m (2 * i) w) [ 0x0001; 0xf203; 0xf4f5; 0xf6f7 ];
      let ck = Inet_cksum.finish (Inet_cksum.sum_slices m) in
      Alcotest.(check int) "rfc1071 example" 0x220d ck;
      Msg.destroy m)

let test_cksum_odd_length () =
  let p = plat () in
  let pool = Mpool.create p in
  in_sim p (fun () ->
      let m = Msg.of_string pool "abc" in
      (* 0x6162 + 0x6300 = 0xc462 -> complement 0x3b9d *)
      Alcotest.(check int) "odd pad" 0x3b9d (Inet_cksum.finish (Inet_cksum.sum_slices m));
      Msg.destroy m)

let test_cksum_split_equals_whole () =
  (* Sum over a multi-part message equals sum over the flat bytes. *)
  let p = plat () in
  let pool = Mpool.create p in
  in_sim p (fun () ->
      let m = Msg.of_string pool "the quick brown fox" in
      Msg.push m 3;
      Msg.set_u8 m 0 1;
      Msg.set_u8 m 1 2;
      Msg.set_u8 m 2 3;
      let flat = Msg.of_string pool (Msg.to_string m) in
      Alcotest.(check int) "split = flat" (Inet_cksum.sum_slices flat) (Inet_cksum.sum_slices m);
      Msg.destroy m;
      Msg.destroy flat)

let test_cksum_odd_middle_slice () =
  (* An interior slice of odd length flips byte parity for everything after
     it; the summed result must still match the flat byte string. *)
  let p = plat () in
  let pool = Mpool.create p in
  in_sim p (fun () ->
      let m = Msg.of_string pool "ab" in
      let mid = Msg.of_string pool "cde" in
      let tail = Msg.of_string pool "fghi" in
      Msg.append m mid;
      Msg.append m tail;
      Alcotest.(check int) "length" 9 (Msg.length m);
      let flat = Msg.of_string pool "abcdefghi" in
      Alcotest.(check int) "odd middle slice = flat"
        (Inet_cksum.sum_slices flat) (Inet_cksum.sum_slices m);
      Msg.destroy m;
      Msg.destroy mid;
      Msg.destroy tail;
      Msg.destroy flat)

(* The word-at-a-time [sum_bytes] against the byte-wise oracle it
   replaced: every offset parity and every tail length, including
   all-zero and all-ones buffers (the 0 vs 0xffff representatives of the
   same one's-complement class). *)
let test_cksum_word_vs_bytewise_exhaustive () =
  let check b off len =
    Alcotest.(check int)
      (Printf.sprintf "off=%d len=%d" off len)
      (Inet_cksum.sum_bytes_bytewise b off len)
      (Inet_cksum.sum_bytes b off len)
  in
  let mixed = Bytes.init 96 (fun i -> Char.chr ((i * 131 + 17) land 0xff)) in
  let zeros = Bytes.make 96 '\000' in
  let ones = Bytes.make 96 '\xff' in
  List.iter
    (fun b ->
      for off = 0 to 9 do
        for len = 0 to Bytes.length b - off do
          check b off len
        done
      done)
    [ mixed; zeros; ones ]

let prop_cksum_word_vs_bytewise =
  QCheck.Test.make ~name:"sum_bytes agrees with the byte-wise oracle" ~count:300
    QCheck.(pair (list_of_size Gen.(0 -- 90) (0 -- 255)) (0 -- 9))
    (fun (payload, off) ->
      let len = List.length payload in
      let b = Bytes.make (off + len + 3) '\xa5' in
      List.iteri (fun i v -> Bytes.set b (off + i) (Char.chr v)) payload;
      Inet_cksum.sum_bytes b off len = Inet_cksum.sum_bytes_bytewise b off len)

let prop_cksum_verifies =
  QCheck.Test.make ~name:"stored checksum verifies; corruption detected" ~count:60
    QCheck.(string_of_size Gen.(2 -- 300))
    (fun payload ->
      let p = plat () in
      let pool = Mpool.create p in
      in_sim p (fun () ->
          let m = Msg.of_string pool payload in
          Tcp_wire.encode m
            { Tcp_wire.sport = 1; dport = 2; seq = 3; ack = 4;
              flags = Tcp_wire.flag_ack; win = 5; cksum = 0 };
          Tcp_wire.store_checksum_free ~src:0x0a000001 ~dst:0x0a000002 m;
          let ok = Tcp_wire.verify_checksum p ~src:0x0a000001 ~dst:0x0a000002 m in
          (* flip one payload byte *)
          let off = Tcp_wire.header_bytes in
          Msg.set_u8 m off ((Msg.get_u8 m off + 1) land 0xff);
          let bad = Tcp_wire.verify_checksum p ~src:0x0a000001 ~dst:0x0a000002 m in
          Msg.destroy m;
          ok && not bad))

(* ------------------------------------------------------------------ *)
(* Sequence arithmetic                                                 *)
(* ------------------------------------------------------------------ *)

let test_seq_wraparound () =
  let near_top = 0xffffff00 in
  Alcotest.(check int) "add wraps" 0x60 (Tcp_seq.add near_top 0x160);
  Alcotest.(check bool) "lt across wrap" true (Tcp_seq.lt near_top (Tcp_seq.add near_top 10));
  Alcotest.(check bool) "gt across wrap" true (Tcp_seq.gt (Tcp_seq.add near_top 0x200) near_top);
  Alcotest.(check int) "diff across wrap" 0x200 (Tcp_seq.diff (Tcp_seq.add near_top 0x200) near_top)

let prop_seq_diff_add =
  QCheck.Test.make ~name:"seq: diff (add a n) a = n" ~count:500
    QCheck.(pair (int_bound 0xffffff) (int_bound 0xffff))
    (fun (a, n) ->
      let a = Tcp_seq.mask (a * 257) in
      Tcp_seq.diff (Tcp_seq.add a n) a = n)

(* ------------------------------------------------------------------ *)
(* Sockbuf                                                             *)
(* ------------------------------------------------------------------ *)

let test_sockbuf_basic () =
  let p = plat () in
  let pool = Mpool.create p in
  in_sim p (fun () ->
      let sb = Sockbuf.create pool ~max:100 in
      Sockbuf.append sb (Msg.of_string pool "hello ");
      Sockbuf.append sb (Msg.of_string pool "world");
      Alcotest.(check int) "cc" 11 (Sockbuf.cc sb);
      Alcotest.(check int) "space" 89 (Sockbuf.space sb);
      let v = Sockbuf.peek sb ~off:3 ~len:5 in
      Alcotest.(check string) "peek across messages" "lo wo" (Msg.to_string v);
      Msg.destroy v;
      Sockbuf.drop sb 6;
      Alcotest.(check int) "cc after drop" 5 (Sockbuf.cc sb);
      let v2 = Sockbuf.peek sb ~off:0 ~len:5 in
      Alcotest.(check string) "front after drop" "world" (Msg.to_string v2);
      Msg.destroy v2;
      Sockbuf.clear sb;
      Alcotest.(check int) "cleared" 0 (Sockbuf.cc sb);
      Alcotest.(check int) "no leaks" 0 (Mpool.live_nodes pool))

let test_sockbuf_overflow_rejected () =
  let p = plat () in
  let pool = Mpool.create p in
  in_sim p (fun () ->
      let sb = Sockbuf.create pool ~max:4 in
      match Sockbuf.append sb (Msg.of_string pool "12345") with
      | () -> Alcotest.fail "expected overflow rejection"
      | exception Invalid_argument _ -> ())

let prop_sockbuf_stream =
  QCheck.Test.make ~name:"sockbuf preserves the byte stream" ~count:60
    QCheck.(list_of_size Gen.(1 -- 10) (string_of_size Gen.(1 -- 40)))
    (fun chunks ->
      let p = plat () in
      let pool = Mpool.create p in
      in_sim p (fun () ->
          let sb = Sockbuf.create pool ~max:100_000 in
          List.iter (fun c -> Sockbuf.append sb (Msg.of_string pool c)) chunks;
          let whole = String.concat "" chunks in
          let v = Sockbuf.peek sb ~off:0 ~len:(String.length whole) in
          let got = Msg.to_string v in
          Msg.destroy v;
          (* Drop a prefix and re-check. *)
          let d = String.length whole / 2 in
          Sockbuf.drop sb d;
          let rest_len = String.length whole - d in
          let v2 = Sockbuf.peek sb ~off:0 ~len:rest_len in
          let got2 = Msg.to_string v2 in
          Msg.destroy v2;
          got = whole && got2 = String.sub whole d rest_len))

(* ------------------------------------------------------------------ *)
(* Tcp_wire codec                                                      *)
(* ------------------------------------------------------------------ *)

let prop_tcp_wire_roundtrip =
  QCheck.Test.make ~name:"tcp header encode/decode roundtrip" ~count:200
    QCheck.(quad (int_bound 0xffff) (int_bound 0xffff) (int_bound 0xfffffff) (int_bound 31))
    (fun (sport, dport, seq, flagbits) ->
      let p = plat () in
      let pool = Mpool.create p in
      in_sim p (fun () ->
          let flags =
            {
              Tcp_wire.fin = flagbits land 1 <> 0;
              syn = flagbits land 2 <> 0;
              rst = flagbits land 4 <> 0;
              psh = flagbits land 8 <> 0;
              ack = flagbits land 16 <> 0;
            }
          in
          let hdr =
            { Tcp_wire.sport; dport; seq; ack = Tcp_seq.mask (seq * 3); flags;
              win = 123456; cksum = 0 }
          in
          let m = Msg.of_string pool "payload" in
          Tcp_wire.encode m hdr;
          let got = Option.get (Tcp_wire.decode m) in
          Tcp_wire.strip m;
          let ok = got = hdr && Msg.to_string m = "payload" in
          Msg.destroy m;
          ok))

(* ------------------------------------------------------------------ *)
(* FDDI + IP (loopback wiring)                                         *)
(* ------------------------------------------------------------------ *)

let loopback_stack ?(udp_checksum = true) p =
  let stack = Stack.create p ~udp_checksum ~local_addr:0x0a000001 () in
  (* wire transmit straight back into input: talk to ourselves *)
  Fddi.set_transmit stack.Stack.fddi (fun frame -> Fddi.input stack.Stack.fddi frame);
  stack

let test_fddi_roundtrip () =
  let p = plat () in
  let stack = loopback_stack p in
  let got = ref [] in
  in_sim p (fun () ->
      Fddi.register stack.Stack.fddi ~ethertype:0x9999 (fun msg ->
          got := Msg.to_string msg :: !got;
          Msg.destroy msg);
      let m = Msg.of_string stack.Stack.pool "frame payload" in
      Fddi.output stack.Stack.fddi ~ethertype:0x9999 ~dst_mac:0x0a000001 m;
      Alcotest.(check (list string)) "delivered" [ "frame payload" ] !got;
      Alcotest.(check int) "counted out" 1 (Fddi.frames_out stack.Stack.fddi))

let test_fddi_unknown_type_dropped () =
  let p = plat () in
  let stack = loopback_stack p in
  in_sim p (fun () ->
      let m = Msg.of_string stack.Stack.pool "payload" in
      Fddi.output stack.Stack.fddi ~ethertype:0x7777 ~dst_mac:0x0a000001 m;
      Alcotest.(check int) "dropped" 1 (Fddi.frames_dropped stack.Stack.fddi))

let test_fddi_mtu_enforced () =
  let p = plat () in
  let stack = loopback_stack p in
  in_sim p (fun () ->
      let m = Msg.create stack.Stack.pool (Fddi.mtu + 1) in
      match Fddi.output stack.Stack.fddi ~ethertype:1 ~dst_mac:2 m with
      | () -> Alcotest.fail "expected MTU rejection"
      | exception Invalid_argument _ -> Msg.destroy m)

let test_ip_roundtrip_small () =
  let p = plat () in
  let stack = loopback_stack p in
  let got = ref [] in
  in_sim p (fun () ->
      Ip.register stack.Stack.ip ~proto:99 (fun ~src ~dst msg ->
          Alcotest.(check int) "src" 0x0a000001 src;
          Alcotest.(check int) "dst" 0x0a000001 dst;
          got := Msg.to_string msg :: !got;
          Msg.destroy msg);
      let m = Msg.of_string stack.Stack.pool "datagram" in
      Ip.output stack.Stack.ip ~proto:99 ~dst:0x0a000001 m;
      Alcotest.(check (list string)) "delivered" [ "datagram" ] !got;
      Alcotest.(check int) "no fragmentation" 0 (Ip.fragments_out stack.Stack.ip))

let test_ip_fragmentation_roundtrip () =
  let p = plat () in
  let stack = loopback_stack p in
  let got = ref [] in
  in_sim p (fun () ->
      Ip.register stack.Stack.ip ~proto:99 (fun ~src:_ ~dst:_ msg ->
          got := Msg.to_string msg :: !got;
          Msg.destroy msg);
      (* 3x the per-fragment payload: must split and reassemble *)
      let n = 10_000 in
      let m = Msg.create stack.Stack.pool n in
      Msg.fill_pattern m ~off:0 ~len:n ~stream_off:7;
      let reference = Msg.to_string m in
      Ip.output stack.Stack.ip ~proto:99 ~dst:0x0a000001 m;
      Alcotest.(check bool) "fragmented" true (Ip.fragments_out stack.Stack.ip >= 3);
      Alcotest.(check int) "one reassembly" 1 (Ip.reassemblies stack.Stack.ip);
      match !got with
      | [ s ] -> Alcotest.(check bool) "bytes identical" true (String.equal s reference)
      | l -> Alcotest.failf "expected 1 datagram, got %d" (List.length l))

let test_ip_bad_header_checksum_dropped () =
  let p = plat () in
  let stack = loopback_stack p in
  let got = ref 0 in
  in_sim p (fun () ->
      Ip.register stack.Stack.ip ~proto:99 (fun ~src:_ ~dst:_ msg ->
          incr got;
          Msg.destroy msg);
      let m = Msg.of_string stack.Stack.pool "x" in
      Ip.encap m ~src:1 ~dst:2 ~proto:99 ~id:5;
      (* corrupt the header *)
      Msg.set_u8 m 8 ((Msg.get_u8 m 8 + 1) land 0xff);
      Fddi.encap m ~src_mac:1 ~dst_mac:2 ~ethertype:Ip.ethertype;
      Fddi.input stack.Stack.fddi m;
      Alcotest.(check int) "not delivered" 0 !got;
      Alcotest.(check bool) "counted dropped" true (Ip.datagrams_dropped stack.Stack.ip > 0))

(* ------------------------------------------------------------------ *)
(* UDP end-to-end (loopback)                                           *)
(* ------------------------------------------------------------------ *)

let test_udp_roundtrip cksum () =
  let p = plat () in
  let stack = loopback_stack ~udp_checksum:cksum p in
  let got = ref [] in
  in_sim p (fun () ->
      let recv sess_msg =
        got := Msg.to_string sess_msg :: !got;
        Msg.destroy sess_msg
      in
      let sess =
        Udp.open_session stack.Stack.udp ~local_port:7 ~remote_addr:0x0a000001
          ~remote_port:7 ~recv
      in
      Udp.send sess (Msg.of_string stack.Stack.pool "ping");
      Udp.send sess (Msg.of_string stack.Stack.pool "pong");
      Alcotest.(check (list string)) "delivered in order" [ "ping"; "pong" ] (List.rev !got);
      Alcotest.(check int) "no drops" 0 (Udp.datagrams_dropped stack.Stack.udp))

let test_udp_bad_checksum_dropped () =
  let p = plat () in
  let stack = loopback_stack ~udp_checksum:true p in
  let got = ref 0 in
  in_sim p (fun () ->
      let _sess =
        Udp.open_session stack.Stack.udp ~local_port:9 ~remote_addr:0x0a000001
          ~remote_port:9
          ~recv:(fun m -> incr got; Msg.destroy m)
      in
      (* Hand-build a datagram with a corrupted checksum. *)
      let m = Msg.of_string stack.Stack.pool "corrupt me" in
      Udp.encap_free m ~src:0x0a000001 ~dst:0x0a000001 ~sport:9 ~dport:9 ~checksum:true;
      Msg.set_u16 m 6 (Msg.get_u16 m 6 lxor 0x5555);
      Ip.encap m ~src:0x0a000001 ~dst:0x0a000001 ~proto:Udp.protocol_number ~id:1;
      Fddi.encap m ~src_mac:1 ~dst_mac:1 ~ethertype:Ip.ethertype;
      Fddi.input stack.Stack.fddi m;
      Alcotest.(check int) "not delivered" 0 !got;
      Alcotest.(check int) "checksum failure counted" 1
        (Udp.checksum_failures stack.Stack.udp))

let test_udp_unbound_port_dropped () =
  let p = plat () in
  let stack = loopback_stack p in
  in_sim p (fun () ->
      let m = Msg.of_string stack.Stack.pool "nobody home" in
      Udp.encap_free m ~src:0x0a000001 ~dst:0x0a000001 ~sport:5 ~dport:4242 ~checksum:true;
      Ip.encap m ~src:0x0a000001 ~dst:0x0a000001 ~proto:Udp.protocol_number ~id:1;
      Fddi.encap m ~src_mac:1 ~dst_mac:1 ~ethertype:Ip.ethertype;
      Fddi.input stack.Stack.fddi m;
      Alcotest.(check bool) "dropped" true (Udp.datagrams_dropped stack.Stack.udp > 0))

let test_udp_source_sink_drivers () =
  (* The receive-side driver injects template datagrams that the real UDP
     demultiplexes to the session. *)
  let p = plat () in
  let stack = Stack.create p ~udp_checksum:true ~local_addr:0x0a000002 () in
  let received = ref 0 and bytes = ref 0 in
  let src =
    Udp_source.attach stack ~peer_addr:0x0a000001 ~payload:1024 ~checksum:true
      ~ports:[ (2000, 4000) ] ()
  in
  in_sim p (fun () ->
      let _sess =
        Udp.open_session stack.Stack.udp ~local_port:4000 ~remote_addr:0x0a000001
          ~remote_port:2000
          ~recv:(fun m ->
            incr received;
            bytes := !bytes + Msg.length m;
            Alcotest.(check bool) "payload pattern intact" true
              (Msg.check_pattern m ~off:0 ~len:(Msg.length m) ~stream_off:0);
            Msg.destroy m)
      in
      for _ = 1 to 50 do
        Udp_source.next src ~stream:0
      done);
  Alcotest.(check int) "all delivered" 50 !received;
  Alcotest.(check int) "all bytes" (50 * 1024) !bytes;
  Alcotest.(check int) "injected counted" 50 (Udp_source.frames_injected src)

(* ------------------------------------------------------------------ *)
(* TCP end-to-end                                                      *)
(* ------------------------------------------------------------------ *)

let tcp_cfg ?(locking = Tcp.One) ?(checksum = true) ?(mss = 1024) () =
  { Tcp.default_config with locking; checksum; mss }

(* Send-side: a real TCP sender over the simulated receiver driver. *)
let send_side_env ?(locking = Tcp.One) ?(checksum = true) ?loss_rate () =
  let p = plat () in
  let stack =
    Stack.create p ~tcp_config:(tcp_cfg ~locking ~checksum ()) ~local_addr:0x0a000001 ()
  in
  let peer = Tcp_peer.attach stack ~peer_addr:0x0a000002 ~checksum ?loss_rate () in
  (p, stack, peer)

let test_tcp_connect_establishes locking () =
  let p, stack, peer = send_side_env ~locking () in
  in_sim p (fun () ->
      let sess =
        Tcp.connect stack.Stack.tcp ~local_port:5000 ~remote_addr:0x0a000002
          ~remote_port:80
      in
      Alcotest.(check string) "established" "ESTABLISHED" (Tcp.state_name sess);
      Alcotest.(check bool) "peer saw handshake" true
        (Tcp_peer.stream_established peer ~port:5000))

let test_tcp_send_delivers locking () =
  let p, stack, peer = send_side_env ~locking () in
  in_sim p (fun () ->
      let sess =
        Tcp.connect stack.Stack.tcp ~local_port:5000 ~remote_addr:0x0a000002
          ~remote_port:80
      in
      for i = 0 to 9 do
        let m = Msg.create stack.Stack.pool 1024 in
        Msg.fill_pattern m ~off:0 ~len:1024 ~stream_off:(i * 1024);
        Tcp.send sess m
      done;
      (* Everything fits in the window, so it is all on the wire already. *)
      Alcotest.(check int) "driver consumed all bytes" (10 * 1024)
        (Tcp_peer.unique_bytes peer ~port:5000);
      let st = Tcp.stats sess in
      (* 12 = SYN + handshake ack + 10 data segments *)
      Alcotest.(check int) "segments out incl. handshake" 12 st.Tcp.segs_out;
      Alcotest.(check int) "driver saw 10 data segments" 10 (Tcp_peer.data_segments peer);
      Alcotest.(check bool) "acks came back" true (st.Tcp.acks_in > 0));
  ()

let test_tcp_send_acks_every_other () =
  let p, stack, peer = send_side_env () in
  in_sim p (fun () ->
      let sess =
        Tcp.connect stack.Stack.tcp ~local_port:5000 ~remote_addr:0x0a000002
          ~remote_port:80
      in
      for i = 0 to 19 do
        let m = Msg.create stack.Stack.pool 1024 in
        Msg.fill_pattern m ~off:0 ~len:1024 ~stream_off:(i * 1024);
        Tcp.send sess m
      done;
      ignore sess;
      (* 20 data segments: 1 immediate first-data ack + ~every other *)
      let acks = Tcp_peer.acks_sent peer in
      Alcotest.(check bool)
        (Printf.sprintf "ack count plausible (%d)" acks)
        true
        (acks >= 10 && acks <= 12))

let test_tcp_retransmission_on_loss () =
  let p, stack, peer = send_side_env ~loss_rate:0.2 () in
  in_sim ~horizon:(Pnp_util.Units.sec 90.0) p (fun () ->
      let sess =
        Tcp.connect stack.Stack.tcp ~local_port:5000 ~remote_addr:0x0a000002
          ~remote_port:80
      in
      for i = 0 to 29 do
        let m = Msg.create stack.Stack.pool 1024 in
        Msg.fill_pattern m ~off:0 ~len:1024 ~stream_off:(i * 1024);
        Tcp.send sess m
      done;
      (* Let the retransmission machinery recover all the losses. *)
      Sim.delay p.Platform.sim (Pnp_util.Units.sec 80.0);
      Alcotest.(check int) "all bytes eventually delivered" (30 * 1024)
        (Tcp_peer.unique_bytes peer ~port:5000);
      let st = Tcp.stats sess in
      Alcotest.(check bool) "retransmissions happened" true (st.Tcp.rexmits > 0);
      Alcotest.(check bool) "drops happened" true (Tcp_peer.segments_dropped peer > 0))

let test_tcp_zero_window_persist () =
  (* Close the peer's window mid-transfer: the sender must arm the persist
     timer, probe, and finish once the window reopens. *)
  let p, stack, peer = send_side_env () in
  in_sim ~horizon:(Pnp_util.Units.sec 60.0) p (fun () ->
      let sess =
        Tcp.connect stack.Stack.tcp ~local_port:5000 ~remote_addr:0x0a000002
          ~remote_port:80
      in
      let send_one i =
        let m = Msg.create stack.Stack.pool 1024 in
        Msg.fill_pattern m ~off:0 ~len:1024 ~stream_off:(i * 1024);
        Tcp.send sess m
      in
      send_one 0;
      send_one 1;
      (* Shut the window; the sender learns via the next ack. *)
      Tcp_peer.set_window peer 0;
      send_one 2;
      send_one 3;
      (* Give the sender time to drain what the old window allowed and
         start probing. *)
      Sim.delay p.Platform.sim (Pnp_util.Units.sec 20.0);
      let st = Tcp.stats sess in
      Alcotest.(check bool)
        (Printf.sprintf "persist probes fired (%d)" st.Tcp.persist_probes)
        true (st.Tcp.persist_probes >= 1);
      Alcotest.(check bool) "transfer stalled below total" true
        (Tcp_peer.unique_bytes peer ~port:5000 < 4 * 1024);
      (* Reopen; everything must complete. *)
      Tcp_peer.set_window peer (1 lsl 20);
      Sim.delay p.Platform.sim (Pnp_util.Units.sec 20.0);
      Alcotest.(check int) "all bytes delivered after reopen" (4 * 1024)
        (Tcp_peer.unique_bytes peer ~port:5000))

let test_tcp_small_window_segments () =
  (* A window smaller than the MSS forces partial segments. *)
  let p = plat () in
  let stack =
    Stack.create p ~tcp_config:(tcp_cfg ~mss:4096 ()) ~local_addr:0x0a000001 ()
  in
  let peer = Tcp_peer.attach stack ~peer_addr:0x0a000002 ~checksum:true () in
  Tcp_peer.set_window peer 2048;
  in_sim p (fun () ->
      let sess =
        Tcp.connect stack.Stack.tcp ~local_port:5000 ~remote_addr:0x0a000002
          ~remote_port:80
      in
      let m = Msg.create stack.Stack.pool 4096 in
      Msg.fill_pattern m ~off:0 ~len:4096 ~stream_off:0;
      Tcp.send sess m;
      Sim.delay p.Platform.sim (Pnp_util.Units.sec 5.0);
      Alcotest.(check int) "all bytes despite tiny window" 4096
        (Tcp_peer.unique_bytes peer ~port:5000);
      let st = Tcp.stats sess in
      Alcotest.(check bool) "needed more than one segment" true
        (Tcp_peer.data_segments peer >= 2);
      ignore st)

let test_tcp_close_handshake () =
  let p, stack, peer = send_side_env () in
  in_sim p (fun () ->
      let sess =
        Tcp.connect stack.Stack.tcp ~local_port:5000 ~remote_addr:0x0a000002
          ~remote_port:80
      in
      let m = Msg.create stack.Stack.pool 512 in
      Msg.fill_pattern m ~off:0 ~len:512 ~stream_off:0;
      Tcp.send sess m;
      Tcp.close sess;
      Sim.delay p.Platform.sim (Pnp_util.Units.sec 2.0);
      Alcotest.(check bool) "peer saw FIN" true (Tcp_peer.stream_closed peer ~port:5000);
      Alcotest.(check string) "reached TIME_WAIT" "TIME_WAIT" (Tcp.state_name sess))

(* ------------------------------------------------------------------ *)
(* TCP timer scans, ticked by hand                                     *)
(* ------------------------------------------------------------------ *)

(* The remote port of every frame the stack sent, oldest first. *)
let sent_to_ports sniffer =
  List.filter_map
    (fun e ->
      if e.Sniffer.dir = `Out then
        Scanf.sscanf e.Sniffer.summary "TCP %_s > %_[^:]:%d" Option.some
      else None)
    (Sniffer.entries sniffer)

let test_tcp_fasttimo_newest_first () =
  let p = plat () in
  let stack = Stack.create p ~tcp_config:(tcp_cfg ()) ~local_addr:0x0a000002 () in
  let tcp = stack.Stack.tcp in
  Tcp.shutdown tcp;
  let src =
    Tcp_source.attach stack ~peer_addr:0x0a000001 ~payload:1024 ~checksum:true
      ~ports:(List.init 5 (fun j -> (2000 + j, 4000)))
      ()
  in
  let sniffer = Sniffer.attach stack in
  in_sim p (fun () ->
      Tcp.listen tcp ~local_port:4000 ~accept:(fun sess -> Tcp.set_receiver sess Msg.destroy);
      Tcp_source.start src;
      Alcotest.(check (list int)) "children registered in stream order"
        [ 2004; 2003; 2002; 2001; 2000 ]
        (List.map (fun s -> snd (Tcp.remote_endpoint s)) (Tcp.sessions tcp));
      (* One segment leaves a delayed ACK pending; stream 2's second
         segment forces its ACK out, so its mark outlives the ACK. *)
      List.iter (fun j -> ignore (Tcp_source.next src ~stream:j)) [ 1; 3; 2; 4; 2 ];
      Sniffer.clear sniffer;
      Tcp.fasttimo tcp;
      Alcotest.(check (list int)) "pending ACKs, newest session first"
        [ 2004; 2003; 2001 ] (sent_to_ports sniffer);
      Sniffer.clear sniffer;
      Tcp.fasttimo tcp;
      Alcotest.(check (list int)) "nothing left pending" [] (sent_to_ports sniffer))

let test_tcp_slowtimo_ticks_early_armed_child () =
  (* A passive open arms the SYN-ACK retransmit timer before the child
     is registered; the scan must still count it down. *)
  let p = plat () in
  let stack = Stack.create p ~tcp_config:(tcp_cfg ()) ~local_addr:0x0a000002 () in
  let tcp = stack.Stack.tcp in
  Tcp.shutdown tcp;
  (* Nobody answers: every SYN-ACK is lost. *)
  Fddi.set_transmit stack.Stack.fddi Msg.destroy;
  let sniffer = Sniffer.attach stack in
  in_sim p (fun () ->
      Tcp.listen tcp ~local_port:4000 ~accept:(fun _ -> ());
      Fddi.input stack.Stack.fddi
        (Frame.build_tcp stack.Stack.pool ~src:0x0a000001 ~dst:0x0a000002 ~sport:2000
           ~dport:4000 ~seq:77 ~ack:0 ~flags:Tcp_wire.flag_syn ~win:(1 lsl 20)
           ~payload:None ~checksum:true);
      let child = List.hd (Tcp.sessions tcp) in
      Alcotest.(check string) "child half open" "SYN_RCVD" (Tcp.state_name child);
      Alcotest.(check (list int)) "one SYN-ACK" [ 2000 ] (sent_to_ports sniffer);
      (* The initial 1 s RTO is two slow ticks. *)
      Tcp.slowtimo tcp;
      Alcotest.(check int) "first tick counts down" 0 (Tcp.stats child).Tcp.rexmits;
      Tcp.slowtimo tcp;
      Alcotest.(check int) "second tick retransmits" 1 (Tcp.stats child).Tcp.rexmits;
      Alcotest.(check (list int)) "SYN-ACK re-sent" [ 2000; 2000 ] (sent_to_ports sniffer))

let test_tcp_time_wait_lasts_msl_ticks () =
  (* Two real stacks, so the passive side closes only when told to. *)
  let p = plat () in
  let sim = p.Platform.sim in
  let mk addr = Stack.create p ~tcp_config:(tcp_cfg ()) ~local_addr:addr () in
  let a = mk 0x0a000001 and b = mk 0x0a000002 in
  Tcp.shutdown a.Stack.tcp;
  Tcp.shutdown b.Stack.tcp;
  ignore (Link.connect p ~a ~b ());
  in_sim p (fun () ->
      let server = ref None in
      Tcp.listen b.Stack.tcp ~local_port:80 ~accept:(fun s -> server := Some s);
      let sess =
        Tcp.connect a.Stack.tcp ~local_port:5000 ~remote_addr:0x0a000002 ~remote_port:80
      in
      Tcp.close sess;
      Sim.delay sim (Pnp_util.Units.ms 10.0);
      Alcotest.(check string) "our FIN acked" "FIN_WAIT_2" (Tcp.state_name sess);
      (* Nothing is armed, so this tick drops the session's mark: entering
         TIME_WAIT must set it again. *)
      Tcp.slowtimo a.Stack.tcp;
      Tcp.close (Option.get !server);
      Sim.delay sim (Pnp_util.Units.ms 10.0);
      Alcotest.(check string) "peer's FIN in" "TIME_WAIT" (Tcp.state_name sess);
      for _ = 1 to Tcp.msl_ticks - 1 do
        Tcp.slowtimo a.Stack.tcp
      done;
      Alcotest.(check string) "one tick short" "TIME_WAIT" (Tcp.state_name sess);
      Tcp.slowtimo a.Stack.tcp;
      Alcotest.(check string) "closed after msl_ticks" "CLOSED" (Tcp.state_name sess))

(* Receive-side: the simulated sender driver against a real TCP receiver. *)
let recv_side_env ?(locking = Tcp.One) ?(checksum = true) ?(ticketing = false)
    ?(assume_in_order = false) ?(payload = 1024) ?(sequential = true) () =
  let p = plat () in
  let cfg =
    { (tcp_cfg ~locking ~checksum ~mss:payload ()) with
      Tcp.ticketing; assume_in_order }
  in
  let stack = Stack.create p ~tcp_config:cfg ~local_addr:0x0a000002 () in
  let src =
    Tcp_source.attach stack ~peer_addr:0x0a000001 ~payload ~checksum
      ~sequential_payload:sequential ~ports:[ (2000, 4000) ] ()
  in
  (p, stack, src)

let test_tcp_recv_in_order locking () =
  let p, stack, src = recv_side_env ~locking () in
  let bytes = ref 0 and chunks = ref 0 and next_off = ref 0 and in_order = ref true in
  in_sim p (fun () ->
      Tcp.listen stack.Stack.tcp ~local_port:4000 ~accept:(fun sess ->
          Tcp.set_receiver sess (fun m ->
              let len = Msg.length m in
              if not (Msg.check_pattern m ~off:0 ~len ~stream_off:!next_off) then
                in_order := false;
              next_off := !next_off + len;
              bytes := !bytes + len;
              incr chunks;
              Msg.destroy m));
      Tcp_source.start src;
      Alcotest.(check bool) "handshake done" true (Tcp_source.established src ~stream:0);
      for _ = 1 to 40 do
        ignore (Tcp_source.next src ~stream:0)
      done);
  Alcotest.(check int) "all bytes delivered" (40 * 1024) !bytes;
  Alcotest.(check bool) "stream content in order" true !in_order;
  let sess = List.hd (Tcp.sessions stack.Stack.tcp) in
  let st = Tcp.stats sess in
  Alcotest.(check int) "no out-of-order on 1 cpu" 0 st.Tcp.ooo_segs;
  Alcotest.(check bool) "header prediction dominates" true
    (st.Tcp.pred_hits > st.Tcp.pred_misses)

let test_tcp_recv_reorder_reassembles () =
  (* Inject segments 2,1,4,3 by hand and check in-order delivery. *)
  let p = plat () in
  let cfg = tcp_cfg ~mss:512 () in
  let stack = Stack.create p ~tcp_config:cfg ~local_addr:0x0a000002 () in
  let src =
    Tcp_source.attach stack ~peer_addr:0x0a000001 ~payload:512 ~checksum:true
      ~sequential_payload:true ~ports:[ (2000, 4000) ] ()
  in
  ignore src;
  let delivered = Buffer.create 64 in
  in_sim p (fun () ->
      Tcp.listen stack.Stack.tcp ~local_port:4000 ~accept:(fun sess ->
          Tcp.set_receiver sess (fun m ->
              Buffer.add_string delivered (Msg.to_string m);
              Msg.destroy m));
      Tcp_source.start src;
      (* Fabricate four segments and deliver them out of order. *)
      let iss = 0x10000000 + 2000 in
      let seg i =
        let payload = Msg.of_string stack.Stack.pool (Printf.sprintf "[seg%d]..." i) in
        Frame.build_tcp stack.Stack.pool ~src:0x0a000001 ~dst:0x0a000002 ~sport:2000
          ~dport:4000
          ~seq:(Tcp_seq.add (Tcp_seq.add iss 1) (i * 9))
          ~ack:1 ~flags:Tcp_wire.flag_ack ~win:(1 lsl 20) ~payload:(Some payload)
          ~checksum:true
      in
      List.iter (fun i -> Fddi.input stack.Stack.fddi (seg i)) [ 1; 0; 3; 2 ]);
  Alcotest.(check string) "delivered in sequence order"
    "[seg0]...[seg1]...[seg2]...[seg3]..." (Buffer.contents delivered);
  let sess = List.hd (Tcp.sessions stack.Stack.tcp) in
  let st = Tcp.stats sess in
  Alcotest.(check int) "two ooo segments" 2 st.Tcp.ooo_segs;
  Alcotest.(check bool) "reassembly used" true (st.Tcp.reass_inserts >= 2)

let test_tcp_recv_acks_every_other () =
  let p, stack, src = recv_side_env () in
  in_sim p (fun () ->
      Tcp.listen stack.Stack.tcp ~local_port:4000 ~accept:(fun sess ->
          Tcp.set_receiver sess (fun m -> Msg.destroy m));
      Tcp_source.start src;
      for _ = 1 to 20 do
        ignore (Tcp_source.next src ~stream:0)
      done);
  let sess = List.hd (Tcp.sessions stack.Stack.tcp) in
  let st = Tcp.stats sess in
  Alcotest.(check bool)
    (Printf.sprintf "~every other segment acked (%d acks / 20 segs)" st.Tcp.acks_out)
    true
    (st.Tcp.acks_out >= 9 && st.Tcp.acks_out <= 12)

let test_tcp_recv_ticketing_orders_app () =
  let p, stack, src = recv_side_env ~ticketing:true () in
  let next_off = ref 0 and in_order = ref true and chunks = ref 0 in
  in_sim p (fun () ->
      Tcp.listen stack.Stack.tcp ~local_port:4000 ~accept:(fun sess ->
          Tcp.set_receiver sess (fun m ->
              let len = Msg.length m in
              if not (Msg.check_pattern m ~off:0 ~len ~stream_off:!next_off) then
                in_order := false;
              next_off := !next_off + len;
              incr chunks;
              Msg.destroy m));
      Tcp_source.start src;
      for _ = 1 to 25 do
        ignore (Tcp_source.next src ~stream:0)
      done;
      let sess = List.hd (Tcp.sessions stack.Stack.tcp) in
      let gate = Option.get (Tcp.ticket_gate sess) in
      Alcotest.(check int) "one ticket per data segment" 25 (Gate.tickets_issued gate);
      Alcotest.(check int) "gate fully served" 25 (Gate.serving gate));
  Alcotest.(check bool) "stream in order through the gate" true !in_order;
  Alcotest.(check int) "all chunks delivered" 25 !chunks

let test_tcp_recv_assume_in_order_mode () =
  let p, stack, src = recv_side_env ~assume_in_order:true ~sequential:false () in
  let bytes = ref 0 in
  in_sim p (fun () ->
      Tcp.listen stack.Stack.tcp ~local_port:4000 ~accept:(fun sess ->
          Tcp.set_receiver sess (fun m ->
              bytes := !bytes + Msg.length m;
              Msg.destroy m));
      Tcp_source.start src;
      for _ = 1 to 30 do
        ignore (Tcp_source.next src ~stream:0)
      done);
  Alcotest.(check int) "all segments delivered" (30 * 1024) !bytes

let test_tcp_recv_flow_control_window () =
  (* With a tiny advertised window the driver must stall until acks. *)
  let p = plat () in
  (* Window of exactly one segment: the first (delayed-ack'ed) segment
     closes it until the 200 ms fast timer flushes the ack. *)
  let cfg = { (tcp_cfg ~mss:1024 ()) with Tcp.rcv_wnd = 1024 } in
  let stack = Stack.create p ~tcp_config:cfg ~local_addr:0x0a000002 () in
  let src =
    Tcp_source.attach stack ~peer_addr:0x0a000001 ~payload:1024 ~checksum:true
      ~ports:[ (2000, 4000) ] ()
  in
  let bytes = ref 0 in
  in_sim p (fun () ->
      Tcp.listen stack.Stack.tcp ~local_port:4000 ~accept:(fun sess ->
          Tcp.set_receiver sess (fun m ->
              bytes := !bytes + Msg.length m;
              Msg.destroy m));
      Tcp_source.start src;
      let sent = ref 0 in
      for _ = 1 to 100 do
        if Tcp_source.next src ~stream:0 then incr sent;
        Sim.delay p.Platform.sim (Pnp_util.Units.ms 5.0)
      done;
      Alcotest.(check bool) "window limited the driver" true
        (Tcp_source.window_stalls src > 0);
      Alcotest.(check int) "delivered what was sent" (!sent * 1024) !bytes)

let test_tcp_six_locking_roundtrip () =
  let p, stack, src = recv_side_env ~locking:Tcp.Six () in
  let bytes = ref 0 in
  in_sim p (fun () ->
      Tcp.listen stack.Stack.tcp ~local_port:4000 ~accept:(fun sess ->
          Tcp.set_receiver sess (fun m ->
              bytes := !bytes + Msg.length m;
              Msg.destroy m));
      Tcp_source.start src;
      for _ = 1 to 15 do
        ignore (Tcp_source.next src ~stream:0)
      done);
  Alcotest.(check int) "TCP-6 delivers too" (15 * 1024) !bytes

let test_tcp_multi_connection_demux () =
  let p = plat () in
  let cfg = tcp_cfg ~mss:1024 () in
  let stack = Stack.create p ~tcp_config:cfg ~local_addr:0x0a000002 () in
  let src =
    Tcp_source.attach stack ~peer_addr:0x0a000001 ~payload:1024 ~checksum:true
      ~ports:[ (2000, 4000); (2001, 4001); (2002, 4002) ] ()
  in
  let per_port = Hashtbl.create 4 in
  in_sim p (fun () ->
      List.iter
        (fun port ->
          Tcp.listen stack.Stack.tcp ~local_port:port ~accept:(fun sess ->
              Tcp.set_receiver sess (fun m ->
                  let v = try Hashtbl.find per_port port with Not_found -> 0 in
                  Hashtbl.replace per_port port (v + Msg.length m);
                  Msg.destroy m)))
        [ 4000; 4001; 4002 ];
      Tcp_source.start src;
      for stream = 0 to 2 do
        for _ = 1 to 5 + stream do
          ignore (Tcp_source.next src ~stream)
        done
      done);
  List.iteri
    (fun i port ->
      Alcotest.(check int)
        (Printf.sprintf "port %d bytes" port)
        ((5 + i) * 1024)
        (try Hashtbl.find per_port port with Not_found -> 0))
    [ 4000; 4001; 4002 ]

let test_tcp_close_listener () =
  let p = plat () in
  let cfg = tcp_cfg ~mss:1024 () in
  let stack = Stack.create p ~tcp_config:cfg ~local_addr:0x0a000002 () in
  let src =
    Tcp_source.attach stack ~peer_addr:0x0a000001 ~payload:1024 ~checksum:true
      ~ports:[ (2000, 4000) ] ()
  in
  let accepts = ref 0 and bytes = ref 0 and endpoint = ref (0, 0) in
  in_sim p (fun () ->
      Tcp.listen stack.Stack.tcp ~local_port:4000 ~accept:(fun sess ->
          incr accepts;
          endpoint := Tcp.remote_endpoint sess;
          Tcp.set_receiver sess (fun m ->
              bytes := !bytes + Msg.length m;
              Msg.destroy m));
      Tcp_source.start src;
      Alcotest.(check int) "accepted once" 1 !accepts;
      Alcotest.(check (pair int int)) "accept sees the peer endpoint"
        (0x0a000001, 2000) !endpoint;
      Alcotest.(check bool) "close removes the listener" true
        (Tcp.close_listener stack.Stack.tcp ~local_port:4000);
      Alcotest.(check bool) "second close finds nothing" false
        (Tcp.close_listener stack.Stack.tcp ~local_port:4000);
      (* The established child is untouched by the listener teardown. *)
      for _ = 1 to 10 do
        ignore (Tcp_source.next src ~stream:0)
      done;
      Alcotest.(check int) "established child still delivers" (10 * 1024) !bytes;
      (* A fresh SYN to the closed port is dropped: no session, no accept. *)
      let before = List.length (Tcp.sessions stack.Stack.tcp) in
      let syn =
        Frame.build_tcp stack.Stack.pool ~src:0x0a000001 ~dst:0x0a000002 ~sport:2177
          ~dport:4000 ~seq:7777 ~ack:0 ~flags:Tcp_wire.flag_syn ~win:(1 lsl 20)
          ~payload:None ~checksum:true
      in
      Fddi.input stack.Stack.fddi syn;
      Alcotest.(check int) "SYN to a closed port makes no session" before
        (List.length (Tcp.sessions stack.Stack.tcp));
      Alcotest.(check int) "and runs no accept callback" 1 !accepts)

(* ------------------------------------------------------------------ *)
(* Presentation layer                                                  *)
(* ------------------------------------------------------------------ *)

let test_pres_roundtrip () =
  let p = plat () in
  let pool = Mpool.create p in
  in_sim p (fun () ->
      let original = "presentation layer marshalling roundtrip!" in
      let m = Msg.of_string pool original in
      let encoded = Pres.encode p pool m in
      Alcotest.(check bool) "encoding changes the bytes" false
        (String.equal (Msg.to_string encoded) original);
      let decoded = Pres.decode p pool encoded in
      Alcotest.(check string) "decode inverts encode" original (Msg.to_string decoded);
      Msg.destroy decoded)

let test_pres_charges_time () =
  let p = plat () in
  let pool = Mpool.create p in
  let elapsed = ref 0 in
  let _ =
    Sim.spawn p.Platform.sim ~name:"t" (fun () ->
        let m = Msg.create pool 4096 in
        let m = Pres.encode p pool m in
        Msg.destroy m;
        elapsed := Sim.now p.Platform.sim)
  in
  Sim.run p.Platform.sim;
  (* 4096 bytes at ~95 ns/byte, plus allocator costs *)
  Alcotest.(check bool)
    (Printf.sprintf "conversion cost charged (%dns)" !elapsed)
    true
    (!elapsed > 350_000 && !elapsed < 500_000)

let suites =
  [
    ( "proto.cksum",
      [
        Alcotest.test_case "known vector" `Quick test_cksum_known_vector;
        Alcotest.test_case "odd length" `Quick test_cksum_odd_length;
        Alcotest.test_case "split = whole" `Quick test_cksum_split_equals_whole;
        Alcotest.test_case "odd middle slice" `Quick test_cksum_odd_middle_slice;
        Alcotest.test_case "word sum = byte-wise oracle (exhaustive)" `Quick
          test_cksum_word_vs_bytewise_exhaustive;
        Qrand.to_alcotest prop_cksum_word_vs_bytewise;
        Qrand.to_alcotest prop_cksum_verifies;
      ] );
    ( "proto.seq",
      [
        Alcotest.test_case "wraparound" `Quick test_seq_wraparound;
        Qrand.to_alcotest prop_seq_diff_add;
      ] );
    ( "proto.sockbuf",
      [
        Alcotest.test_case "basic" `Quick test_sockbuf_basic;
        Alcotest.test_case "overflow rejected" `Quick test_sockbuf_overflow_rejected;
        Qrand.to_alcotest prop_sockbuf_stream;
      ] );
    ("proto.wire", [ Qrand.to_alcotest prop_tcp_wire_roundtrip ]);
    ( "proto.fddi",
      [
        Alcotest.test_case "roundtrip" `Quick test_fddi_roundtrip;
        Alcotest.test_case "unknown type dropped" `Quick test_fddi_unknown_type_dropped;
        Alcotest.test_case "MTU enforced" `Quick test_fddi_mtu_enforced;
      ] );
    ( "proto.ip",
      [
        Alcotest.test_case "roundtrip" `Quick test_ip_roundtrip_small;
        Alcotest.test_case "fragmentation roundtrip" `Quick test_ip_fragmentation_roundtrip;
        Alcotest.test_case "bad header checksum dropped" `Quick
          test_ip_bad_header_checksum_dropped;
      ] );
    ( "proto.udp",
      [
        Alcotest.test_case "roundtrip (cksum on)" `Quick (test_udp_roundtrip true);
        Alcotest.test_case "roundtrip (cksum off)" `Quick (test_udp_roundtrip false);
        Alcotest.test_case "bad checksum dropped" `Quick test_udp_bad_checksum_dropped;
        Alcotest.test_case "unbound port dropped" `Quick test_udp_unbound_port_dropped;
        Alcotest.test_case "source/sink drivers" `Quick test_udp_source_sink_drivers;
      ] );
    ( "proto.pres",
      [
        Alcotest.test_case "roundtrip" `Quick test_pres_roundtrip;
        Alcotest.test_case "charges time" `Quick test_pres_charges_time;
      ] );
    ( "proto.tcp.send",
      [
        Alcotest.test_case "connect (TCP-1)" `Quick (test_tcp_connect_establishes Tcp.One);
        Alcotest.test_case "connect (TCP-2)" `Quick (test_tcp_connect_establishes Tcp.Two);
        Alcotest.test_case "connect (TCP-6)" `Quick (test_tcp_connect_establishes Tcp.Six);
        Alcotest.test_case "send delivers (TCP-1)" `Quick (test_tcp_send_delivers Tcp.One);
        Alcotest.test_case "send delivers (TCP-2)" `Quick (test_tcp_send_delivers Tcp.Two);
        Alcotest.test_case "send delivers (TCP-6)" `Quick (test_tcp_send_delivers Tcp.Six);
        Alcotest.test_case "acks every other" `Quick test_tcp_send_acks_every_other;
        Alcotest.test_case "retransmission on loss" `Quick test_tcp_retransmission_on_loss;
        Alcotest.test_case "zero-window persist probe" `Quick test_tcp_zero_window_persist;
        Alcotest.test_case "sub-MSS window segments" `Quick test_tcp_small_window_segments;
        Alcotest.test_case "close handshake" `Quick test_tcp_close_handshake;
      ] );
    ( "proto.tcp.timers",
      [
        Alcotest.test_case "fasttimo acks newest session first" `Quick
          test_tcp_fasttimo_newest_first;
        Alcotest.test_case "slowtimo ticks a child armed before registration" `Quick
          test_tcp_slowtimo_ticks_early_armed_child;
        Alcotest.test_case "TIME_WAIT lasts msl_ticks" `Quick
          test_tcp_time_wait_lasts_msl_ticks;
      ] );
    ( "proto.tcp.recv",
      [
        Alcotest.test_case "in-order delivery (TCP-1)" `Quick
          (test_tcp_recv_in_order Tcp.One);
        Alcotest.test_case "in-order delivery (TCP-2)" `Quick
          (test_tcp_recv_in_order Tcp.Two);
        Alcotest.test_case "reorder reassembles" `Quick test_tcp_recv_reorder_reassembles;
        Alcotest.test_case "acks every other" `Quick test_tcp_recv_acks_every_other;
        Alcotest.test_case "ticketing orders app" `Quick test_tcp_recv_ticketing_orders_app;
        Alcotest.test_case "assumed in-order mode" `Quick test_tcp_recv_assume_in_order_mode;
        Alcotest.test_case "flow control window" `Quick test_tcp_recv_flow_control_window;
        Alcotest.test_case "TCP-6 roundtrip" `Quick test_tcp_six_locking_roundtrip;
        Alcotest.test_case "multi-connection demux" `Quick test_tcp_multi_connection_demux;
        Alcotest.test_case "close_listener drops SYNs, keeps children" `Quick
          test_tcp_close_listener;
      ] );
  ]
