(* Driver-layer units: frame summaries (sniffer), taps, link
   accounting, and the steered NIC's rings. *)

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
  let sniffer = Sniffer.attach stack in
  let _peer = Tcp_peer.attach stack ~peer_addr:0x0a000002 ~checksum:true () in
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
  let link = Link.connect p ~plan:(Pnp_faults.Faults.bernoulli 0.5) ~a ~b () in
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
   checksum that a flat byte scan of the segment verifies: the sums the
   memo served are checked against the reference scan. *)
let test_tcp_source_checksums () =
  let src_addr = 0x0a000001 and dst_addr = 0x0a000002 in
  let run ~sequential_payload =
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
              (Inet_cksum.pseudo_sum ~proto:Tcp_wire.protocol_number ~src:src_addr
                 ~dst:dst_addr ~len)
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
  List.iter (fun sequential_payload -> run ~sequential_payload) [ false; true ]

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

(* ---- Steer: the NIC's per-worker rings ----------------------------- *)

(* Run [f] on one simulated thread to completion ([Steer.next] takes the
   NIC's demux lock, so it must run inside the simulation). *)
let in_sim p f =
  ignore (Sim.spawn p.Platform.sim ~cpu:0 ~name:"poller" f);
  Sim.run p.Platform.sim

(* Poll [workers] round-robin [rounds] times; every token is the
   connection it was reserved for.  Returns, per connection, the set of
   workers its tokens reached. *)
let steer_reach ~policy ~workers ~conns ~rounds =
  let p = plat () in
  let st = Steer.create p ~policy ~workers ~conns () in
  let reached = Array.make conns [] in
  in_sim p (fun () ->
      for i = 0 to (rounds * workers) - 1 do
        let worker = i mod workers in
        match Steer.next st ~worker ~reserve:(fun ~conn -> Some conn) with
        | Some c ->
          if not (List.mem worker reached.(c)) then reached.(c) <- worker :: reached.(c)
        | None -> ()
      done);
  reached

let test_steer_hash_is_static () =
  let workers = 3 and conns = 10 in
  let reached = steer_reach ~policy:Steer.Hash ~workers ~conns ~rounds:200 in
  Array.iteri
    (fun c ws ->
      Alcotest.(check (list int)) (Printf.sprintf "conn %d" c) [ c mod workers ] ws)
    reached

let test_steer_last_sender_splits_flows () =
  let reached = steer_reach ~policy:Steer.Last_sender ~workers:2 ~conns:10 ~rounds:200 in
  Alcotest.(check bool) "some connection reaches both workers" true
    (Array.exists (fun ws -> List.length ws = 2) reached)

(* Worker 1 never drains.  Once its ring holds 16 tokens, arrivals
   steered to it are dropped before [reserve] runs, so no sequence
   number is pinned for a frame that will never be delivered; the 16
   it holds still come out in order. *)
let test_steer_full_ring_skips_reserve () =
  let p = plat () in
  let st = Steer.create p ~policy:Steer.Hash ~workers:2 ~conns:10 () in
  let pinned = Array.make 10 0 in
  let reserve ~conn =
    let seq = pinned.(conn) in
    pinned.(conn) <- seq + 1;
    Some (conn, seq)
  in
  let delivered0 = ref 0 and drained = ref [] in
  in_sim p (fun () ->
      for _ = 1 to 500 do
        match Steer.next st ~worker:0 ~reserve with
        | Some _ -> incr delivered0
        | None -> ()
      done;
      for _ = 1 to 16 do
        match Steer.next st ~worker:1 ~reserve:(fun ~conn:_ -> None) with
        | Some tok -> drained := tok :: !drained
        | None -> ()
      done);
  let odd_pins = pinned.(1) + pinned.(3) + pinned.(5) + pinned.(7) + pinned.(9) in
  Alcotest.(check int) "worker 0 drained every poll" 500 !delivered0;
  Alcotest.(check int) "reservations for the stuck worker" 16 odd_pins;
  let held = List.rev !drained in
  Alcotest.(check int) "the stuck worker's ring" 16 (List.length held);
  List.iter
    (fun c ->
      Alcotest.(check (list int))
        (Printf.sprintf "conn %d: hole-free sequence" c)
        (List.init pinned.(c) Fun.id)
        (List.filter_map (fun (c', seq) -> if c' = c then Some seq else None) held))
    [ 1; 3; 5; 7; 9 ]

let test_steer_rejects_bad_arguments () =
  let p = plat () in
  let raises name f =
    match f () with
    | () -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  let st = Steer.create p ~policy:Steer.Hash ~workers:2 ~conns:4 () in
  let next worker () = ignore (Steer.next st ~worker ~reserve:(fun ~conn -> Some conn)) in
  raises "worker -1" (next (-1));
  raises "worker = workers" (next 2);
  let create ~workers ~conns () =
    ignore (Steer.create p ~policy:Steer.Last_sender ~workers ~conns () : int Steer.t)
  in
  raises "workers 0" (create ~workers:0 ~conns:4);
  raises "workers -1" (create ~workers:(-1) ~conns:4);
  raises "conns 0" (create ~workers:2 ~conns:0)

(* ---- What an established connection keeps -------------------------- *)

(* The live words of a steering-shaped world (ext-steering's receive
   cell: 64 demux shards, one listen port, per-stream source addresses,
   an application lock per connection) once [conns] connections are
   established: the stack, the source and the application locks. *)
let steering_world_words conns =
  let p = Platform.create ~map_shards:64 Arch.challenge_100 in
  let stack = Stack.create p ~local_addr:0x0a000002 () in
  let span = 1 lsl 14 in
  let src =
    Tcp_source.attach stack ~peer_addr:0x0a000001 ~payload:4096 ~checksum:true
      ~addr_of:(fun j -> 0x0a000001 + ((j / span) lsl 16))
      ~ports:(List.init conns (fun j -> (2000 + (j mod span), 4000)))
      ()
  in
  let apps =
    Array.init conns (fun j ->
        Lock.create p.Platform.sim p.Platform.arch Lock.Unfair ~name:("app." ^ string_of_int j))
  in
  Tcp.listen stack.Stack.tcp ~local_port:4000 ~accept:(fun sess ->
      Tcp.set_receiver sess (fun m -> Msg.destroy m));
  ignore (Sim.spawn p.Platform.sim ~cpu:0 ~name:"handshaker" (fun () -> Tcp_source.start src));
  Sim.run ~until:(Units.ms 500.0) p.Platform.sim;
  for j = 0 to conns - 1 do
    if not (Tcp_source.established src ~stream:j) then Alcotest.failf "stream %d not established" j
  done;
  (* Without ticketing no session builds a ticket gate. *)
  List.iter
    (fun sess ->
      if Option.is_some (Tcp.ticket_gate sess) then Alcotest.fail "a session has a ticket gate")
    (Tcp.sessions stack.Stack.tcp);
  Obj.reachable_words (Obj.repr (stack, src, apps))

(* Measured as the slope between two world sizes, so what every world
   holds whatever its size cancels out.  The bound sits just above the
   171 words measured when the test was added, so a connection that
   starts keeping more shows here first. *)
let test_words_per_connection () =
  let small = steering_world_words 256 and large = steering_world_words 512 in
  let per_conn = float_of_int (large - small) /. 256.0 in
  Printf.printf "%.1f live words per established connection\n" per_conn;
  if per_conn > 175.0 then
    Alcotest.failf "%.1f live words per established connection (at most 175)" per_conn

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
    ( "driver.steer",
      [
        Alcotest.test_case "hash keeps a connection on one worker" `Quick
          test_steer_hash_is_static;
        Alcotest.test_case "last-sender splits a connection" `Quick
          test_steer_last_sender_splits_flows;
        Alcotest.test_case "full ring skips reserve" `Quick test_steer_full_ring_skips_reserve;
        Alcotest.test_case "bad arguments rejected" `Quick test_steer_rejects_bad_arguments;
      ] );
    ( "driver.tcp_source",
      [
        Alcotest.test_case "injected checksums verify" `Quick test_tcp_source_checksums;
        Alcotest.test_case "driver port outside 16 bits rejected" `Quick
          test_tcp_source_rejects_wide_port;
        Alcotest.test_case "words per established connection" `Quick
          test_words_per_connection;
      ] );
  ]
