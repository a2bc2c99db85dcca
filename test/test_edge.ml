(* Edge cases: 32-bit sequence wraparound mid-transfer, simultaneous
   close, RST, overlap trimming, and stress on the infrastructure. *)

open Pnp_engine
open Pnp_xkern
open Pnp_proto
open Pnp_driver

let plat () = Platform.create Arch.challenge_100

let in_sim ?(horizon = Pnp_util.Units.sec 30.0) plat body =
  let fin = ref false in
  let _ =
    Sim.spawn plat.Platform.sim ~name:"edge" (fun () ->
        body ();
        fin := true)
  in
  Sim.run ~until:horizon plat.Platform.sim;
  Alcotest.(check bool) "test thread completed" true !fin

(* ------------------------------------------------------------------ *)
(* 32-bit sequence wraparound                                          *)
(* ------------------------------------------------------------------ *)

let test_send_across_seq_wrap () =
  (* The sender's sequence space crosses 2^32 during the transfer. *)
  let p = plat () in
  let stack =
    Stack.create p
      ~tcp_config:{ Tcp.default_config with Tcp.mss = 1024; checksum = true }
      ~local_addr:0x0a000001 ()
  in
  let peer = Tcp_peer.attach stack ~peer_addr:0x0a000002 ~checksum:true () in
  in_sim p (fun () ->
      (* 3 segments before the wrap boundary, then 13 after. *)
      let iss = Tcp_seq.mask (-(3 * 1024) - 1) in
      let sess =
        Tcp.connect ~iss stack.Stack.tcp ~local_port:5000 ~remote_addr:0x0a000002
          ~remote_port:80
      in
      for i = 0 to 15 do
        let m = Msg.create stack.Stack.pool 1024 in
        Msg.fill_pattern m ~off:0 ~len:1024 ~stream_off:(i * 1024);
        Tcp.send sess m
      done;
      Alcotest.(check int) "all bytes across the wrap" (16 * 1024)
        (Tcp_peer.unique_bytes peer ~port:5000);
      Alcotest.(check int) "no retransmissions" 0 (Tcp.stats sess).Tcp.rexmits)

let test_recv_across_seq_wrap () =
  let p = plat () in
  let cfg = { Tcp.default_config with Tcp.mss = 1024; checksum = true } in
  let stack = Stack.create p ~tcp_config:cfg ~local_addr:0x0a000002 () in
  let src =
    Tcp_source.attach stack ~peer_addr:0x0a000001 ~payload:1024 ~checksum:true
      ~sequential_payload:true
      ~iss_base:(Tcp_seq.mask (-(4 * 1024) - 2001))
      ~ports:[ (2000, 4000) ] ()
  in
  let bytes = ref 0 and in_order = ref true and next_off = ref 0 in
  in_sim p (fun () ->
      Tcp.listen stack.Stack.tcp ~local_port:4000 ~accept:(fun sess ->
          Tcp.set_receiver sess (fun m ->
              let len = Msg.length m in
              if not (Msg.check_pattern m ~off:0 ~len ~stream_off:!next_off) then
                in_order := false;
              next_off := !next_off + len;
              bytes := !bytes + len;
              Msg.destroy m));
      Tcp_source.start src;
      for _ = 1 to 16 do
        ignore (Tcp_source.next src ~stream:0)
      done);
  Alcotest.(check int) "all bytes across the wrap" (16 * 1024) !bytes;
  Alcotest.(check bool) "stream stayed in order" true !in_order

(* ------------------------------------------------------------------ *)
(* Connection teardown corners                                         *)
(* ------------------------------------------------------------------ *)

let test_simultaneous_close_reaches_closing () =
  let p = plat () in
  let cfg = { Tcp.default_config with Tcp.mss = 1024 } in
  let stack = Stack.create p ~tcp_config:cfg ~local_addr:0x0a000002 () in
  let src =
    Tcp_source.attach stack ~peer_addr:0x0a000001 ~payload:1024 ~checksum:true
      ~ports:[ (2000, 4000) ] ()
  in
  let the_sess = ref None in
  in_sim p (fun () ->
      Tcp.listen stack.Stack.tcp ~local_port:4000 ~accept:(fun sess ->
          the_sess := Some sess;
          Tcp.set_receiver sess (fun m -> Msg.destroy m));
      Tcp_source.start src;
      let sess = Option.get !the_sess in
      (* Our FIN goes out; a peer FIN arrives that does NOT ack ours (it
         crossed ours on the wire): a genuine simultaneous close. *)
      let ack_before_fin = Tcp.snd_nxt sess in
      Tcp.close sess;
      let crossing_fin =
        Frame.build_tcp stack.Stack.pool ~src:0x0a000001 ~dst:0x0a000002 ~sport:2000
          ~dport:4000
          ~seq:(Tcp_seq.add (Tcp_seq.mask (0x10000000 + 2000)) 1)
          ~ack:ack_before_fin ~flags:Tcp_wire.flag_fin_ack ~win:(1 lsl 20) ~payload:None
          ~checksum:true
      in
      Fddi.input stack.Stack.fddi crossing_fin;
      Alcotest.(check string) "simultaneous close" "CLOSING" (Tcp.state_name sess);
      (* Peer finally acks our FIN: TIME_WAIT. *)
      let snd_nxt = Tcp.snd_nxt sess in
      let ack_frame =
        Frame.build_tcp stack.Stack.pool ~src:0x0a000001 ~dst:0x0a000002 ~sport:2000
          ~dport:4000
          ~seq:(Tcp_seq.add (Tcp_seq.mask (0x10000000 + 2000)) 2)
          ~ack:snd_nxt ~flags:Tcp_wire.flag_ack ~win:(1 lsl 20) ~payload:None
          ~checksum:true
      in
      Fddi.input stack.Stack.fddi ack_frame;
      Alcotest.(check string) "after final ack" "TIME_WAIT" (Tcp.state_name sess))

let test_rst_closes_connection () =
  let p = plat () in
  let stack = Stack.create p ~tcp_config:Tcp.default_config ~local_addr:0x0a000002 () in
  let src =
    Tcp_source.attach stack ~peer_addr:0x0a000001 ~payload:4096 ~checksum:true
      ~ports:[ (2000, 4000) ] ()
  in
  let the_sess = ref None in
  in_sim p (fun () ->
      Tcp.listen stack.Stack.tcp ~local_port:4000 ~accept:(fun sess ->
          the_sess := Some sess;
          Tcp.set_receiver sess (fun m -> Msg.destroy m));
      Tcp_source.start src;
      ignore (Tcp_source.next src ~stream:0);
      let rst =
        Frame.build_tcp stack.Stack.pool ~src:0x0a000001 ~dst:0x0a000002 ~sport:2000
          ~dport:4000 ~seq:0 ~ack:0 ~flags:Tcp_wire.flag_rst ~win:0 ~payload:None
          ~checksum:true
      in
      Fddi.input stack.Stack.fddi rst;
      Alcotest.(check string) "reset" "CLOSED" (Tcp.state_name (Option.get !the_sess)))

let test_overlapping_segments_trimmed () =
  (* Segment [0,512) delivered; duplicate overlapping [256,768) arrives:
     the first 256 bytes must be trimmed, never re-delivered. *)
  let p = plat () in
  let cfg = { Tcp.default_config with Tcp.mss = 512 } in
  let stack = Stack.create p ~tcp_config:cfg ~local_addr:0x0a000002 () in
  let src =
    Tcp_source.attach stack ~peer_addr:0x0a000001 ~payload:512 ~checksum:true
      ~sequential_payload:true ~ports:[ (2000, 4000) ] ()
  in
  ignore src;
  let bytes = ref 0 and in_order = ref true and next_off = ref 0 in
  in_sim p (fun () ->
      Tcp.listen stack.Stack.tcp ~local_port:4000 ~accept:(fun sess ->
          Tcp.set_receiver sess (fun m ->
              let len = Msg.length m in
              if not (Msg.check_pattern m ~off:0 ~len ~stream_off:!next_off) then
                in_order := false;
              next_off := !next_off + len;
              bytes := !bytes + len;
              Msg.destroy m));
      Tcp_source.start src;
      let iss = Tcp_seq.mask (0x10000000 + 2000) in
      let seg ~start ~len =
        let payload = Msg.create stack.Stack.pool len in
        Msg.fill_pattern payload ~off:0 ~len ~stream_off:start;
        Frame.build_tcp stack.Stack.pool ~src:0x0a000001 ~dst:0x0a000002 ~sport:2000
          ~dport:4000
          ~seq:(Tcp_seq.add (Tcp_seq.add iss 1) start)
          ~ack:1 ~flags:Tcp_wire.flag_ack ~win:(1 lsl 20) ~payload:(Some payload)
          ~checksum:true
      in
      Fddi.input stack.Stack.fddi (seg ~start:0 ~len:512);
      Fddi.input stack.Stack.fddi (seg ~start:256 ~len:512));
  Alcotest.(check int) "exactly 768 unique bytes" 768 !bytes;
  Alcotest.(check bool) "in order" true !in_order

let test_fully_duplicate_segment_reacked () =
  let p = plat () in
  let cfg = { Tcp.default_config with Tcp.mss = 512 } in
  let stack = Stack.create p ~tcp_config:cfg ~local_addr:0x0a000002 () in
  let src =
    Tcp_source.attach stack ~peer_addr:0x0a000001 ~payload:512 ~checksum:true
      ~ports:[ (2000, 4000) ] ()
  in
  let the_sess = ref None in
  in_sim p (fun () ->
      Tcp.listen stack.Stack.tcp ~local_port:4000 ~accept:(fun sess ->
          the_sess := Some sess;
          Tcp.set_receiver sess (fun m -> Msg.destroy m));
      Tcp_source.start src;
      let iss = Tcp_seq.mask (0x10000000 + 2000) in
      let seg () =
        let payload = Msg.create stack.Stack.pool 512 in
        Msg.fill_pattern payload ~off:0 ~len:512 ~stream_off:0;
        Frame.build_tcp stack.Stack.pool ~src:0x0a000001 ~dst:0x0a000002 ~sport:2000
          ~dport:4000 ~seq:(Tcp_seq.add iss 1) ~ack:1 ~flags:Tcp_wire.flag_ack
          ~win:(1 lsl 20) ~payload:(Some payload) ~checksum:true
      in
      Fddi.input stack.Stack.fddi (seg ());
      let sess = Option.get !the_sess in
      let acks_before = (Tcp.stats sess).Tcp.acks_out in
      Fddi.input stack.Stack.fddi (seg ());
      let st = Tcp.stats sess in
      Alcotest.(check bool) "duplicate forced an immediate ack" true
        (st.Tcp.acks_out > acks_before);
      Alcotest.(check int) "only 512 bytes delivered" 512 st.Tcp.bytes_in)

(* ------------------------------------------------------------------ *)
(* Nagle's algorithm                                                   *)
(* ------------------------------------------------------------------ *)

let nagle_env () =
  let p = plat () in
  let cfg = { Tcp.default_config with Tcp.mss = 1024 } in
  let stack = Stack.create p ~tcp_config:cfg ~local_addr:0x0a000001 () in
  let peer = Tcp_peer.attach stack ~peer_addr:0x0a000002 ~checksum:true () in
  (p, stack, peer)

let test_nagle_coalesces_small_writes () =
  let p, stack, peer = nagle_env () in
  in_sim p (fun () ->
      let sess =
        Tcp.connect stack.Stack.tcp ~local_port:5000 ~remote_addr:0x0a000002
          ~remote_port:80
      in
      (* Ten 100-byte writes back-to-back: the first goes out alone, the
         rest coalesce behind the outstanding data. *)
      for i = 0 to 9 do
        let m = Msg.create stack.Stack.pool 100 in
        Msg.fill_pattern m ~off:0 ~len:100 ~stream_off:(i * 100);
        Tcp.send sess m
      done;
      Sim.delay p.Platform.sim (Pnp_util.Units.sec 2.0);
      Alcotest.(check int) "all bytes arrive" 1000 (Tcp_peer.unique_bytes peer ~port:5000);
      Alcotest.(check bool)
        (Printf.sprintf "far fewer than 10 data segments (%d)"
           (Tcp_peer.data_segments peer))
        true
        (Tcp_peer.data_segments peer <= 5))

let test_nagle_never_holds_full_segments () =
  let p, stack, peer = nagle_env () in
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
      Alcotest.(check int) "mss-sized writes flow immediately" (10 * 1024)
        (Tcp_peer.unique_bytes peer ~port:5000))

(* ------------------------------------------------------------------ *)
(* Infrastructure stress                                               *)
(* ------------------------------------------------------------------ *)

let test_timewheel_stress () =
  let p = plat () in
  let w = Timewheel.create p ~name:"stress" () in
  let rng = Pnp_util.Prng.create 77 in
  let fired = ref [] in
  let cancelled = ref 0 in
  in_sim p (fun () ->
      (* Delays up to 4 s span three 1.28 s laps of the wheel. *)
      let handles =
        List.init 400 (fun i ->
            let after = Pnp_util.Units.ms (0.5 +. Pnp_util.Prng.float rng 4000.0) in
            (Timewheel.schedule w ~after (fun () -> fired := i :: !fired), i))
      in
      List.iter
        (fun (h, i) ->
          if i mod 2 = 0 && Timewheel.cancel w h then incr cancelled)
        handles;
      Sim.delay p.Platform.sim (Pnp_util.Units.ms 4100.0));
  Alcotest.(check int) "half cancelled" 200 !cancelled;
  Alcotest.(check int) "other half fired" 200 (List.length !fired);
  List.iter (fun i -> Alcotest.(check bool) "only odd ids fired" true (i mod 2 = 1)) !fired;
  Alcotest.(check int) "wheel accounting" 200 (Timewheel.fired w);
  Alcotest.(check int) "nothing pending" 0 (Timewheel.pending w)

module Int_key = struct
  type t = int

  let hash x = x * 0x9e3779b1
  let equal = Int.equal
end

module Imap = Xmap.Make (Int_key)

(* 301 keys in one shard: most runs pass the 64 bindings at which the
   map's 32 buckets double. *)
let prop_xmap_matches_hashtbl =
  QCheck.Test.make ~name:"map manager agrees with a reference Hashtbl" ~count:80
    QCheck.(list_of_size Gen.(0 -- 1200) (pair (int_bound 2) (int_bound 300)))
    (fun ops ->
      let p = plat () in
      let m = Imap.create p ~name:"stress" () in
      let h = Hashtbl.create 16 in
      let ok = ref true in
      let runner () =
        List.iteri
          (fun i (op, k) ->
            match op with
            | 0 ->
              Imap.insert m k i;
              Hashtbl.replace h k i
            | 1 ->
              let a = Imap.remove m k and b = Hashtbl.mem h k in
              Hashtbl.remove h k;
              if a <> b then ok := false
            | _ ->
              let a = Imap.lookup m k and b = Hashtbl.find_opt h k in
              if a <> b then ok := false)
          ops;
        if Imap.length m <> Hashtbl.length h then ok := false
      in
      let _ = Sim.spawn p.Platform.sim ~name:"runner" runner in
      Sim.run ~until:(Pnp_util.Units.sec 10.0) p.Platform.sim;
      !ok)

let test_mpool_cache_limit_overflow () =
  let p = plat () in
  let pool = Mpool.create p in
  in_sim p (fun () ->
      (* Allocate and free 100 header nodes: the per-thread cache keeps 64,
         the rest go back to the global allocator. *)
      let nodes = List.init 100 (fun _ -> Mpool.alloc pool 64) in
      List.iter (fun n -> Mpool.decref pool n) nodes;
      Alcotest.(check int) "all free" 0 (Mpool.live_nodes pool);
      let before_global = Mpool.global_allocations pool in
      let again = List.init 100 (fun _ -> Mpool.alloc pool 64) in
      (* 64 from the cache, 36 fresh from the global allocator. *)
      Alcotest.(check int) "cache refills 64" (before_global + 36)
        (Mpool.global_allocations pool);
      List.iter (fun n -> Mpool.decref pool n) again)

let test_sim_blocked_thread_diagnostics () =
  let sim = Sim.create () in
  let lock = Lock.create sim Arch.challenge_100 Lock.Unfair ~name:"held" in
  let _ =
    Sim.spawn sim ~name:"holder" (fun () ->
        Lock.acquire lock (* never released: the waiter deadlocks *))
  in
  let _ = Sim.spawn sim ~name:"waiter" (fun () -> Lock.acquire lock) in
  Sim.run sim;
  let blocked = Sim.blocked_threads sim in
  Alcotest.(check int) "one thread reported blocked" 1 (List.length blocked);
  Alcotest.(check string) "it is the waiter" "waiter"
    (Sim.thread_name (List.hd blocked));
  let s = Format.asprintf "%a" Sim.pp_blocked sim in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "printer mentions it" true (contains s "waiter")

let suites =
  [
    ( "edge.tcp",
      [
        Alcotest.test_case "send across 2^32 wrap" `Quick test_send_across_seq_wrap;
        Alcotest.test_case "recv across 2^32 wrap" `Quick test_recv_across_seq_wrap;
        Alcotest.test_case "simultaneous close" `Quick test_simultaneous_close_reaches_closing;
        Alcotest.test_case "RST closes connection" `Quick test_rst_closes_connection;
        Alcotest.test_case "overlapping segments trimmed" `Quick
          test_overlapping_segments_trimmed;
        Alcotest.test_case "full duplicate re-acked" `Quick
          test_fully_duplicate_segment_reacked;
        Alcotest.test_case "Nagle coalesces small writes" `Quick
          test_nagle_coalesces_small_writes;
        Alcotest.test_case "Nagle never holds full segments" `Quick
          test_nagle_never_holds_full_segments;
      ] );
    ( "edge.infra",
      [
        Alcotest.test_case "timewheel stress" `Quick test_timewheel_stress;
        Qrand.to_alcotest prop_xmap_matches_hashtbl;
        Alcotest.test_case "mpool cache overflow" `Quick test_mpool_cache_limit_overflow;
        Alcotest.test_case "blocked-thread diagnostics" `Quick
          test_sim_blocked_thread_diagnostics;
      ] );
  ]
