open Pnp_engine
open Pnp_util
open Pnp_xkern
open Pnp_proto
open Pnp_driver
open Pnp_faults
open Pnp_harness
open Pnp_analysis

let plat ?(seed = 11) () = Platform.create ~seed Arch.challenge_100

(* Run [body] inside a simulated thread and drive the world to completion. *)
let in_sim plat body =
  let result = ref None in
  let _ = Sim.spawn plat.Platform.sim ~name:"test" (fun () -> result := Some (body ())) in
  Sim.run plat.Platform.sim;
  match !result with Some r -> r | None -> Alcotest.fail "simulated thread did not finish"

let ms = Units.ms
let us = Units.us

(* ------------------------------------------------------------------ *)
(* Pipeline unit tests                                                  *)
(* ------------------------------------------------------------------ *)

let test_builtin_lookup () =
  List.iter
    (fun (name, p) ->
      match Faults.find name with
      | Some q -> Alcotest.(check string) name p.Faults.name q.Faults.name
      | None -> Alcotest.failf "builtin plan %s not found" name)
    Faults.builtin;
  Alcotest.(check bool) "unknown name" true (Faults.find "no-such-plan" = None)

(* Feed the same frame sequence through two instances of the same plan
   seeded identically: the outcomes must match event for event and byte
   for byte. *)
let test_feed_deterministic () =
  let p = plat () in
  let pool = Mpool.create p in
  let plan = Option.get (Faults.find "chaos") in
  in_sim p (fun () ->
      let run_once seed =
        let t = Faults.instantiate plan ~prng:(Prng.create seed) ~skip_bytes:21 in
        let events = ref [] in
        let outputs = ref [] in
        for i = 0 to 199 do
          let m = Msg.create pool 600 in
          Msg.fill_pattern m ~off:0 ~len:600 ~stream_off:(i * 600);
          let out =
            Faults.feed t ~now:(i * us 100.0) ~on_event:(fun e -> events := e :: !events) m
          in
          List.iter
            (fun (frame, extra) ->
              outputs := (Msg.to_string frame, extra) :: !outputs;
              Msg.destroy frame)
            out
        done;
        (!events, !outputs, Faults.dropped t, Faults.corrupted t, Faults.duplicated t)
      in
      let a = run_once 42 and b = run_once 42 in
      Alcotest.(check bool) "same outcomes" true (a = b);
      let c = run_once 43 in
      let ev_of (e, _, _, _, _) = List.length e in
      Alcotest.(check bool) "different seed plausibly differs" true
        (a <> c || ev_of a = ev_of c))

let test_bernoulli_rate () =
  let p = plat () in
  let pool = Mpool.create p in
  in_sim p (fun () ->
      let t =
        Faults.instantiate (Faults.bernoulli 0.2) ~prng:(Prng.create 7) ~skip_bytes:21
      in
      for _ = 1 to 2000 do
        List.iter
          (fun (m, _) -> Msg.destroy m)
          (Faults.feed t ~now:0 ~on_event:(fun _ -> ()) (Msg.create pool 100))
      done;
      let rate = float_of_int (Faults.dropped t) /. 2000.0 in
      Alcotest.(check bool)
        (Printf.sprintf "loss rate %.3f near 0.2" rate)
        true
        (rate > 0.1 && rate < 0.3))

(* Corruption must damage only the wire copy: a message sharing MNodes
   with the fed frame (the retransmission-queue situation) keeps its
   bytes. *)
let test_corrupt_spares_shared_nodes () =
  let p = plat () in
  let pool = Mpool.create p in
  let skip = 8 in
  in_sim p (fun () ->
      let t =
        Faults.instantiate
          (Faults.plan [ Faults.Corrupt { p = 1.0 } ])
          ~prng:(Prng.create 5) ~skip_bytes:skip
      in
      let original = Msg.create pool 64 in
      Msg.fill_pattern original ~off:0 ~len:64 ~stream_off:0;
      let before = Msg.to_string original in
      let flips = ref [] in
      let out =
        Faults.feed t ~now:0
          ~on_event:(fun e ->
            match e with Faults.Ev_corrupt { off; bit } -> flips := (off, bit) :: !flips | _ -> ())
          (Msg.dup original)
      in
      Alcotest.(check int) "one frame out" 1 (List.length out);
      Alcotest.(check int) "one flip" 1 (List.length !flips);
      let off, bit = List.hd !flips in
      Alcotest.(check bool) "flip past skip_bytes" true (off >= skip && off < 64);
      let wire = Msg.to_string (fst (List.hd out)) in
      Alcotest.(check string) "shared original untouched" before (Msg.to_string original);
      Alcotest.(check bool) "wire copy damaged" true (wire <> before);
      Alcotest.(check int) "damaged at the reported byte"
        (Char.code before.[off] lxor (1 lsl bit))
        (Char.code wire.[off]);
      List.iter (fun (m, _) -> Msg.destroy m) out;
      Msg.destroy original)

let test_duplicate_and_delays () =
  let p = plat () in
  let pool = Mpool.create p in
  in_sim p (fun () ->
      let t =
        Faults.instantiate
          (Faults.plan
             [
               Faults.Duplicate { p = 1.0 };
               Faults.Reorder { p = 1.0; hold_ns = 500 };
               Faults.Jitter { p = 1.0; spike_ns = 100 };
             ])
          ~prng:(Prng.create 9) ~skip_bytes:0
      in
      let out = Faults.feed t ~now:0 ~on_event:(fun _ -> ()) (Msg.create pool 50) in
      Alcotest.(check int) "original + one copy" 2 (List.length out);
      List.iter
        (fun (m, extra) ->
          Alcotest.(check bool)
            (Printf.sprintf "hold+jitter delay (%d)" extra)
            true
            (extra >= 500 && extra < 700);
          Msg.destroy m)
        out;
      Alcotest.(check int) "duplicated counter" 1 (Faults.duplicated t);
      Alcotest.(check int) "reordered counter (both copies)" 2 (Faults.reordered t))

let test_blackout_window () =
  let p = plat () in
  let pool = Mpool.create p in
  in_sim p (fun () ->
      let t =
        Faults.instantiate
          (Faults.plan
             [
               Faults.Blackout
                 { start_ns = ms 10.0; duration_ns = ms 5.0; period_ns = ms 100.0 };
             ])
          ~prng:(Prng.create 3) ~skip_bytes:0
      in
      let fate now =
        match Faults.feed t ~now ~on_event:(fun _ -> ()) (Msg.create pool 10) with
        | [] -> `Dropped
        | out ->
          List.iter (fun (m, _) -> Msg.destroy m) out;
          `Passed
      in
      Alcotest.(check bool) "before window" true (fate 0 = `Passed);
      Alcotest.(check bool) "inside window" true (fate (ms 12.0) = `Dropped);
      Alcotest.(check bool) "after window" true (fate (ms 16.0) = `Passed);
      Alcotest.(check bool) "next period" true (fate (ms 112.0) = `Dropped);
      Alcotest.(check int) "two blackout drops" 2 (Faults.dropped_blackout t))

let test_wan_rtt_per_flow () =
  let p = plat () in
  let pool = Mpool.create p in
  in_sim p (fun () ->
      let t =
        Faults.instantiate
          (Faults.plan [ Faults.Wan_rtt { base_ns = 1000; spread_ns = 500 } ])
          ~prng:(Prng.create 11) ~skip_bytes:0
      in
      (* A minimal unfragmented "IP" frame: proto, addresses and ports at
         their real offsets, everything else zero. *)
      let frame ~src ~sport =
        let m = Msg.create pool 40 in
        for i = 0 to 39 do
          Msg.set_u8 m i 0
        done;
        Msg.set_u8 m 9 6;
        Msg.set_u8 m 12 src;
        Msg.set_u8 m 16 99;
        Msg.set_u8 m 20 sport;
        m
      in
      let delay_of ~src ~sport =
        match Faults.feed t ~now:0 ~on_event:(fun _ -> ()) (frame ~src ~sport) with
        | [ (m, d) ] ->
          Msg.destroy m;
          d
        | _ -> Alcotest.fail "wan stage must pass exactly one frame"
      in
      let d1 = delay_of ~src:1 ~sport:10 in
      (* Same flow again, later: the draw is stable for the flow's life. *)
      let d1' = delay_of ~src:1 ~sport:10 in
      Alcotest.(check int) "same flow, same stretch" d1 d1';
      List.iter
        (fun d ->
          Alcotest.(check bool)
            (Printf.sprintf "stretch in [base, base+spread) (%d)" d)
            true
            (d >= 1000 && d < 1500))
        [ d1 ];
      (* Different flows draw different path lengths (a distribution, not
         one number).  Collect several and demand spread. *)
      let draws =
        List.map
          (fun (src, sport) -> delay_of ~src ~sport)
          [ (1, 10); (2, 10); (3, 10); (1, 11); (4, 20); (5, 30) ]
      in
      let distinct = List.sort_uniq compare draws in
      Alcotest.(check bool)
        (Printf.sprintf "flows spread across the RTT distribution (%d distinct)"
           (List.length distinct))
        true
        (List.length distinct >= 3);
      Alcotest.(check int) "all stretches counted" 8 (Faults.wan_stretched t))

(* ------------------------------------------------------------------ *)
(* Recovery oracle: a seeded defect must produce findings               *)
(* ------------------------------------------------------------------ *)

let clean_stream () =
  let d = Recovery.digest "hello world" in
  {
    Recovery.label = "tcp";
    sent_bytes = 11;
    received_bytes = 11;
    sent_digest = d;
    received_digest = d;
    established = true;
    drained = true;
    rexmits = 0;
  }

let obs ?(streams = [ clean_stream () ]) ?corruption ?udp () =
  { Recovery.run = "test"; streams; corruption; udp }

let test_oracle_clean () =
  let findings =
    Recovery.check
      (obs
         ~corruption:{ Recovery.injected = 3; caught = 3 }
         ~udp:
           {
             Recovery.injected = 10;
             duplicated = 1;
             delivered = 8;
             dropped_link = 2;
             dropped_proto = 1;
             dropped_pressure = 0;
           }
         ())
  in
  Alcotest.(check int) "no findings" 0 (List.length findings)

let test_oracle_catches_digest_mismatch () =
  let s = { (clean_stream ()) with Recovery.received_digest = Recovery.digest "hello worle" } in
  let findings = Recovery.check (obs ~streams:[ s ] ()) in
  Alcotest.(check bool) "digest finding" true
    (List.exists (fun f -> f.Finding.checker = "recovery") findings)

let test_oracle_catches_silent_corruption () =
  let findings =
    Recovery.check (obs ~corruption:{ Recovery.injected = 5; caught = 4 } ())
  in
  Alcotest.(check bool) "silent-corruption finding" true (findings <> [])

let test_oracle_catches_udp_imbalance () =
  let findings =
    Recovery.check
      (obs
         ~udp:
           {
             Recovery.injected = 10;
             duplicated = 0;
             delivered = 8;
             dropped_link = 1;
             dropped_proto = 0;
             dropped_pressure = 0;
           }
         ())
  in
  Alcotest.(check bool) "accounting finding" true (findings <> [])

let test_oracle_catches_wedged_stream () =
  let s = { (clean_stream ()) with Recovery.drained = false; received_bytes = 4 } in
  let findings = Recovery.check (obs ~streams:[ s ] ()) in
  Alcotest.(check bool) "liveness finding" true (findings <> [])

(* ------------------------------------------------------------------ *)
(* End-to-end chaos cells                                               *)
(* ------------------------------------------------------------------ *)

let test_chaos_builtins_recover () =
  List.iter
    (fun (name, plan) ->
      let o = Chaos.run_cell ~bytes:60_000 ~datagrams:300 ~plan ~disc:Lock.Fifo () in
      if not (Chaos.passed o) then
        Alcotest.failf "plan %s failed the oracle:\n%s\n%s" name (Chaos.to_line o)
          (String.concat "\n" (List.map Finding.to_string o.Chaos.findings)))
    Faults.builtin

(* The golden stream is printable for a negative seed too (a negative
   remainder once made Char.chr raise). *)
let test_chaos_negative_seed () =
  let o =
    Chaos.run_cell ~bytes:30_000 ~datagrams:100 ~seed:(-1) ~plan:Faults.none
      ~disc:Lock.Unfair ()
  in
  if not (Chaos.passed o) then Alcotest.failf "seed -1: %s" (Chaos.to_line o)

let test_chaos_cell_deterministic () =
  let plan = Option.get (Faults.find "chaos") in
  let line () =
    Chaos.to_line (Chaos.run_cell ~bytes:60_000 ~datagrams:300 ~plan ~disc:Lock.Unfair ())
  in
  Alcotest.(check string) "same cell twice" (line ()) (line ())

(* The cksum_under_lock ablation's TCP world, built the way
   [Chaos.tcp_world] builds its own: a golden stream over the faulted
   link, judged by the recovery oracle. *)
let ablation_findings ~plan ~tcp_locking =
  let plat = Platform.create ~seed:1 ~lock_disc:Lock.Fifo Arch.challenge_100 in
  let cfg =
    { Tcp.default_config with Tcp.mss = 1024; locking = tcp_locking; cksum_under_lock = true }
  in
  let a = Stack.create plat ~tcp_config:cfg ~local_addr:0x0a000001 () in
  let b = Stack.create plat ~tcp_config:cfg ~local_addr:0x0a000002 () in
  let link = Link.connect plat ~bandwidth_mbps:40.0 ~latency:(us 200.0) ~plan ~a ~b () in
  let payload = String.init 120_000 (fun i -> Char.chr (32 + (i mod 95))) in
  let received = Buffer.create (String.length payload) in
  let established = ref false and eof = ref false in
  let _ =
    Sim.spawn plat.Platform.sim ~cpu:0 ~name:"server" (fun () ->
        let lst = Socket.Listener.listen plat b.Stack.pool b.Stack.tcp ~port:80 in
        let sock = Socket.Listener.accept lst in
        let rec drain () =
          match Socket.recv_string sock with
          | Some s ->
            Buffer.add_string received s;
            drain ()
          | None -> eof := true
        in
        drain ())
  in
  let _ =
    Sim.spawn plat.Platform.sim ~cpu:1 ~name:"client" (fun () ->
        Sim.delay plat.Platform.sim (ms 1.0);
        let sock =
          Socket.connect plat a.Stack.pool a.Stack.tcp ~local_port:5000
            ~remote_addr:0x0a000002 ~remote_port:80
        in
        established := true;
        let rec send_from off =
          if off < String.length payload then begin
            let len = min 1000 (String.length payload - off) in
            Socket.send_string sock (String.sub payload off len);
            send_from (off + len)
          end
        in
        send_from 0;
        Socket.close sock)
  in
  Sim.run ~until:(Units.sec 300.0) plat.Platform.sim;
  let got = Buffer.contents received in
  let caught =
    Ip.header_failures a.Stack.ip + Ip.header_failures b.Stack.ip
    + Tcp.checksum_failures a.Stack.tcp + Tcp.checksum_failures b.Stack.tcp
  in
  let injected = (Link.fault_stats link).Link.corrupted in
  Alcotest.(check bool) "the plan corrupted something" true (injected > 0);
  Recovery.check
    {
      Recovery.run = "ablation/" ^ Config.locking_label tcp_locking;
      streams =
        [
          {
            Recovery.label = "tcp";
            sent_bytes = String.length payload;
            received_bytes = String.length got;
            sent_digest = Recovery.digest payload;
            received_digest = Recovery.digest got;
            established = !established;
            drained = !eof && Link.in_flight link = 0;
            rexmits = 0;
          };
        ];
      corruption = Some { Recovery.injected; caught };
      udp = None;
    }

(* Every discipline rejects every corrupted segment: the [corrupt] plan
   through the chaos cell under each discipline (the matrix covers only
   TCP-1 and SCR), and under each lock-holding discipline with checksums
   placed inside the connection locks. *)
let test_every_discipline_rejects_corruption () =
  let plan = Option.get (Faults.find "corrupt") in
  let expect_clean what findings =
    if findings <> [] then
      Alcotest.failf "%s:\n%s" what (String.concat "\n" (List.map Finding.to_string findings))
  in
  List.iter
    (fun tcp_locking ->
      let o =
        Chaos.run_cell ~bytes:120_000 ~datagrams:100 ~plan ~disc:Lock.Fifo ~tcp_locking ()
      in
      expect_clean (Chaos.to_line o) o.Chaos.findings)
    [ Tcp.One; Tcp.Two; Tcp.Six; Tcp.Scr; Tcp.Rcu ];
  List.iter
    (fun tcp_locking ->
      expect_clean
        ("cksum_under_lock " ^ Config.locking_label tcp_locking)
        (ablation_findings ~plan ~tcp_locking))
    [ Tcp.One; Tcp.Two; Tcp.Six; Tcp.Rcu ]

(* Random small plans: whatever the faults do, TCP must deliver the exact
   byte stream and every UDP datagram must be accounted for. *)
let prop_random_plans_recover =
  let open QCheck in
  (* Stages that destroy frames outright (loss, corruption the checksum
     will reject).  At most one per plan: stacking them multiplies the
     per-frame kill rate, and past ~15% sustained loss the faithful Net/2
     backoff (Karn resets the shift only on a timed, retransmission-free
     ack, so a loss in every window ratchets it to the 64 s cap) needs
     more than the cell's 300 s horizon to drain — a stall, not a
     recovery bug, as the ext-faults figure documents at 3% Bernoulli. *)
  let lossy_gen =
    Gen.oneof
      [
        Gen.map (fun p -> Faults.Bernoulli_loss { p }) (Gen.float_bound_inclusive 0.1);
        Gen.map2
          (fun p_gb p_bg ->
            Faults.Gilbert_elliott { p_gb; p_bg = 0.2 +. p_bg; loss_good = 0.0; loss_bad = 0.4 })
          (Gen.float_bound_inclusive 0.05)
          (Gen.float_bound_inclusive 0.4);
        Gen.map (fun p -> Faults.Corrupt { p }) (Gen.float_bound_inclusive 0.1);
      ]
  in
  (* Stages every frame survives (possibly late, doubled or misordered). *)
  let benign_gen =
    Gen.oneof
      [
        Gen.map (fun p -> Faults.Duplicate { p }) (Gen.float_bound_inclusive 0.15);
        Gen.map2
          (fun p hold -> Faults.Reorder { p; hold_ns = 1 + hold })
          (Gen.float_bound_inclusive 0.2)
          (Gen.int_bound (us 800.0));
        Gen.map2
          (fun p spike -> Faults.Jitter { p; spike_ns = 1 + spike })
          (Gen.float_bound_inclusive 0.2)
          (Gen.int_bound (ms 1.0));
        Gen.map2
          (fun start dur ->
            Faults.Blackout { start_ns = start; duration_ns = 1 + dur; period_ns = 0 })
          (Gen.int_bound (ms 40.0))
          (Gen.int_bound (ms 15.0));
      ]
  in
  let stage_str = function
    | Faults.Bernoulli_loss { p } -> Printf.sprintf "loss(%.3f)" p
    | Faults.Gilbert_elliott { p_gb; p_bg; loss_bad; _ } ->
      Printf.sprintf "ge(%.3f,%.3f,bad=%.2f)" p_gb p_bg loss_bad
    | Faults.Duplicate { p } -> Printf.sprintf "dup(%.3f)" p
    | Faults.Reorder { p; hold_ns } -> Printf.sprintf "reorder(%.3f,%dns)" p hold_ns
    | Faults.Corrupt { p } -> Printf.sprintf "corrupt(%.3f)" p
    | Faults.Jitter { p; spike_ns } -> Printf.sprintf "jitter(%.3f,%dns)" p spike_ns
    | Faults.Wan_rtt { base_ns; spread_ns } ->
      Printf.sprintf "wan(%dns,%dns)" base_ns spread_ns
    | Faults.Blackout { start_ns; duration_ns; period_ns } ->
      Printf.sprintf "blackout(%d,%d,%d)" start_ns duration_ns period_ns
  in
  let plan_gen =
    Gen.(
      opt lossy_gen >>= fun lossy ->
      map
        (fun benign -> match lossy with None -> benign | Some s -> s :: benign)
        (list_size (1 -- 2) benign_gen))
  in
  let arb =
    make
      ~print:(fun stages -> String.concat " | " (List.map stage_str stages))
      plan_gen
  in
  Test.make ~name:"random fault plans recover exactly" ~count:8 arb (fun stages ->
      let plan = Faults.plan ~name:"random" stages in
      let o = Chaos.run_cell ~bytes:30_000 ~datagrams:200 ~plan ~disc:Lock.Unfair () in
      if not (Chaos.passed o) then
        Test.fail_reportf "oracle findings:\n%s\n%s" (Chaos.to_line o)
          (String.concat "\n" (List.map Finding.to_string o.Chaos.findings));
      true)

(* ------------------------------------------------------------------ *)
(* Mpool exhaustion under a blackout-induced retransmission pile-up     *)
(* ------------------------------------------------------------------ *)

let test_mpool_exhaustion_typed () =
  let p = plat () in
  let pool = Mpool.create ~capacity:4 p in
  in_sim p (fun () ->
      Alcotest.(check int) "capacity recorded" 4 (Mpool.pool_capacity pool);
      let nodes = List.init 4 (fun _ -> Mpool.alloc pool 64) in
      Alcotest.check_raises "fifth alloc refused"
        (Mpool.Out_of_mnodes { requested = 64; live = 4; capacity = 4 })
        (fun () -> ignore (Mpool.alloc pool 64));
      Mpool.decref pool (List.hd nodes);
      let again = Mpool.alloc pool 64 in
      Alcotest.(check int) "back at capacity" 4 (Mpool.live_nodes pool);
      List.iter (fun n -> Mpool.decref pool n) (again :: List.tl nodes))

(* A paced sender over a 40 Mbit/s link keeps ~13 nodes live in steady
   state; a 40 ms blackout stalls the ACK clock while the application
   keeps writing, so unacknowledged data would pile up in the send
   buffer without bound (high-water ~170 nodes against a 60-node pool).
   Graceful degradation is what keeps the cell alive: the pool's soft
   watermark (30 nodes) parks the application inside [Tcp.send] until
   the post-blackout retransmission drains the buffer, so the run must
   complete byte-exactly instead of dying with [Out_of_mnodes]. *)
let blackout_pileup ~plan =
  let p = Platform.create ~seed:1 Arch.challenge_100 in
  let cfg = { Tcp.default_config with Tcp.mss = 1024 } in
  let a =
    Stack.create p ~tcp_config:cfg ~pool_capacity:60 ~local_addr:0x0a000001 ()
  in
  let b = Stack.create p ~tcp_config:cfg ~local_addr:0x0a000002 () in
  let _link =
    Link.connect p ~bandwidth_mbps:40.0 ~latency:(us 200.0) ~plan ~a ~b ()
  in
  let got_eof = ref false in
  let _ =
    Sim.spawn p.Platform.sim ~cpu:0 ~name:"srv" (fun () ->
        let lst = Socket.Listener.listen p b.Stack.pool b.Stack.tcp ~port:80 in
        let sock = Socket.Listener.accept lst in
        let rec drain () =
          match Socket.recv_string sock with
          | Some _ -> drain ()
          | None -> got_eof := true
        in
        drain ())
  in
  let _ =
    Sim.spawn p.Platform.sim ~cpu:1 ~name:"cli" (fun () ->
        Sim.delay p.Platform.sim (ms 1.0);
        let sock =
          Socket.connect p a.Stack.pool a.Stack.tcp ~local_port:5000
            ~remote_addr:0x0a000002 ~remote_port:80
        in
        for _ = 1 to 200 do
          Socket.send_string sock (String.make 1000 'x');
          Sim.delay p.Platform.sim (us 500.0)
        done;
        Socket.close sock)
  in
  match Sim.run ~until:(Units.sec 300.0) p.Platform.sim with
  | () ->
    if !got_eof then `Completed (Mpool.pressure_entries a.Stack.pool)
    else `Wedged
  | exception Mpool.Out_of_mnodes { live; capacity; _ } -> `Exhausted (live, capacity)

let test_mpool_survives_clean_run () =
  match blackout_pileup ~plan:Faults.none with
  | `Completed _ -> ()
  | `Wedged -> Alcotest.fail "clean run wedged"
  | `Exhausted _ -> Alcotest.fail "clean run exhausted the pool"

let test_mpool_degrades_under_blackout () =
  let plan = Option.get (Faults.find "blackout") in
  match blackout_pileup ~plan with
  | `Completed pressure_entries ->
    (* Completing is not enough: the admission path must actually have
       engaged, or the cell just never reached the watermark. *)
    Alcotest.(check bool)
      "pool pressure engaged during the blackout" true (pressure_entries > 0)
  | `Exhausted (live, capacity) ->
    Alcotest.failf "escaped Out_of_mnodes (%d live of %d): degradation failed" live
      capacity
  | `Wedged -> Alcotest.fail "run wedged: blocked sender was never resumed"

let suites =
  [
    ( "faults.pipeline",
      [
        Alcotest.test_case "builtin lookup" `Quick test_builtin_lookup;
        Alcotest.test_case "feed is deterministic" `Quick test_feed_deterministic;
        Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
        Alcotest.test_case "corrupt spares shared nodes" `Quick
          test_corrupt_spares_shared_nodes;
        Alcotest.test_case "duplicate and delays" `Quick test_duplicate_and_delays;
        Alcotest.test_case "blackout window" `Quick test_blackout_window;
        Alcotest.test_case "wan rtt per-flow stretch" `Quick test_wan_rtt_per_flow;
      ] );
    ( "faults.oracle",
      [
        Alcotest.test_case "clean obs passes" `Quick test_oracle_clean;
        Alcotest.test_case "catches digest mismatch" `Quick
          test_oracle_catches_digest_mismatch;
        Alcotest.test_case "catches silent corruption" `Quick
          test_oracle_catches_silent_corruption;
        Alcotest.test_case "catches udp imbalance" `Quick test_oracle_catches_udp_imbalance;
        Alcotest.test_case "catches wedged stream" `Quick test_oracle_catches_wedged_stream;
      ] );
    ( "faults.chaos",
      [
        Alcotest.test_case "builtin plans recover" `Quick test_chaos_builtins_recover;
        Alcotest.test_case "cells are deterministic" `Quick test_chaos_cell_deterministic;
        Alcotest.test_case "negative seed recovers" `Quick test_chaos_negative_seed;
        Qrand.to_alcotest prop_random_plans_recover;
        Alcotest.test_case "every discipline rejects corruption" `Quick
          test_every_discipline_rejects_corruption;
      ] );
    ( "faults.mpool",
      [
        Alcotest.test_case "typed exhaustion" `Quick test_mpool_exhaustion_typed;
        Alcotest.test_case "survives clean paced run" `Quick test_mpool_survives_clean_run;
        Alcotest.test_case "degrades gracefully under blackout pile-up" `Quick
          test_mpool_degrades_under_blackout;
      ] );
  ]
