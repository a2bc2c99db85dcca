(* End-to-end shape tests: the qualitative claims of the paper must hold
   in the reproduction at reduced (fast) sweep settings. *)

open Pnp_engine
open Pnp_harness

let fast = Pnp_util.Units.ms 250.0

let cfg ?(arch = Arch.challenge_100) ?(procs = 8) ?(side = Config.Recv)
    ?(protocol = Config.Tcp) ?(payload = 4096) ?(checksum = true)
    ?(lock_disc = Lock.Unfair) ?(tcp_locking = Pnp_proto.Tcp.One)
    ?(assume_in_order = false) ?(ticketing = false)
    ?(refcnt_mode = Atomic_ctr.Ll_sc) ?(message_caching = true) ?(map_locking = true)
    ?(connections = 1) ?(placement = Config.Packet_level) ?(seed = 3) () =
  Config.v ~arch ~procs ~side ~protocol ~payload ~checksum ~lock_disc ~tcp_locking
    ~assume_in_order ~ticketing ~refcnt_mode ~message_caching ~map_locking ~connections
    ~placement ~measure:fast ~seed ()

let tput c = (Run.run c).Run.throughput_mbps

let check_gt name a b =
  if not (a > b) then Alcotest.failf "%s: expected %.1f > %.1f" name a b

let check_between name lo x hi =
  if not (x >= lo && x <= hi) then
    Alcotest.failf "%s: expected %.1f within [%.1f, %.1f]" name x lo hi

(* ------------------------------------------------------------------ *)
(* Baseline shapes (Figs 2-9)                                          *)
(* ------------------------------------------------------------------ *)

let test_udp_send_scales () =
  let t1 = tput (cfg ~protocol:Config.Udp ~side:Config.Send ~procs:1 ()) in
  let t8 = tput (cfg ~protocol:Config.Udp ~side:Config.Send ~procs:8 ()) in
  check_gt "UDP send speedup at 8 CPUs > 6x" (t8 /. t1) 6.0

let test_udp_recv_scales_but_levels () =
  let t1 = tput (cfg ~protocol:Config.Udp ~side:Config.Recv ~checksum:false ~procs:1 ()) in
  let t8 = tput (cfg ~protocol:Config.Udp ~side:Config.Recv ~checksum:false ~procs:8 ()) in
  let s = t8 /. t1 in
  check_between "UDP recv ck-off speedup at 8 CPUs" 4.0 s 7.5

let test_tcp_send_saturates () =
  let t1 = tput (cfg ~side:Config.Send ~checksum:false ~procs:1 ()) in
  let t8 = tput (cfg ~side:Config.Send ~checksum:false ~procs:8 ()) in
  (* The paper: levels off around 215 Mbit/s; speedup stays near 2. *)
  check_between "TCP send saturation level" 180.0 t8 260.0;
  check_between "TCP send speedup at 8 CPUs" 1.6 (t8 /. t1) 3.2

let test_tcp_send_less_parallel_than_udp () =
  let u8 = tput (cfg ~protocol:Config.Udp ~side:Config.Send ~procs:8 ()) in
  let u1 = tput (cfg ~protocol:Config.Udp ~side:Config.Send ~procs:1 ()) in
  let t8 = tput (cfg ~side:Config.Send ~procs:8 ()) in
  let t1 = tput (cfg ~side:Config.Send ~procs:1 ()) in
  check_gt "UDP speedup dominates TCP's" (u8 /. u1) (2.0 *. (t8 /. t1))

let test_tcp_recv_drop_beyond_peak () =
  (* Figure 8: mutex receive throughput peaks around 4-5 CPUs and then
     falls off. *)
  let at p = tput (cfg ~procs:p ()) in
  let t4 = at 4 and t5 = at 5 and t8 = at 8 in
  let peak = max t4 t5 in
  check_gt "receive throughput drops past the peak" (peak *. 0.95) t8

let test_checksum_slows_but_speeds_up_better () =
  (* Larger packets with checksumming show the best relative speedup. *)
  let s ~payload ~checksum =
    let t1 = tput (cfg ~protocol:Config.Udp ~side:Config.Recv ~payload ~checksum ~procs:1 ()) in
    let t8 = tput (cfg ~protocol:Config.Udp ~side:Config.Recv ~payload ~checksum ~procs:8 ()) in
    t8 /. t1
  in
  check_gt "4K ck-on speedup >= 1K ck-off speedup"
    (s ~payload:4096 ~checksum:true +. 0.2)
    (s ~payload:1024 ~checksum:false)

(* ------------------------------------------------------------------ *)
(* Ordering (Fig 10, Table 1, Fig 11, send-side aside)                 *)
(* ------------------------------------------------------------------ *)

let test_ordering_table1_shape () =
  let ooo disc p = (Run.run (cfg ~lock_disc:disc ~procs:p ())).Run.ooo_pct in
  let mutex8 = ooo Lock.Unfair 8 in
  let mcs8 = ooo Lock.Fifo 8 in
  check_gt "mutex misorders a lot at 8 CPUs" mutex8 20.0;
  check_gt "MCS misorders far less" (mutex8 /. 4.0) mcs8;
  let mutex4 = ooo Lock.Unfair 4 in
  check_gt "misordering grows with processors" mutex8 mutex4

let test_mcs_recovers_throughput () =
  let t disc = tput (cfg ~lock_disc:disc ~procs:8 ()) in
  check_gt "MCS beats mutex at 8 CPUs" (t Lock.Fifo) (t Lock.Unfair *. 1.2)

let test_assumed_in_order_is_upper_boundish () =
  let bound = tput (cfg ~assume_in_order:true ~procs:8 ()) in
  let mutex = tput (cfg ~procs:8 ()) in
  check_gt "assumed-in-order above mutex" bound mutex

let test_single_cpu_never_misorders () =
  let r = Run.run (cfg ~procs:1 ()) in
  Alcotest.(check (float 0.0)) "no ooo on one CPU" 0.0 r.Run.ooo_pct

let test_ticketing_costs_throughput () =
  let t tick = tput (cfg ~lock_disc:Lock.Fifo ~ticketing:tick ~procs:8 ~seed:9 ()) in
  check_gt "ticketing does not help" (t false *. 1.02) (t true)

let test_send_side_misordering_below_one_pct () =
  let r = Run.run (cfg ~side:Config.Send ~procs:8 ()) in
  if r.Run.wire_misorder_pct >= 1.0 then
    Alcotest.failf "wire misordering %.2f%% (paper: <1%%)" r.Run.wire_misorder_pct

(* ------------------------------------------------------------------ *)
(* Multiple connections (Fig 12)                                       *)
(* ------------------------------------------------------------------ *)

let test_multiconn_scales () =
  let single = tput (cfg ~lock_disc:Lock.Fifo ~procs:8 ()) in
  let multi =
    tput
      (cfg ~lock_disc:Lock.Fifo ~procs:8 ~connections:8
         ~placement:Config.Connection_level ())
  in
  check_gt "one connection per CPU scales further" multi (single *. 1.25)

(* ------------------------------------------------------------------ *)
(* Locking granularity (Figs 13, 14)                                   *)
(* ------------------------------------------------------------------ *)

let test_simple_locking_wins () =
  List.iter
    (fun side ->
      let t l = tput (cfg ~side ~lock_disc:Lock.Fifo ~tcp_locking:l ~procs:8 ()) in
      let t1 = t Pnp_proto.Tcp.One and t6 = t Pnp_proto.Tcp.Six in
      check_gt
        (Printf.sprintf "TCP-1 beats TCP-6 (%s)" (Config.side_to_string side))
        t1 t6)
    [ Config.Send; Config.Recv ]

let test_tcp2_between () =
  let t l = tput (cfg ~side:Config.Send ~lock_disc:Lock.Fifo ~tcp_locking:l ~procs:8 ()) in
  check_gt "TCP-2 no better than TCP-1 (send)"
    (t Pnp_proto.Tcp.One *. 1.05)
    (t Pnp_proto.Tcp.Two)

(* ------------------------------------------------------------------ *)
(* Atomic ops (Fig 15) and message caching (Fig 16)                    *)
(* ------------------------------------------------------------------ *)

let test_atomic_ops_help_receive () =
  let t m = tput (cfg ~side:Config.Recv ~refcnt_mode:m ~procs:8 ~lock_disc:Lock.Fifo ()) in
  check_gt "LL/SC refcounts beat lock-inc-unlock"
    (t Atomic_ctr.Ll_sc)
    (t Atomic_ctr.Locked *. 1.02)

let test_message_caching_helps () =
  let t c = tput (cfg ~side:Config.Send ~message_caching:c ~procs:8 ()) in
  check_gt "per-thread MNode caches help" (t true) (t false *. 1.01)

(* ------------------------------------------------------------------ *)
(* Architecture comparison (Figs 17, 18) and micro results             *)
(* ------------------------------------------------------------------ *)

let test_faster_machine_higher_throughput () =
  let t arch = tput (cfg ~arch ~procs:4 ()) in
  let c150 = t Arch.challenge_150 and c100 = t Arch.challenge_100 in
  let p33 = t Arch.power_series_33 in
  check_gt "150MHz above 100MHz" c150 c100;
  check_gt "100MHz above Power Series" c100 p33

let test_uniprocessor_gap_25_to_50_pct () =
  let t arch = tput (cfg ~arch ~procs:1 ~protocol:Config.Udp ~side:Config.Send ()) in
  let ratio = t Arch.challenge_100 /. t Arch.power_series_33 in
  check_between "Challenge only 25-50% faster at 1 CPU despite 3x clock" 1.15 ratio 1.75

let test_power_series_best_speedup () =
  let speedup arch =
    tput (cfg ~arch ~procs:4 ()) /. tput (cfg ~arch ~procs:1 ())
  in
  check_gt "Power Series speedup best (sync bus)"
    (speedup Arch.power_series_33 +. 0.01)
    (speedup Arch.challenge_100)

let test_lock_wait_dominates_at_8 () =
  let r = Run.run (cfg ~side:Config.Recv ~procs:8 ()) in
  check_gt "most time spent waiting on the connection lock" r.Run.lock_wait_pct 40.0;
  let s = Run.run (cfg ~side:Config.Send ~procs:8 ()) in
  check_gt "send side waits too" s.Run.lock_wait_pct 40.0

let test_map_unlocking_helps_a_little () =
  let t ml = tput (cfg ~protocol:Config.Udp ~side:Config.Recv ~map_locking:ml ~procs:8 ()) in
  let gain = 100.0 *. (t false -. t true) /. t true in
  check_between "unlocked maps gain small and positive" 0.0 gain 25.0

let test_checksum_microbench () =
  let opts = { Pnp_figures.Opts.quick with Pnp_figures.Opts.max_procs = 8 } in
  let data = Pnp_figures.Fig_micro.checksum_points opts in
  List.iter
    (fun (p, mb) ->
      let per_cpu = mb /. float_of_int p in
      check_between (Printf.sprintf "per-CPU checksum rate at %d CPUs" p) 30.0 per_cpu 34.0)
    data

let test_run_metrics_consistent () =
  let r = Run.run (cfg ~procs:2 ()) in
  check_gt "packets counted" (float_of_int r.Run.packets) 10.0;
  check_gt "throughput positive" r.Run.throughput_mbps 1.0;
  check_between "cache hit rate high with caching on" 50.0 r.Run.cache_hit_pct 100.0

let test_deterministic_runs () =
  let r1 = Run.run (cfg ~procs:4 ()) in
  let r2 = Run.run (cfg ~procs:4 ()) in
  Alcotest.(check (float 0.0)) "same seed, same throughput" r1.Run.throughput_mbps
    r2.Run.throughput_mbps;
  let r3 = Run.run (cfg ~procs:4 ~seed:99 ()) in
  Alcotest.(check bool) "different seed perturbs" true
    (abs_float (r3.Run.throughput_mbps -. r1.Run.throughput_mbps) > 1e-9)

(* Every [Run.result] field of every world, exactly: floats in hex, so a
   refactor of the world assembly that moves any counter by one ulp fails
   here even where no figure prints the field. *)
let world_pins =
  let short ?(measure = Pnp_util.Units.ms 50.0) =
    Config.v ~procs:4 ~warmup:(Pnp_util.Units.ms 20.0) ~measure
  in
  [
    ( "udp send",
      short ~protocol:Config.Udp ~side:Config.Send (),
      "tput=0x1.d9d3458cd20bp+8 goodput=0x1.d9d3458cd20bp+8 packets=723 \
       ooo=0x0p+0 wire=0x0p+0 pred=0x0p+0 rexmit=0x0p+0 \
       lock=0x0p+0 cache=0x1.9p+6 scr=0/0/0" );
    ( "udp recv",
      short ~protocol:Config.Udp ~side:Config.Recv ~connections:2 (),
      "tput=0x1.da7b0b3919264p+8 goodput=0x1.da7b0b3919264p+8 packets=724 \
       ooo=0x0p+0 wire=0x0p+0 pred=0x0p+0 rexmit=0x0p+0 \
       lock=0x0p+0 cache=0x0p+0 scr=0/0/0" );
    ( "tcp send 2% loss",
      short ~side:Config.Send ~loss_rate:0.02 ~measure:(Pnp_util.Units.ms 1200.0) (),
      "tput=0x1.39bccc5cf3af5p+4 goodput=0x1.37fd67e6e0bbep+4 packets=733 \
       ooo=0x0p+0 wire=0x1.17665484b701cp+1 pred=0x1.9p+6 rexmit=0x1.00577f7cc0c4ep+1 \
       lock=0x1.51cf9e22062bep+2 cache=0x1.755236f73a975p+6 scr=0/0/0" );
    ( "tcp recv mcs ticketing",
      short ~side:Config.Recv ~lock_disc:Lock.Fifo ~ticketing:true (),
      "tput=0x1.cd5f99c38b04bp+7 goodput=0x1.cd5f99c38b04bp+7 packets=352 \
       ooo=0x1.22e8ba2e8ba2fp+2 wire=0x0p+0 pred=0x1.19d1745d1745dp+3 rexmit=0x0p+0 \
       lock=0x1.61f3e3e29307bp+4 cache=0x1.9p+6 scr=0/0/0" );
    ( "steered last-sender recv",
      short ~side:Config.Recv ~connections:8 ~steering:Pnp_driver.Steer.Last_sender (),
      "tput=0x1.192641b328b6ep+8 goodput=0x1.192641b328b6ep+8 packets=429 \
       ooo=0x1.f21cfb2b78c13p+4 wire=0x0p+0 pred=0x1.8f0f0f0f0f0f1p+5 rexmit=0x0p+0 \
       lock=0x1.724da09cc319cp+1 cache=0x1.9p+6 scr=0/0/0" );
    ( "scr recv",
      short ~side:Config.Recv ~tcp_locking:Pnp_proto.Tcp.Scr (),
      "tput=0x1.2ec6bce8533b1p+8 goodput=0x1.2ec6bce8533b1p+8 packets=462 \
       ooo=0x1.ba552626b4402p+0 wire=0x0p+0 pred=0x1.ba552626b4402p+1 rexmit=0x0p+0 \
       lock=0x0p+0 cache=0x1.9p+6 scr=463/1388/0" );
    ( "rcu recv",
      short ~side:Config.Recv ~tcp_locking:Pnp_proto.Tcp.Rcu (),
      "tput=0x1.f4b1ee2435697p+7 goodput=0x1.f4b1ee2435697p+7 packets=382 \
       ooo=0x1.4f141ace688b6p+3 wire=0x0p+0 pred=0x1.2961d7ca632efp+4 rexmit=0x0p+0 \
       lock=0x1.147dd76683c29p+4 cache=0x1.9p+6 scr=0/0/0" );
    ( "connection-level offered load",
      short ~side:Config.Recv ~connections:4 ~placement:Config.Connection_level
        ~skew:1.0 ~offered_mbps:200.0 (),
      "tput=0x1.719f7f8ca8199p+7 goodput=0x1.719f7f8ca8199p+7 packets=282 \
       ooo=0x0p+0 wire=0x0p+0 pred=0x0p+0 rexmit=0x0p+0 \
       lock=0x0p+0 cache=0x1.9p+6 scr=0/0/0" );
  ]

let show_result (r : Run.result) =
  Printf.sprintf
    "tput=%h goodput=%h packets=%d \
       ooo=%h wire=%h pred=%h rexmit=%h \
       lock=%h cache=%h scr=%d/%d/%d"
    r.Run.throughput_mbps r.Run.goodput_mbps r.Run.packets r.Run.ooo_pct
    r.Run.wire_misorder_pct r.Run.pred_miss_pct r.Run.rexmit_pct r.Run.lock_wait_pct
    r.Run.cache_hit_pct r.Run.scr_appends r.Run.scr_replayed r.Run.scr_resyncs

let test_world_pins () =
  List.iter
    (fun (name, c, expected) ->
      Alcotest.(check string) name expected (show_result (Run.run c)))
    world_pins

let test_profiler_collapse () =
  let check name expected frames =
    Alcotest.(check string) name expected (Profiler.collapse frames)
  in
  check "named stack" "main;Run.run;Sim.run" [ "main"; "Run.run"; "Sim.run" ];
  check "unnamed leaf folds into its caller" "main;Sim.run" [ "main"; "Sim.run"; "?"; "?" ];
  check "unnamed middle frames fold too" "main;Lock.acquire;Sim.delay"
    [ "main"; "?"; "Lock.acquire"; "?"; "?"; "Sim.delay" ];
  check "profiler frames dropped" "main;Eventq.add"
    [ "main"; "Eventq.add"; "Pnp_harness__Profiler.handler"; "Pnp_harness__Profiler.record" ];
  check "nothing named" "(unknown)" [ "?"; "?" ];
  check "empty" "(unknown)" []

let suites =
  [
    ( "harness.baseline",
      [
        Alcotest.test_case "UDP send scales" `Quick test_udp_send_scales;
        Alcotest.test_case "UDP recv scales but levels" `Quick test_udp_recv_scales_but_levels;
        Alcotest.test_case "TCP send saturates ~215" `Quick test_tcp_send_saturates;
        Alcotest.test_case "TCP less parallel than UDP" `Quick
          test_tcp_send_less_parallel_than_udp;
        Alcotest.test_case "TCP recv drops past peak" `Quick test_tcp_recv_drop_beyond_peak;
        Alcotest.test_case "checksum improves relative speedup" `Quick
          test_checksum_slows_but_speeds_up_better;
      ] );
    ( "harness.ordering",
      [
        Alcotest.test_case "table 1 shape" `Quick test_ordering_table1_shape;
        Alcotest.test_case "MCS recovers throughput" `Quick test_mcs_recovers_throughput;
        Alcotest.test_case "assumed in-order is bound" `Quick
          test_assumed_in_order_is_upper_boundish;
        Alcotest.test_case "1 CPU never misorders" `Quick test_single_cpu_never_misorders;
        Alcotest.test_case "ticketing costs throughput" `Quick test_ticketing_costs_throughput;
        Alcotest.test_case "send wire misorder < 1%" `Quick
          test_send_side_misordering_below_one_pct;
      ] );
    ( "harness.structure",
      [
        Alcotest.test_case "multiconn scales" `Quick test_multiconn_scales;
        Alcotest.test_case "simple locking wins" `Quick test_simple_locking_wins;
        Alcotest.test_case "TCP-2 <= TCP-1" `Quick test_tcp2_between;
        Alcotest.test_case "atomic ops help" `Quick test_atomic_ops_help_receive;
        Alcotest.test_case "message caching helps" `Quick test_message_caching_helps;
      ] );
    ( "harness.arch",
      [
        Alcotest.test_case "faster machine higher throughput" `Quick
          test_faster_machine_higher_throughput;
        Alcotest.test_case "uniprocessor gap 25-50%" `Quick test_uniprocessor_gap_25_to_50_pct;
        Alcotest.test_case "Power Series best speedup" `Quick test_power_series_best_speedup;
        Alcotest.test_case "lock wait dominates at 8" `Quick test_lock_wait_dominates_at_8;
        Alcotest.test_case "map unlocking aside" `Quick test_map_unlocking_helps_a_little;
        Alcotest.test_case "checksum microbench 32MB/s" `Quick test_checksum_microbench;
        Alcotest.test_case "metrics consistent" `Quick test_run_metrics_consistent;
        Alcotest.test_case "deterministic given seed" `Quick test_deterministic_runs;
        Alcotest.test_case "every result field of every world" `Quick test_world_pins;
      ] );
    ( "harness.profiler",
      [ Alcotest.test_case "collapse folds unnamed frames" `Quick test_profiler_collapse ] );
  ]
