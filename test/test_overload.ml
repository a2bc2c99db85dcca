(* Overload robustness: fairness/percentile statistics, the soft-watermark
   admission machinery, the liveness watchdog, and the incast /
   shared-bottleneck scenarios with their end-to-end oracle. *)

open Pnp_engine
open Pnp_util
open Pnp_xkern
open Pnp_proto
open Pnp_harness
open Pnp_analysis

let plat ?(seed = 17) () = Platform.create ~seed Arch.challenge_100
let ms = Units.ms

let in_sim plat body =
  let result = ref None in
  let _ = Sim.spawn plat.Platform.sim ~name:"test" (fun () -> result := Some (body ())) in
  Sim.run plat.Platform.sim;
  match !result with Some r -> r | None -> Alcotest.fail "simulated thread did not finish"

let feq name expected got =
  Alcotest.(check (float 1e-9)) name expected got

(* ------------------------------------------------------------------ *)
(* Report statistics                                                    *)
(* ------------------------------------------------------------------ *)

let test_jain () =
  feq "even split" 1.0 (Report.jain [ 1.0; 1.0; 1.0; 1.0 ]);
  feq "one flow has everything" 0.25 (Report.jain [ 1.0; 0.0; 0.0; 0.0 ]);
  (* (4+2)^2 / (2 * (16+4)) = 36/40 *)
  feq "two-to-one" 0.9 (Report.jain [ 4.0; 2.0 ]);
  feq "empty" 1.0 (Report.jain []);
  feq "all zero" 1.0 (Report.jain [ 0.0; 0.0; 0.0 ]);
  feq "scale invariant" (Report.jain [ 4.0; 2.0 ]) (Report.jain [ 400.0; 200.0 ])

let test_percentile () =
  let xs = [ 5.0; 1.0; 4.0; 2.0; 3.0 ] in
  feq "median" 3.0 (Report.percentile 50.0 xs);
  feq "max" 5.0 (Report.percentile 100.0 xs);
  feq "p99 is the max of five" 5.0 (Report.percentile 99.0 xs);
  feq "p20 nearest rank" 1.0 (Report.percentile 20.0 xs);
  feq "singleton" 7.0 (Report.percentile 50.0 [ 7.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Report.percentile: empty list")
    (fun () -> ignore (Report.percentile 50.0 []));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Report.percentile: p out of range") (fun () ->
      ignore (Report.percentile 101.0 [ 1.0 ]))

(* ------------------------------------------------------------------ *)
(* Mpool soft watermark / admission control                             *)
(* ------------------------------------------------------------------ *)

let test_watermark_edges () =
  let p = plat () in
  let pool = Mpool.create ~capacity:8 p in
  in_sim p (fun () ->
      Alcotest.(check bool) "fresh pool not under pressure" false
        (Mpool.under_pressure pool);
      let nodes = ref [] in
      for _ = 1 to 4 do
        nodes := Mpool.alloc pool 64 :: !nodes
      done;
      Alcotest.(check bool) "at watermark: under pressure" true
        (Mpool.under_pressure pool);
      Alcotest.(check int) "one upward crossing" 1 (Mpool.pressure_entries pool);
      Alcotest.(check int) "headroom counts to hard capacity" 4 (Mpool.headroom pool);
      for _ = 1 to 4 do
        nodes := Mpool.alloc pool 64 :: !nodes
      done;
      Alcotest.check_raises "hard capacity raises"
        (Mpool.Out_of_mnodes { requested = 64; live = 8; capacity = 8 })
        (fun () -> ignore (Mpool.alloc pool 64));
      List.iter (Mpool.decref pool) !nodes;
      Alcotest.(check bool) "drained pool not under pressure" false
        (Mpool.under_pressure pool);
      Alcotest.(check int) "still one crossing" 1 (Mpool.pressure_entries pool))

let test_await_headroom_wakes () =
  let p = plat () in
  let sim = p.Platform.sim in
  let pool = Mpool.create ~capacity:8 p in
  let released_at = ref (-1) in
  let admitted_at = ref (-1) in
  let _ =
    Sim.spawn sim ~name:"hog" (fun () ->
        let nodes = List.init 6 (fun _ -> Mpool.alloc pool 64) in
        Sim.delay sim (ms 5.0);
        released_at := Sim.now sim;
        List.iter (Mpool.decref pool) nodes)
  in
  let _ =
    Sim.spawn sim ~name:"parked" (fun () ->
        Sim.delay sim (ms 1.0);
        Mpool.await_headroom pool;
        admitted_at := Sim.now sim)
  in
  Sim.run sim;
  Alcotest.(check bool) "parked thread was admitted" true (!admitted_at >= 0);
  Alcotest.(check bool) "only after the hog released" true
    (!admitted_at >= !released_at)

(* ------------------------------------------------------------------ *)
(* Sockbuf overflow policy                                              *)
(* ------------------------------------------------------------------ *)

let test_sockbuf_policies () =
  let p = plat () in
  let pool = Mpool.create p in
  in_sim p (fun () ->
      let dropper = Sockbuf.create ~policy:Sockbuf.Drop pool ~max:1000 in
      Alcotest.(check bool) "fits: queued" true
        (Sockbuf.offer dropper (Msg.of_string pool (String.make 800 'a')) = `Queued);
      Alcotest.(check bool) "overflow under Drop: dropped" true
        (Sockbuf.offer dropper (Msg.of_string pool (String.make 800 'b')) = `Dropped);
      Alcotest.(check int) "drop accounted" 1 (Sockbuf.drops dropper);
      Alcotest.(check int) "dropped bytes accounted" 800 (Sockbuf.dropped_bytes dropper);
      Alcotest.(check int) "buffer holds only the first message" 800 (Sockbuf.cc dropper);
      let blocker = Sockbuf.create pool ~max:1000 in
      let m1 = Msg.of_string pool (String.make 800 'a') in
      Alcotest.(check bool) "fits: queued" true (Sockbuf.offer blocker m1 = `Queued);
      let m2 = Msg.of_string pool (String.make 800 'b') in
      Alcotest.(check bool) "overflow under Block: must wait" true
        (Sockbuf.offer blocker m2 = `Must_wait);
      Alcotest.(check int) "nothing shed" 0 (Sockbuf.drops blocker);
      Msg.destroy m2)

(* ------------------------------------------------------------------ *)
(* Liveness watchdog                                                    *)
(* ------------------------------------------------------------------ *)

(* Seeded defect: a thread parks on a gate nobody will ever open.  The
   watchdog must turn the would-be hang into a finding that names the
   stuck thread, and stop the run. *)
let test_watchdog_catches_stall () =
  let p = plat () in
  let sim = p.Platform.sim in
  let _ =
    Sim.spawn sim ~name:"gate-waiter" (fun () ->
        Sim.suspend sim (fun _resume -> (* the gate never opens *) ()))
  in
  let wd = Watchdog.install sim ~stall_ns:(ms 10.0) ~stop_on_stall:true
      ~progress:(fun () -> 0) ()
  in
  Sim.run sim;
  (match Watchdog.stalls wd with
   | [ s ] ->
     Alcotest.(check bool) "stall time is one horizon" true (s.Watchdog.at = ms 10.0);
     Alcotest.(check bool) "suspect list names the waiter" true
       (List.exists (fun (_, name) -> name = "gate-waiter") s.Watchdog.blocked);
     let d = Watchdog.describe_stall s in
     let contains sub s =
       let n = String.length sub and m = String.length s in
       let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
       go 0
     in
     Alcotest.(check bool) "description names the stuck thread" true
       (contains "gate-waiter" d)
   | l -> Alcotest.failf "expected exactly one stall, got %d" (List.length l));
  Alcotest.(check bool) "stalled" true (Watchdog.stalled wd)

let test_watchdog_quiet_on_progress () =
  let p = plat () in
  let sim = p.Platform.sim in
  let counter = ref 0 in
  let _ =
    Sim.spawn sim ~name:"worker" (fun () ->
        for _ = 1 to 40 do
          Sim.delay sim (ms 2.0);
          incr counter
        done)
  in
  let wd =
    Watchdog.install sim ~stall_ns:(ms 10.0) ~progress:(fun () -> !counter) ()
  in
  Sim.run ~until:(ms 75.0) sim;
  Watchdog.disarm wd;
  Alcotest.(check int) "no stalls while progress flows" 0
    (List.length (Watchdog.stalls wd));
  Alcotest.(check bool) "not stalled" false (Watchdog.stalled wd)

(* ------------------------------------------------------------------ *)
(* Overload oracle (Recovery.check_overload)                            *)
(* ------------------------------------------------------------------ *)

let oracle_flow ?(accepted = true) ?(completed = true) ~sent ~received id =
  let body = String.init received (fun i -> Char.chr (65 + ((id + i) mod 26))) in
  {
    Recovery.flow = Printf.sprintf "flow/%d" id;
    accepted;
    completed;
    sent_bytes = sent;
    received_bytes = received;
    received_digest = Recovery.digest body;
    expected_digest = Recovery.digest body;
  }

let no_drops =
  { Recovery.link = 0; pool_pressure = 0; syn_backlog = 0; sockbuf_full = 0; checksum = 0 }

let test_oracle_silent_loss () =
  let ok =
    Recovery.check_overload
      { Recovery.scenario = "t"; flows = [ oracle_flow ~sent:100 ~received:100 0 ]; drops = no_drops }
  in
  Alcotest.(check int) "clean world passes" 0 (List.length ok);
  let silent =
    Recovery.check_overload
      {
        Recovery.scenario = "t";
        flows = [ oracle_flow ~completed:false ~sent:100 ~received:40 0 ];
        drops = no_drops;
      }
  in
  Alcotest.(check bool) "incomplete flow with zero named drops is silent loss" true
    (List.exists
       (fun (f : Finding.t) -> f.Finding.subject = "t/accounting")
       silent);
  let accounted =
    Recovery.check_overload
      {
        Recovery.scenario = "t";
        flows = [ oracle_flow ~completed:false ~sent:100 ~received:40 0 ];
        drops = { no_drops with Recovery.syn_backlog = 3 };
      }
  in
  Alcotest.(check int) "same shortfall with a named cause passes" 0
    (List.length accounted)

let test_oracle_catches_corruption () =
  let f = oracle_flow ~sent:100 ~received:100 0 in
  let bad = { f with Recovery.expected_digest = Recovery.digest "something else" } in
  let findings =
    Recovery.check_overload { Recovery.scenario = "t"; flows = [ bad ]; drops = no_drops }
  in
  Alcotest.(check bool) "digest mismatch is a finding" true (List.length findings > 0)

(* ------------------------------------------------------------------ *)
(* Scenarios                                                            *)
(* ------------------------------------------------------------------ *)

let check_passed name (o : Overload.outcome) =
  if not (Overload.passed o) then begin
    List.iter (fun f -> Format.printf "%a@." Finding.pp f) o.Overload.findings;
    Alcotest.failf "%s: %s" name (Overload.to_line o)
  end

let test_incast_clean () =
  let o = Overload.incast ~senders:12 () in
  check_passed "incast clean" o;
  Alcotest.(check int) "all accepted" 12 o.Overload.accepted;
  Alcotest.(check int) "all completed" 12 o.Overload.completed;
  Alcotest.(check bool) "fair" true (o.Overload.fairness > 0.999);
  Alcotest.(check int) "no stalls" 0 (List.length o.Overload.stalls)

(* Golden streams stay printable for a negative seed: a negative
   remainder would put bytes below 32 into the expected digests, and
   every flow would fail its prefix check. *)
let test_incast_negative_seed () =
  let o = Overload.incast ~senders:4 ~seed:(-1) () in
  Alcotest.(check (list string)) "no findings" []
    (List.map Finding.to_string o.Overload.findings);
  Alcotest.(check int) "all completed" 4 o.Overload.completed

let test_incast_syn_flood () =
  (* 24 simultaneous SYNs against the 16-entry incast backlog: the
     listener must shed (accounted), and SYN retransmission must still
     land every connection. *)
  let o = Overload.incast ~senders:24 () in
  check_passed "syn flood" o;
  Alcotest.(check bool) "backlog actually shed" true
    (o.Overload.drops.Recovery.syn_backlog > 0);
  Alcotest.(check int) "every connection still landed" 24 o.Overload.completed

let test_incast_burst_loss () =
  let plan = Option.get (Pnp_faults.Faults.find "burst") in
  let o = Overload.incast ~plan ~senders:16 () in
  check_passed "incast under burst loss" o;
  Alcotest.(check int) "every flow recovered" 16 o.Overload.completed;
  Alcotest.(check bool) "the wire actually dropped" true
    (o.Overload.drops.Recovery.link > 0)

(* The benchmark's incast cell, pinned to the outcome recorded when the
   timer scans and the lock wait queue last changed: 10^3 senders under
   burst loss enter pool pressure, shed SYNs and retransmit, so drift in
   any modelled layer at this scale moves one of these values. *)
let test_incast_1000_pinned () =
  let plan = Option.get (Pnp_faults.Faults.find "burst") in
  let o =
    Overload.incast ~plan ~senders:1000 ~bytes_per_flow:2000 ~pool_capacity:4000 ~seed:1 ()
  in
  Alcotest.(check string) "outcome line"
    "incast     burst      n=1000  2000B/flow  acc=1000 done=1000  good=   0.03 Mb/s  \
     jain=1.000  drops[link=627 pool=0 syn=5424 sb=0 ck=0]  rexmit=5987  stalls=0  PASS"
    (Overload.to_line o);
  let completions =
    String.concat ";"
      (List.map (fun (id, ns) -> Printf.sprintf "%d:%d" id ns) o.Overload.completion_ns)
  in
  Alcotest.(check string) "completion_ns digest" "dd4288de3e8ea79ad455afefc7b08c9b"
    (Digest.to_hex (Digest.string completions));
  Alcotest.(check int) "pool pressure entries" 36 o.Overload.pool_pressure_entries;
  Alcotest.(check int) "elapsed_ns" 590_580_733_030 o.Overload.elapsed_ns

let test_incast_bounded_pool () =
  let o = Overload.incast ~senders:32 ~pool_capacity:200 ~sb_policy:Sockbuf.Drop () in
  check_passed "incast with bounded pool" o;
  Alcotest.(check int) "every flow completed despite the bound" 32 o.Overload.completed

let test_bottleneck_fairness () =
  let o = Overload.shared_bottleneck () in
  check_passed "shared bottleneck" o;
  Alcotest.(check int) "all flows completed" 8 o.Overload.completed;
  Alcotest.(check bool) "bottleneck shared fairly" true (o.Overload.fairness > 0.99)

let test_scenarios_deterministic () =
  (* 24 senders overrun the 16-entry backlog, so both worlds take the
     SYN drop-and-retransmit path. *)
  let a = Overload.incast ~senders:24 () in
  let b = Overload.incast ~senders:24 () in
  Alcotest.(check bool) "the worlds shed SYNs" true
    (a.Overload.drops.Recovery.syn_backlog > 0);
  Alcotest.(check string) "same seed, same world" (Overload.to_line a)
    (Overload.to_line b)

(* The host profile must see overload worlds too, not just [Run] cells:
   [repro perf] reports events per host second for ext-incast from it. *)
let test_incast_feeds_hostprof () =
  let o, d = Hostprof.measure (fun () -> Overload.incast ~senders:4 ()) in
  check_passed "small incast" o;
  Alcotest.(check bool)
    (Printf.sprintf "positive sim_events delta (%d)" d.Hostprof.sim_events)
    true (d.Hostprof.sim_events > 0)

let with_jobs n f =
  let old = Pool.jobs () in
  Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Pool.set_jobs old) f

let test_compare_matrix () =
  let rows = with_jobs 1 (fun () -> Compare.run ~senders:8 ~bytes_per_flow:1024 ()) in
  (* 3 + 2 fault-axis cells plus 2 x 15 lock-axis cells (3 disciplines
     x 5 granularities on both scenarios). *)
  Alcotest.(check int) "thirty-five cells" 35 (List.length rows);
  Alcotest.(check bool) "all pass" true (Compare.passed rows);
  (* The first fault-axis label and its lock-axis twin are the same
     world; the matrix labels must not lie. *)
  let find l = List.find (fun (r : Compare.row) -> r.Compare.label = l) rows in
  Alcotest.(check string) "baseline = mutex+tcp1"
    (Overload.to_line (find "incast/baseline").Compare.outcome)
    (Overload.to_line (find "incast/mutex+tcp1").Compare.outcome);
  let json = Compare.to_json rows in
  Alcotest.(check bool) "json document" true
    (String.length json > 2 && String.sub json 0 11 = "{\"compare\":");
  let rows4 = with_jobs 4 (fun () -> Compare.run ~senders:8 ~bytes_per_flow:1024 ()) in
  Alcotest.(check string) "byte-identical at -j 4" json (Compare.to_json rows4)

let suites =
  [
    ( "overload.stats",
      [
        Alcotest.test_case "jain fairness index" `Quick test_jain;
        Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
      ] );
    ( "overload.admission",
      [
        Alcotest.test_case "watermark and capacity edges" `Quick test_watermark_edges;
        Alcotest.test_case "await_headroom wakes on drain" `Quick
          test_await_headroom_wakes;
        Alcotest.test_case "sockbuf drop-vs-block policy" `Quick test_sockbuf_policies;
      ] );
    ( "overload.watchdog",
      [
        Alcotest.test_case "catches a stalled gate waiter" `Quick
          test_watchdog_catches_stall;
        Alcotest.test_case "quiet while progress flows" `Quick
          test_watchdog_quiet_on_progress;
      ] );
    ( "overload.oracle",
      [
        Alcotest.test_case "silent loss vs accounted shortfall" `Quick
          test_oracle_silent_loss;
        Alcotest.test_case "catches corruption" `Quick test_oracle_catches_corruption;
      ] );
    ( "overload.scenarios",
      [
        Alcotest.test_case "incast completes clean" `Quick test_incast_clean;
        Alcotest.test_case "incast at a negative seed" `Quick test_incast_negative_seed;
        Alcotest.test_case "syn flood sheds and recovers" `Quick test_incast_syn_flood;
        Alcotest.test_case "incast under burst loss" `Quick test_incast_burst_loss;
        Alcotest.test_case "1000-sender incast outcome pinned" `Quick
          test_incast_1000_pinned;
        Alcotest.test_case "incast with bounded pool" `Quick test_incast_bounded_pool;
        Alcotest.test_case "bottleneck fairness" `Quick test_bottleneck_fairness;
        Alcotest.test_case "outcomes are deterministic" `Quick
          test_scenarios_deterministic;
        Alcotest.test_case "compare matrix" `Quick test_compare_matrix;
        Alcotest.test_case "incast feeds the host event counter" `Quick
          test_incast_feeds_hostprof;
      ] );
  ]
