open Pnp_util
open Pnp_engine
open Pnp_analysis
open Pnp_lint

let arch = Arch.challenge_100

(* ------------------------------------------------------------------ *)
(* Hand-built traces                                                   *)
(* ------------------------------------------------------------------ *)

let make_trace ?(locks = []) evs =
  let t = Trace.create () in
  List.iter (fun (name, discipline) -> Trace.register_lock t ~name ~discipline) locks;
  Trace.enable t;
  (* The tracer was just enabled unconditionally above. *)
  List.iteri (fun i (tid, ev) -> Trace.emit t ~ts:(i * 10) ~tid ~cpu:0 ev) evs (* lint:allow *);
  t

let req lock = Trace.Lock_request { lock; waiters = 0 }
let grant lock = Trace.Lock_grant { lock; waiters = 0; wait_ns = 0 }
let rel lock = Trace.Lock_release { lock; hold_ns = 0 }
let acc ?(write = true) state = Trace.Access { state; write }
let enq seq = Trace.Span_begin { seq; phase = Trace.Enqueue }

(* What the shared pass reports: the lockset findings, and one
   checker's findings. *)
let lockset t = (Check.run t).Check.lockset
let findings_of checker t = List.filter (fun f -> f.Finding.checker = checker) (Check.all t)

(* ------------------------------------------------------------------ *)
(* Lockset (Eraser)                                                    *)
(* ------------------------------------------------------------------ *)

let test_lockset_clean_locked_counter () =
  let t =
    make_trace
      [
        (1, grant "l"); (1, acc "tcb#ctr"); (1, rel "l");
        (2, grant "l"); (2, acc "tcb#ctr"); (2, rel "l");
      ]
  in
  let c = Check.run t in
  Alcotest.(check int) "no findings" 0 (List.length c.Check.lockset);
  match c.Check.states with
  | [ s ] ->
    Alcotest.(check string) "id" "tcb#ctr" s.Lockset.id;
    (match s.Lockset.class_ with
     | Lockset.Shared_modified [ "l" ] -> ()
     | _ -> Alcotest.fail "expected Shared_modified [l]")
  | _ -> Alcotest.fail "expected one tracked id"

let test_lockset_fires_on_unlocked_counter () =
  (* Seeded defect: two threads write the same state with no common
     lock.  Exclusive first-thread initialisation is not reported; the
     second thread's write is. *)
  let t =
    make_trace
      [
        (1, acc "tcb#ctr"); (1, acc "tcb#ctr");  (* init, still Exclusive *)
        (2, acc "tcb#ctr");                       (* race *)
        (2, acc "tcb#ctr");                       (* already reported *)
      ]
  in
  let findings = lockset t in
  (match findings with
   | [ f ] ->
     Alcotest.(check string) "checker" "lockset" f.Finding.checker;
     Alcotest.(check string) "subject" "tcb#ctr" f.Finding.subject;
     Alcotest.(check int) "witness pair" 2 (List.length f.Finding.witnesses)
   | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs)))

let test_lockset_read_shared_not_reported () =
  (* Reads of stable data by many threads without locks are fine as long
     as nobody writes after the data becomes shared. *)
  let t =
    make_trace
      [
        (1, acc ~write:true "cfg#mtu");
        (2, acc ~write:false "cfg#mtu");
        (3, acc ~write:false "cfg#mtu");
      ]
  in
  Alcotest.(check int) "no findings" 0 (List.length (lockset t))

let test_lockset_partial_lock_overlap_fires () =
  (* Each thread holds *a* lock, but not a common one: the candidate set
     goes empty exactly on the second thread's write. *)
  let t =
    make_trace
      [
        (1, grant "a"); (1, acc "x#f"); (1, rel "a");
        (2, grant "b"); (2, acc "x#f"); (2, rel "b");
      ]
  in
  (match lockset t with
   | [ f ] ->
     Alcotest.(check string) "checker" "lockset" f.Finding.checker;
     Alcotest.(check string) "subject" "x#f" f.Finding.subject;
     Alcotest.(check int) "witness pair" 2 (List.length f.Finding.witnesses)
   | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs)))

let test_lockset_fires_on_unlocked_map_cache () =
  (* The pre-shard demux bug, as a trace: [Xmap.lookup]'s unlocked fast
     path used to write the map's shared 1-behind cache and counters.
     One thread updates the cache under the map lock (an insert), the
     other writes it holding nothing (the unlocked lookup) — the
     candidate set goes empty on the second write. *)
  let t =
    make_trace
      [
        (1, grant "tcp.demux");
        (1, acc "tcp.demux#cache");
        (1, rel "tcp.demux");
        (2, acc "tcp.demux#cache");
      ]
  in
  match lockset t with
  | [ f ] ->
    Alcotest.(check string) "checker" "lockset" f.Finding.checker;
    Alcotest.(check string) "subject" "tcp.demux#cache" f.Finding.subject;
    Alcotest.(check int) "witness pair" 2 (List.length f.Finding.witnesses)
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs))

module Imap = Pnp_xkern.Xmap.Make (struct
  type t = int

  let hash x = x * 2654435761
  let equal = Int.equal
end)

let test_unlocked_map_lookup_is_clean () =
  (* The fixed map against the real engine: with map locking disabled,
     concurrent lookups keep their 1-behind bookkeeping in per-thread
     slots, so a traced multi-thread run produces no lockset findings
     where the old shared-cache mutation pattern fired. *)
  let p = Platform.create ~map_locking:false arch in
  let m = Imap.create p ~shards:4 ~name:"demux" () in
  let tracer = Sim.tracer p.Platform.sim in
  Trace.enable tracer;
  let sum = ref 0 in
  for i = 0 to 3 do
    ignore
      (Sim.spawn p.Platform.sim ~cpu:i ~name:(Printf.sprintf "rdr.%d" i) (fun () ->
           Imap.insert m i i;
           for _ = 1 to 50 do
             (match Imap.lookup m i with Some v -> sum := !sum + v | None -> ());
             ignore (Imap.lookup m ((i + 1) mod 4));
             Sim.delay p.Platform.sim 100
           done))
  done;
  Sim.run p.Platform.sim;
  Alcotest.(check int) "lookups served" (50 * (0 + 1 + 2 + 3)) !sum;
  Alcotest.(check int) "no lockset findings" 0 (List.length (lockset tracer))

(* ------------------------------------------------------------------ *)
(* Lock-order graph                                                    *)
(* ------------------------------------------------------------------ *)

(* The TCP-6 hazard as a seeded defect against the real engine: one
   thread takes reass before rexmt, another takes them inverted (at a
   disjoint time, so the run itself never deadlocks — the checker must
   still see the potential). *)
let inversion_trace ~invert =
  let sim = Sim.create () in
  let tracer = Sim.tracer sim in
  let reass = Lock.create sim arch Lock.Unfair ~name:"tcp.1.reass" in
  let rexmt = Lock.create sim arch Lock.Unfair ~name:"tcp.1.rexmt" in
  Trace.enable tracer;
  let pair_in_order a b =
    Lock.acquire a;
    Sim.delay sim 100;
    Lock.acquire b;
    Sim.delay sim 100;
    Lock.release b;
    Lock.release a
  in
  let _ = Sim.spawn sim ~name:"input" (fun () -> pair_in_order reass rexmt) in
  let _ =
    Sim.spawn sim ~name:"timer" (fun () ->
        Sim.delay sim 1_000_000;
        if invert then pair_in_order rexmt reass else pair_in_order reass rexmt)
  in
  Sim.run sim;
  tracer

let test_lock_order_cycle_detected () =
  let tracer = inversion_trace ~invert:true in
  match findings_of "lock-order" tracer with
  | [ f ] ->
    Alcotest.(check string) "checker" "lock-order" f.Finding.checker;
    let mentions sub =
      let n = String.length f.Finding.subject and m = String.length sub in
      let rec go i = i + m <= n && (String.sub f.Finding.subject i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "names reass" true (mentions "tcp.1.reass");
    Alcotest.(check bool) "names rexmt" true (mentions "tcp.1.rexmt");
    Alcotest.(check bool) "has witnesses" true (List.length f.Finding.witnesses >= 2)
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 cycle, got %d" (List.length fs))

let test_lock_order_consistent_is_clean () =
  let tracer = inversion_trace ~invert:false in
  Alcotest.(check int) "no cycles" 0 (List.length (findings_of "lock-order" tracer));
  (* The held-before edge itself is recorded: one inverted acquisition
     appended to the trace closes a cycle through it, witnessed by its
     grants. *)
  List.iteri
    (fun i ev -> Trace.emit tracer ~ts:(10_000_000 + i) ~tid:9 ~cpu:0 ev (* lint:allow *))
    [ grant "tcp.1.rexmt"; grant "tcp.1.reass"; rel "tcp.1.reass"; rel "tcp.1.rexmt" ];
  match findings_of "lock-order" tracer with
  | [ f ] ->
    Alcotest.(check string) "cycle" "tcp.1.reass -> tcp.1.rexmt -> tcp.1.reass"
      f.Finding.subject;
    Alcotest.(check int) "both edges' grants" 4 (List.length f.Finding.witnesses)
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 cycle, got %d" (List.length fs))

let test_lock_order_three_cycle () =
  let t =
    make_trace
      [
        (1, grant "a"); (1, grant "b"); (1, rel "b"); (1, rel "a");
        (2, grant "b"); (2, grant "c"); (2, rel "c"); (2, rel "b");
        (3, grant "c"); (3, grant "a"); (3, rel "a"); (3, rel "c");
      ]
  in
  match findings_of "lock-order" t with
  | [ f ] ->
    Alcotest.(check string) "cycle" "a -> b -> c -> a" f.Finding.subject;
    Alcotest.(check int) "every edge's grants" 6 (List.length f.Finding.witnesses)
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 three-lock cycle, got %d" (List.length fs))

(* ------------------------------------------------------------------ *)
(* Grant order / reorder windows                                       *)
(* ------------------------------------------------------------------ *)

let test_fifo_order_violation_detected () =
  let evs = [ (1, req "m"); (2, req "m"); (2, grant "m"); (1, grant "m") ] in
  (match findings_of "fifo-order" (make_trace ~locks:[ ("m", "fifo") ] evs) with
   | [ f ] ->
     Alcotest.(check string) "checker" "fifo-order" f.Finding.checker;
     Alcotest.(check string) "subject" "m" f.Finding.subject;
     Alcotest.(check int) "witnesses" 2 (List.length f.Finding.witnesses)
   | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs)));
  (* The same overtake on a lock that never promised FIFO is not a
     violation. *)
  Alcotest.(check int) "unfair lock may barge" 0
    (List.length (findings_of "fifo-order" (make_trace ~locks:[ ("m", "unfair") ] evs)))

let test_fifo_order_in_order_clean () =
  let evs = [ (1, req "m"); (2, req "m"); (1, grant "m"); (2, grant "m") ] in
  Alcotest.(check int) "in-order grants" 0
    (List.length (findings_of "fifo-order" (make_trace ~locks:[ ("m", "fifo") ] evs)))

(* A lock registers its discipline with its first traced record, not at
   creation: untraced use leaves it unregistered. *)
let test_lock_registers_when_first_traced () =
  let sim = Sim.create () in
  let tracer = Sim.tracer sim in
  let lock = Lock.create sim arch Lock.Barging ~name:"late" in
  let _ =
    Sim.spawn sim ~name:"t" (fun () ->
        Lock.with_lock lock ignore;
        Alcotest.(check (option string)) "untraced use" None (Trace.lock_discipline tracer "late");
        Trace.enable tracer;
        Lock.with_lock lock ignore)
  in
  Sim.run sim;
  Alcotest.(check (option string)) "after first traced record" (Some "barging")
    (Trace.lock_discipline tracer "late")

(* The [check] warm-up window: a FIFO lock created and used before
   tracing starts, first contended after it.  A seeded request that the
   lock never saw sits at the head of the queue, so the real grant is an
   overtake, and it is only flagged if the lock's discipline reached the
   trace. *)
let test_fifo_created_before_trace_flagged () =
  let sim = Sim.create () in
  let tracer = Sim.tracer sim in
  let lock = Lock.create sim arch Lock.Fifo ~name:"conn" in
  let _ =
    Sim.spawn sim ~name:"warmup" (fun () ->
        Lock.with_lock lock ignore;
        Trace.enable tracer)
  in
  let _ =
    Sim.spawn sim ~name:"ghost" (fun () ->
        Sim.delay sim 10_000;
        if Trace.enabled tracer then Sim.trace sim (Trace.Lock_request { lock = "conn"; waiters = 0 }))
  in
  let _ =
    Sim.spawn sim ~name:"real" (fun () ->
        Sim.delay sim 20_000;
        Lock.with_lock lock ignore)
  in
  Sim.run sim;
  match findings_of "fifo-order" tracer with
  | [ f ] ->
    Alcotest.(check string) "checker" "fifo-order" f.Finding.checker;
    Alcotest.(check string) "subject" "conn" f.Finding.subject;
    Alcotest.(check int) "witnesses" 2 (List.length f.Finding.witnesses)
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs))

let test_reorder_window_stats () =
  (* Thread 2 carries a later packet (seq 8192) and wins the lock before
     thread 1 (seq 0) and thread 3 (seq 4096). *)
  let t =
    make_trace
      [
        (1, enq 0); (2, enq 8192); (3, enq 4096);
        (2, grant "l"); (2, rel "l");
        (3, grant "l"); (3, rel "l");
        (1, grant "l"); (1, rel "l");
      ]
  in
  (match Order_check.stats t with
   | [ s ] ->
     Alcotest.(check string) "lock" "l" s.Order_check.lock;
     Alcotest.(check int) "grants" 3 s.Order_check.grants;
     Alcotest.(check int) "reordered" 2 s.Order_check.reordered;
     Alcotest.(check int) "deepest window" 8192 s.Order_check.max_window
   | rows -> Alcotest.fail (Printf.sprintf "expected 1 row, got %d" (List.length rows)));
  let reordered, grants = Order_check.reordered_total (Order_check.stats t) in
  Alcotest.(check (pair int int)) "totals" (2, 3) (reordered, grants)

(* ------------------------------------------------------------------ *)
(* Replay round-trip                                                   *)
(* ------------------------------------------------------------------ *)

let test_replay_round_trip () =
  let t =
    make_trace
      [
        (1, enq 0); (1, req "l"); (1, grant "l"); (1, acc "x#f"); (1, rel "l");
        (2, req "l"); (2, grant "l"); (2, rel "l");
      ]
  in
  (* Replay re-delivers exactly the emitted records, in emission order. *)
  let replayed = ref [] in
  Replay.replay (Replay.create t) (fun row -> replayed := Trace.Row.record row :: !replayed);
  Alcotest.(check int) "count matches" (Trace.count t) (List.length !replayed);
  Alcotest.(check bool) "order matches" true (List.rev !replayed = Trace.events t);
  (* iter agrees with events. *)
  let via_iter = ref [] in
  Trace.iter t (fun r -> via_iter := r :: !via_iter);
  Alcotest.(check bool) "iter order" true (List.rev !via_iter = Trace.events t)

let test_replay_held_and_seq () =
  let t =
    make_trace
      [ (1, enq 4096); (1, grant "a"); (1, grant "b"); (1, rel "b"); (1, rel "a") ]
  in
  (* Inspect the context right before each record is applied. *)
  let at_b_grant = ref [] and after_rel_b = ref [] and seq = ref None in
  let ctx = Replay.create t in
  let held () =
    List.init (Replay.held_count ctx ~tid:1) (fun i ->
        Replay.lock_name ctx (Replay.held_id ctx ~tid:1 i))
  in
  Replay.replay ctx (fun row ->
      match (Trace.Row.record row).Trace.ev with
      | Trace.Lock_grant { lock = "b"; _ } ->
        at_b_grant := held ();
        if Replay.carrying ctx ~tid:1 then seq := Some (Replay.seq ctx ~tid:1)
      | Trace.Lock_release { lock = "a"; _ } -> after_rel_b := held ()
      | _ -> ());
  Alcotest.(check (list string)) "held before b's grant" [ "a" ] !at_b_grant;
  Alcotest.(check (option int)) "carried seq" (Some 4096) !seq;
  Alcotest.(check (list string)) "b released before a" [ "a" ] !after_rel_b

(* ------------------------------------------------------------------ *)
(* The real stack under the checkers                                   *)
(* ------------------------------------------------------------------ *)

let checked_scenario ?(side = Pnp_harness.Config.Recv) ~tcp_locking () =
  let open Pnp_harness in
  let cfg =
    Config.v ~arch ~procs:4 ~side ~protocol:Config.Tcp ~payload:4096
      ~checksum:true ~tcp_locking
      ~warmup:(Units.ms 5.0) ~measure:(Units.ms 20.0) ~seed:1 ()
  in
  Run.run_traced cfg

let test_clean_tcp6_run_has_no_findings () =
  let _result, tracer = checked_scenario ~tcp_locking:Pnp_proto.Tcp.Six () in
  let c = Check.run tracer in
  List.iter (fun f -> Format.eprintf "unexpected: %a@." Finding.pp f) c.Check.findings;
  Alcotest.(check int) "clean tree is clean" 0 (List.length c.Check.findings);
  (* The run actually exercised the checkers: state was tracked and,
     under fine-grained locking, some lock was granted to a thread
     holding another (a held-before edge). *)
  Alcotest.(check bool) "lockset saw annotated state" true (List.length c.Check.states > 0);
  let ctx = Replay.create tracer and nested = ref 0 in
  Replay.replay ctx (fun row ->
      match Trace.Row.kind row with
      | Trace.Kind.Lock_grant ->
        if Replay.held_count ctx ~tid:(Trace.Row.tid row) > 0 then incr nested
      | _ -> ());
  Alcotest.(check bool) "held-before edges exist" true (!nested > 0)

let test_clean_tcp_send_run_has_no_findings () =
  let _result, tracer =
    checked_scenario ~side:Pnp_harness.Config.Send ~tcp_locking:Pnp_proto.Tcp.Two ()
  in
  Alcotest.(check int) "clean tree is clean" 0 (List.length (Check.all tracer))

(* ------------------------------------------------------------------ *)
(* The order statistics alone vs the shared pass                       *)
(* ------------------------------------------------------------------ *)

(* [Order_check.stats] routes lock requests and grants itself, beside
   [Check.run]'s one match: the two routings must agree. *)
let order_stats_match name t =
  let c = Check.run t in
  Alcotest.(check bool) (name ^ ": order stats") true (Order_check.stats t = c.Check.order);
  c

(* One seeded defect per checker family, alone and all in one trace. *)
let seeded_defects =
  [
    ( "lockset",
      [ (1, acc "tcb#ctr"); (1, acc "tcb#ctr"); (2, acc "tcb#ctr"); (2, acc "tcb#ctr") ] );
    ( "hb-race",
      (* An unlocked write against reads Eraser's read-shared state never
         reports, then an SCR apply ahead of the appended tail. *)
      [
        (1, acc "cfg#mtu"); (2, acc ~write:false "cfg#mtu"); (3, acc ~write:false "cfg#mtu");
        (0, Trace.Scr_append { log = "scr:conn0"; idx = 0 });
        (4, Trace.Scr_apply { log = "scr:conn0"; idx = 2 });
        (4, Trace.Scr_apply_end { log = "scr:conn0"; idx = 2 });
      ] );
    ( "lifetime",
      [
        (1, Trace.Mnode_alloc { node = 7 }); (1, Trace.Mnode_unref { node = 7; refs = 0 });
        (2, Trace.Mnode_ref { node = 7; refs = 1 });
        (1, Trace.Mnode_alloc { node = 3 }); (1, Trace.Mnode_unref { node = 3; refs = 0 });
        (1, Trace.Mnode_recycle { node = 3 }); (2, Trace.Mnode_write { node = 3 });
      ] );
    ( "lock-order",
      [
        (1, grant "a"); (1, grant "b"); (1, rel "b"); (1, rel "a");
        (2, grant "b"); (2, grant "c"); (2, rel "c"); (2, rel "b");
        (3, grant "c"); (3, grant "a"); (3, rel "a"); (3, rel "c");
      ] );
    ("fifo-order", [ (1, req "m"); (2, req "m"); (2, grant "m"); (1, grant "m") ]);
  ]

(* Records no checker reads, some named like the fixture's own locks,
   gates and states so that reading one would show. *)
let unread =
  Trace.
    [
      Thread_spawn { name = "m" };
      Thread_exit;
      Lock_handoff { lock = "m"; to_tid = 2; handoff_ns = 5 };
      Gate_take { gate = "gate"; ticket = 1 };
      Mpool_alloc { hit = false };
      Span_end { seq = 0; phase = Enqueue };
      Fault_drop { cause = "loss" };
      Fault_dup { copies = 1 };
      Fault_corrupt { off = 3; bit = 1 };
      Fault_reorder { delay_ns = 40 };
      Scr_replay { log = "scr:conn0"; upto = 9 };
      Rcu_read { state = "tcb#ctr" };
      Rcu_publish { state = "cfg#mtu" };
    ]

(* Every checker family fires, and every context the replay keeps is
   exercised: carried seqs, gates, fork, the bus, a pre-window hold. *)
let replay_fixture =
  List.concat_map snd seeded_defects
  @ [
      (5, Trace.Lock_release { lock = "pre"; hold_ns = 1 }); (5, acc "sb#cc");
      (6, Trace.Thread_fork { child = 7 }); (7, acc "sb#cc"); (7, Trace.Thread_exit);
      (6, acc "sb#cc");
      (1, Trace.Gate_advance { gate = "gate"; serving = 1 });
      (2, Trace.Gate_pass { gate = "gate"; ticket = 1; wait_ns = 0 });
      (1, Trace.Membus_charge { bytes = 64; dur_ns = 10 });
      (1, enq 8192); (1, req "c"); (2, enq 0); (2, req "c"); (2, grant "c"); (2, rel "c");
      (1, grant "c"); (1, rel "c");
    ]

let test_replay_skips_unread_records () =
  List.iter
    (fun ev ->
      Alcotest.(check bool) "constructor is unread" false (Replay.read_by_checkers ev))
    unread;
  let timed ~interleave =
    let t = Trace.create () in
    Trace.register_lock t ~name:"m" ~discipline:"fifo";
    Trace.enable t;
    List.iteri
      (fun i (tid, ev) ->
        (* The tracer was just enabled unconditionally above. *)
        Trace.emit t ~ts:(i * 10) ~tid ~cpu:0 ev (* lint:allow *);
        if interleave then
          let u = List.nth unread (i mod List.length unread) in
          Trace.emit t ~ts:((i * 10) + 5) ~tid:(i mod 4) ~cpu:1 u (* lint:allow *))
      replay_fixture;
    t
  in
  let plain = Check.run (timed ~interleave:false)
  and mixed = Check.run (timed ~interleave:true) in
  Alcotest.(check bool) "the fixture has findings" true (plain.Check.findings <> []);
  Alcotest.(check bool) "and races" true (plain.Check.races <> []);
  Alcotest.(check bool) "and order stats" true (plain.Check.order <> []);
  Alcotest.(check bool) "findings" true (plain.Check.findings = mixed.Check.findings);
  Alcotest.(check bool) "states" true (plain.Check.states = mixed.Check.states);
  Alcotest.(check bool) "lockset" true (plain.Check.lockset = mixed.Check.lockset);
  Alcotest.(check (list string)) "races" plain.Check.races mixed.Check.races;
  Alcotest.(check bool) "order stats" true (plain.Check.order = mixed.Check.order)

(* Everything [Check.run] reports over the fixture, witnesses included,
   as text.  Unread records sit between the fixture's, and a run of them
   in the middle pushes its second half into the next trace chunk, so
   witnesses are found across unread rows and across a chunk boundary:
   the FIFO overtake's request and grant sit on either side of it. *)
let render_fixture_check () =
  let t = Trace.create () in
  Trace.register_lock t ~name:"m" ~discipline:"fifo";
  Trace.enable t;
  List.iteri
    (fun i (tid, ev) ->
      (* The tracer was just enabled unconditionally above. *)
      Trace.emit t ~ts:(i * 10) ~tid ~cpu:(i mod 3) ev (* lint:allow *);
      let u = List.nth unread (i mod List.length unread) in
      Trace.emit t ~ts:((i * 10) + 5) ~tid:(i mod 4) ~cpu:1 u (* lint:allow *);
      if (tid, ev) = (1, req "m") then
        let pad = Trace.Rcu_read { state = "tcb#ctr" } in
        for j = 1 to 5000 do
          Trace.emit t ~ts:((i * 10) + 5) ~tid:j ~cpu:2 pad (* lint:allow *)
        done)
    replay_fixture;
  let c = Check.run t in
  let b = Buffer.create 4096 in
  List.iter (fun f -> Buffer.add_string b (Finding.to_string f ^ "\n")) c.Check.findings;
  List.iter
    (fun (s : Lockset.state) ->
      Printf.bprintf b "state %s %s %d\n" s.Lockset.id
        (match s.Lockset.class_ with
         | Lockset.Virgin -> "virgin"
         | Lockset.Exclusive tid -> Printf.sprintf "exclusive %d" tid
         | Lockset.Shared ls -> "shared {" ^ String.concat "," ls ^ "}"
         | Lockset.Shared_modified ls -> "modified {" ^ String.concat "," ls ^ "}")
        s.Lockset.accesses)
    c.Check.states;
  List.iter (fun (f : Finding.t) -> Printf.bprintf b "lockset %s\n" f.Finding.subject) c.Check.lockset;
  List.iter (Printf.bprintf b "race %s\n") c.Check.races;
  List.iter
    (fun (o : Order_check.lock_stat) ->
      Printf.bprintf b "order %s %d %d %d\n" o.Order_check.lock o.Order_check.grants
        o.Order_check.reordered o.Order_check.max_window)
    c.Check.order;
  Buffer.contents b

let fixture_check_expected = {|[error] fifo-order: m: FIFO lock granted out of arrival order: tid 2 overtook the pending request of tid 1
    witness: t=290 ns tid=1 cpu=2  request m (waiters 0)
    witness: t=310 ns tid=2 cpu=1  grant m (waited 0 ns)
[error] hb-race: cfg#mtu: unordered read/write pair by tid 1 and tid 2: no happens-before path (fork, gate, lock release→acquire, SCR log append→apply or bus) connects the two accesses
    witness: t=40 ns tid=1 cpu=1  write cfg#mtu
    witness: t=50 ns tid=2 cpu=2  read cfg#mtu
[error] hb-race: sb#cc: unordered writes by tid 5 and tid 7: no happens-before path (fork, gate, lock release→acquire, SCR log append→apply or bus) connects the two accesses
    witness: t=340 ns tid=5 cpu=1  write sb#cc
    witness: t=360 ns tid=7 cpu=0  write sb#cc
[error] hb-race: scr:conn0: SCR replay read ahead of the appended tail: tid 4 applied log entry 2 but only entries up to 0 had been appended — the append that publishes an entry must happen before the apply that consumes it
    witness: t=80 ns tid=4 cpu=2  scr apply scr:conn0[2]
[error] hb-race: tcb#ctr: unordered writes by tid 1 and tid 2: no happens-before path (fork, gate, lock release→acquire, SCR log append→apply or bus) connects the two accesses
    witness: t=10 ns tid=1 cpu=1  write tcb#ctr
    witness: t=20 ns tid=2 cpu=2  write tcb#ctr
[error] lifetime: mnode 3: bytes written after arena recycle (write-after-recycle): node was recycled
    witness: t=150 ns tid=1 cpu=0  recycle mnode 3
    witness: t=160 ns tid=2 cpu=1  write mnode 3
[error] lifetime: mnode 7: reference taken on a dead node (use-after-free): node was freed
    witness: t=110 ns tid=1 cpu=2  unref mnode 7 -> 0
    witness: t=120 ns tid=2 cpu=0  ref mnode 7 -> 1
[error] lock-order: a -> b -> c -> a: lock-order cycle over 3 lock(s): threads acquire these locks in conflicting orders, a potential deadlock
    witness: t=170 ns tid=1 cpu=2  grant a (waited 0 ns)
    witness: t=180 ns tid=1 cpu=0  grant b (waited 0 ns)
    witness: t=210 ns tid=2 cpu=0  grant b (waited 0 ns)
    witness: t=220 ns tid=2 cpu=1  grant c (waited 0 ns)
    witness: t=250 ns tid=3 cpu=1  grant c (waited 0 ns)
    witness: t=260 ns tid=3 cpu=2  grant a (waited 0 ns)
[error] lockset: sb#cc: candidate lockset went empty: write by tid 7 holding {} (candidates were {}) — shared state is reachable without a consistent lock
    witness: t=340 ns tid=5 cpu=1  write sb#cc
    witness: t=360 ns tid=7 cpu=0  write sb#cc
[error] lockset: tcb#ctr: candidate lockset went empty: write by tid 2 holding {} (candidates were {}) — shared state is reachable without a consistent lock
    witness: t=10 ns tid=1 cpu=1  write tcb#ctr
    witness: t=20 ns tid=2 cpu=2  write tcb#ctr
state cfg#mtu shared {} 3
state sb#cc modified {} 3
state tcb#ctr modified {} 4
lockset sb#cc
lockset tcb#ctr
race tcb#ctr
race cfg#mtu
race sb#cc
order c 2 0 0
|}

let test_fixture_check_pinned () =
  Alcotest.(check string) "Check.run over the fixture" fixture_check_expected
    (render_fixture_check ())

let test_shared_pass_seeded_defects () =
  let locks = [ ("m", "fifo") ] in
  List.iter
    (fun (checker, evs) ->
      let found = (order_stats_match checker (make_trace ~locks evs)).Check.findings in
      Alcotest.(check bool) (checker ^ " fires") true
        (List.exists (fun f -> f.Finding.checker = checker) found))
    seeded_defects;
  let found =
    (order_stats_match "all defects" (make_trace ~locks (List.concat_map snd seeded_defects)))
      .Check.findings
  in
  List.iter
    (fun (checker, _) ->
      Alcotest.(check bool) (checker ^ " fires in the merged trace") true
        (List.exists (fun f -> f.Finding.checker = checker) found))
    seeded_defects;
  ignore (order_stats_match "inverted TCP-6 order" (inversion_trace ~invert:true));
  let fixture = order_stats_match "the fixture" (make_trace ~locks replay_fixture) in
  Alcotest.(check bool) "the fixture has order stats" true (fixture.Check.order <> [])

(* The replay reads rows in place and the checkers keep ints, so a
   whole check allocates a few words per record; building a record per
   row would cost more than that alone. *)
let test_check_allocation () =
  let s = List.hd Pnp_harness.Check_scenarios.all in
  let _, tracer = Pnp_harness.Run.run_traced s.Pnp_harness.Check_scenarios.cfg in
  let before = Gc.minor_words () in
  let c = Check.run tracer in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "the cell checks clean" 0 (List.length c.Check.findings);
  let per_record = words /. float_of_int (Trace.count tracer) in
  Printf.printf "%s: %.2f minor words per record\n" s.Pnp_harness.Check_scenarios.label
    per_record;
  if per_record > 4.5 then
    Alcotest.failf "Check.run allocated %.2f minor words per record (at most 4.5)" per_record

(* One real traced cell per discipline: the routings see every record
   kind the stack emits. *)
let test_shared_pass_real_cells () =
  List.iter
    (fun disc ->
      let label = Pnp_harness.Config.locking_label disc in
      let _result, tracer = checked_scenario ~tcp_locking:disc () in
      let c = order_stats_match label tracer in
      Alcotest.(check bool) (label ^ ": has order stats") true (c.Check.order <> []))
    Pnp_proto.Tcp.[ One; Two; Six; Scr; Rcu ]

(* ------------------------------------------------------------------ *)
(* Lint                                                                *)
(* ------------------------------------------------------------------ *)

let lint ?(file = "lib/figures/fig_test.ml") src = Lint.check_source ~file src

let rules fs = List.map (fun f -> f.Lint.rule) fs

(* Comments, strings and char literals hold no code: a nested comment
   holding "*)", a quoted string and a '"' char literal hide nothing
   from the rules and make nothing up. *)
let test_lint_lexical () =
  Alcotest.(check (list string)) "no code in comments, strings or chars" []
    (rules
       (lint
          "let fig_data opts =\n\
          \  (* outer (* nested *) \"string with *) inside\" Printf.printf *)\n\
          \  let s = {| Printf.printf \"x\" |} in\n\
          \  let q = '\"' in\n\
          \  ignore (q, s, \"Printf.printf \\\" quoted\");\n\
          \  opts\n"));
  Alcotest.(check (list string)) "code after a '\"' char is read" [ "no-print" ]
    (rules (lint "let fig_data opts =\n  let q = '\"' in\n  Printf.printf \"%c\" q\n"))

let test_lint_no_print_in_data_phase () =
  (match lint "let fig_data opts =\n  Printf.printf \"x\";\n  []\n" with
   | [ f ] ->
     Alcotest.(check string) "rule" "no-print" f.Lint.rule;
     Alcotest.(check int) "line" 2 f.Lint.line
   | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs)));
  (* Presentation bindings may print. *)
  Alcotest.(check (list string)) "_present exempt" []
    (rules (lint "let fig_present opts tables =\n  Printf.printf \"x\"\n"));
  (* sprintf is pure string formatting, not printing. *)
  Alcotest.(check (list string)) "sprintf allowed" []
    (rules (lint "let fig_data opts =\n  Printf.sprintf \"x\"\n"));
  (* A print mentioned in a comment or a string is not a print. *)
  Alcotest.(check (list string)) "comment not flagged" []
    (rules (lint "let fig_data opts =\n  (* Printf.printf \"x\" *)\n  []\n"));
  Alcotest.(check (list string)) "string not flagged" []
    (rules (lint "let fig_data opts =\n  ignore \"Printf.printf\";\n  []\n"));
  (* Only fig_*.ml files have data phases. *)
  Alcotest.(check (list string)) "non-fig file exempt" []
    (rules (lint ~file:"lib/harness/report.ml" "let f () =\n  Printf.printf \"x\"\n"))

let test_lint_no_wallclock_in_data_phase () =
  (match lint "let fig_data opts =\n  Unix.gettimeofday ()\n" with
   | [ f ] -> Alcotest.(check string) "rule" "no-wallclock" f.Lint.rule
   | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs)));
  match lint "let fig_data opts =\n  Random.self_init ()\n" with
  | [ f ] -> Alcotest.(check string) "rule" "no-wallclock" f.Lint.rule
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs))

let test_lint_no_global_mutable () =
  (match lint "let total = ref 0\nlet fig_data opts = !total\n" with
   | [ f ] ->
     Alcotest.(check string) "rule" "no-global-mutable" f.Lint.rule;
     Alcotest.(check int) "line" 1 f.Lint.line
   | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs)));
  (* Local refs inside a binding are fine. *)
  Alcotest.(check (list string)) "local ref allowed" []
    (rules (lint "let fig_data opts =\n  let n = ref 0 in\n  !n\n"));
  (* A function that returns a fresh ref is not state. *)
  Alcotest.(check (list string)) "ref-making function allowed" []
    (rules (lint "let make x = ref x\n"))

let test_lint_lock_pairing () =
  (match lint ~file:"lib/proto/foo.ml" "let f l =\n  Lock.acquire l;\n  work ()\n" with
   | [ f ] ->
     Alcotest.(check string) "rule" "lock-pairing" f.Lint.rule;
     Alcotest.(check int) "whole file" 0 f.Lint.line
   | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs)));
  (* One acquire feeding several early-exit releases is legitimate. *)
  Alcotest.(check (list string)) "extra releases fine" []
    (rules
       (lint ~file:"lib/driver/foo.ml"
          "let f l =\n\
          \  Lock.acquire l;\n\
          \  if a then (Lock.release l; 0)\n\
          \  else (Lock.release l; 1)\n"));
  (* Tests exercise unpaired acquires on purpose. *)
  Alcotest.(check (list string)) "tests exempt" []
    (rules (lint ~file:"test/test_foo.ml" "let f l =\n  Lock.acquire l\n"))

let test_lint_trace_guard () =
  (match
     lint ~file:"lib/xkern/foo.ml"
       "let f tracer =\n  Trace.emit tracer ~ts:0 ~tid:0 ~cpu:0 ev\n"
   with
   | [ f ] -> Alcotest.(check string) "rule" "trace-guard" f.Lint.rule
   | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs)));
  Alcotest.(check (list string)) "guarded emit fine" []
    (rules
       (lint ~file:"lib/xkern/foo.ml"
          "let f tracer =\n\
          \  if Trace.enabled tracer then\n\
          \    Trace.emit tracer ~ts:0 ~tid:0 ~cpu:0 ev\n"));
  Alcotest.(check (list string)) "trace.ml itself exempt" []
    (rules
       (lint ~file:"lib/engine/trace.ml"
          "let f t =\n  Trace.emit t ~ts:0 ~tid:0 ~cpu:0 ev\n"));
  (* A record built for [Sim.trace] or a wrapper of it allocates even
     when the tracer is off, unless a tracer test guards it. *)
  Alcotest.(check (list string)) "unguarded record for Sim.trace" [ "trace-guard" ]
    (rules
       (lint ~file:"lib/proto/foo.ml"
          "let span_begin plat ~seq phase =\n\
          \  Sim.trace plat.Platform.sim (Trace.Span_begin { seq; phase })\n"));
  Alcotest.(check (list string)) "unguarded record for a wrapper, call on the line above"
    [ "trace-guard" ]
    (rules
       (lint ~file:"lib/proto/foo.ml"
          "let f sess log =\n  sync_trace sess\n    (Trace.Scr_apply { log; idx = -1 })\n"));
  Alcotest.(check (list string)) "guards the tree uses" []
    (rules
       (lint ~file:"lib/proto/foo.ml"
          "let f sim t sess log seq =\n\
          \  if Trace.enabled (Sim.tracer sim) then\n\
          \    Sim.trace sim (Trace.Span_end { seq; phase = Trace.Ip });\n\
          \  if tracing t then trace_node t (Trace.Mnode_ref { node = 0; refs = 1 });\n\
          \  if tracing then Sim.trace sim (Trace.Span_begin { seq; phase = Trace.Enqueue })\n"));
  (* The guard is the enclosing [if], however far above it sits... *)
  Alcotest.(check (list string)) "guard eight lines above" []
    (rules
       (lint ~file:"lib/xkern/foo.ml"
          "let f tr =\n\
          \  if Trace.enabled tr then begin\n\
          \    a ();\n\
          \    b ();\n\
          \    c ();\n\
          \    d ();\n\
          \    e ();\n\
          \    g ();\n\
          \    h ();\n\
          \    Trace.emit tr ~ts:0 ~tid:0 ~cpu:0 ev\n\
          \  end\n"));
  (* ...and a test on the line above guards nothing after its [if]. *)
  Alcotest.(check (list string)) "an if that ended guards nothing" [ "trace-guard" ]
    (rules
       (lint ~file:"lib/xkern/foo.ml"
          "let f tr =\n\
          \  if Trace.enabled tr then ignore 0;\n\
          \  Trace.emit tr ~ts:0 ~tid:0 ~cpu:0 ev\n"));
  Alcotest.(check (list string)) "a negated test guards nothing" [ "trace-guard" ]
    (rules
       (lint ~file:"lib/xkern/foo.ml"
          "let f tr =\n  if not (Trace.enabled tr) then Trace.emit tr ~ts:0 ~tid:0 ~cpu:0 ev\n"));
  Alcotest.(check (list string)) "record two lines below its trace call" [ "trace-guard" ]
    (rules
       (lint ~file:"lib/proto/foo.ml"
          "let f sim seq phase =\n\
          \  Sim.trace sim\n\
          \n\
          \    (Trace.Span_begin { seq; phase })\n"));
  Alcotest.(check (list string)) "matching on a record is not building one" []
    (rules
       (lint ~file:"lib/analysis/foo.ml"
          "let f r =\n  match r with\n  | Trace.Lock_grant { wait_ns; _ } -> wait_ns\n  | _ -> 0\n"))

let test_lint_allow_marker () =
  Alcotest.(check (list string)) "lint:allow suppresses" []
    (rules
       (lint "let fig_data opts =\n  Printf.printf \"x\" (* lint:allow: demo *)\n"))

let test_lint_no_env () =
  (match lint ~file:"lib/xkern/fake.ml" "let on =\n  Sys.getenv_opt \"FAKE\" = None\n" with
   | [ f ] ->
     Alcotest.(check string) "rule" "no-env" f.Lint.rule;
     Alcotest.(check int) "line" 2 f.Lint.line
   | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs)));
  Alcotest.(check (list string)) "Sys.getenv too" [ "no-env" ]
    (rules (lint ~file:"lib/harness/fake.ml" "let home () = Sys.getenv \"HOME\"\n"));
  Alcotest.(check (list string)) "allow marker honoured" []
    (rules
       (lint ~file:"lib/harness/fake.ml"
          "let home () = Sys.getenv \"HOME\" (* lint:allow no-env: demo *)\n"));
  Alcotest.(check (list string)) "outside lib/ exempt" []
    (rules
       (lint ~file:"test/qrand.ml" "let s = Sys.getenv_opt \"QCHECK_SEED\"\n"
       @ lint ~file:"bin/fake.ml" "let s = Sys.getenv_opt \"X\"\n"));
  Alcotest.(check (list string)) "a name in a string or comment is not a read" []
    (rules
       (lint ~file:"lib/xkern/fake.ml"
          "(* Sys.getenv is not read here *)\nlet s = \"Sys.getenv_opt\"\n"))

let test_lint_parse_error () =
  match lint ~file:"lib/xkern/bad.ml" "let f x = x\nlet g = )\nlet h = Sys.getenv \"X\"\n" with
  | [ f ] ->
    Alcotest.(check string) "rule" "parse" f.Lint.rule;
    Alcotest.(check int) "line" 2 f.Lint.line
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs))

let test_lint_clean_tree () =
  (* The repo must lint clean — this is `dune build @lint` as a unit
     test, pinned to wherever the runner starts. *)
  let root =
    let rec up d =
      if Sys.file_exists (Filename.concat d "dune-project") then Some d
      else
        let parent = Filename.dirname d in
        if parent = d then None else up parent
    in
    up (Sys.getcwd ())
  in
  match root with
  | None -> () (* sandboxed runner without the source tree: nothing to lint *)
  | Some root ->
    let roots =
      List.filter_map
        (fun d ->
          let p = Filename.concat root d in
          if Sys.file_exists p then Some p else None)
        Lint.roots
    in
    let findings = Lint.check_tree ~roots in
    List.iter (fun f -> Format.eprintf "lint: %a@." Lint.pp_finding f) findings;
    Alcotest.(check int) "clean" 0 (List.length findings)

let suites =
  [
    ( "analysis.lockset",
      [
        Alcotest.test_case "locked counter clean" `Quick test_lockset_clean_locked_counter;
        Alcotest.test_case "unlocked counter fires" `Quick
          test_lockset_fires_on_unlocked_counter;
        Alcotest.test_case "read-shared not reported" `Quick
          test_lockset_read_shared_not_reported;
        Alcotest.test_case "disjoint locksets fire" `Quick
          test_lockset_partial_lock_overlap_fires;
        Alcotest.test_case "unlocked map-cache write fires" `Quick
          test_lockset_fires_on_unlocked_map_cache;
        Alcotest.test_case "per-thread map cache is clean" `Quick
          test_unlocked_map_lookup_is_clean;
      ] );
    ( "analysis.lockorder",
      [
        Alcotest.test_case "inverted TCP-6 order is a cycle" `Quick
          test_lock_order_cycle_detected;
        Alcotest.test_case "consistent order is clean" `Quick
          test_lock_order_consistent_is_clean;
        Alcotest.test_case "three-lock cycle" `Quick test_lock_order_three_cycle;
      ] );
    ( "analysis.order",
      [
        Alcotest.test_case "fifo violation detected" `Quick
          test_fifo_order_violation_detected;
        Alcotest.test_case "in-order grants clean" `Quick test_fifo_order_in_order_clean;
        Alcotest.test_case "reorder windows quantified" `Quick test_reorder_window_stats;
        Alcotest.test_case "lock registers when first traced" `Quick
          test_lock_registers_when_first_traced;
        Alcotest.test_case "fifo lock created before trace still checked" `Quick
          test_fifo_created_before_trace_flagged;
      ] );
    ( "analysis.replay",
      [
        Alcotest.test_case "round-trip count and order" `Quick test_replay_round_trip;
        Alcotest.test_case "held locks and carried seq" `Quick test_replay_held_and_seq;
        Alcotest.test_case "unread records change no result" `Quick
          test_replay_skips_unread_records;
      ] );
    ( "analysis.e2e",
      [
        Alcotest.test_case "TCP-6 recv run is clean" `Quick
          test_clean_tcp6_run_has_no_findings;
        Alcotest.test_case "TCP-2 send run is clean" `Quick
          test_clean_tcp_send_run_has_no_findings;
      ] );
    ( "analysis.shared",
      [
        Alcotest.test_case "fixture findings and witnesses pinned" `Quick
          test_fixture_check_pinned;
        Alcotest.test_case "a check allocates little per record" `Quick
          test_check_allocation;
        Alcotest.test_case "seeded defects match the checkers alone" `Quick
          test_shared_pass_seeded_defects;
        Alcotest.test_case "one cell per discipline matches" `Quick
          test_shared_pass_real_cells;
      ] );
    ( "analysis.lint",
      [
        Alcotest.test_case "comments, strings and chars" `Quick test_lint_lexical;
        Alcotest.test_case "no print in data phase" `Quick test_lint_no_print_in_data_phase;
        Alcotest.test_case "no wallclock in data phase" `Quick
          test_lint_no_wallclock_in_data_phase;
        Alcotest.test_case "no global mutable state" `Quick test_lint_no_global_mutable;
        Alcotest.test_case "lock pairing" `Quick test_lint_lock_pairing;
        Alcotest.test_case "trace guard" `Quick test_lint_trace_guard;
        Alcotest.test_case "allow marker" `Quick test_lint_allow_marker;
        Alcotest.test_case "no environment reads in lib" `Quick test_lint_no_env;
        Alcotest.test_case "a file that does not parse" `Quick test_lint_parse_error;
        Alcotest.test_case "tree lints clean" `Quick test_lint_clean_tree;
      ] );
  ]
