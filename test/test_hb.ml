(* Happens-before race detection, the arena lifetime sanitizer, finding
   dedup/exit-code plumbing, and the trace store's chunk boundaries. *)

open Pnp_engine
open Pnp_analysis

let arch = Arch.challenge_100

(* ------------------------------------------------------------------ *)
(* Hand-built traces (same helper shape as test_analysis)              *)
(* ------------------------------------------------------------------ *)

let make_trace ?(locks = []) evs =
  let t = Trace.create () in
  List.iter (fun (name, discipline) -> Trace.register_lock t ~name ~discipline) locks;
  Trace.enable t;
  (* The tracer was just enabled unconditionally above. *)
  List.iteri (fun i (tid, ev) -> Trace.emit t ~ts:(i * 10) ~tid ~cpu:0 ev) evs (* lint:allow *);
  t

let grant lock = Trace.Lock_grant { lock; waiters = 0; wait_ns = 0 }
let rel lock = Trace.Lock_release { lock; hold_ns = 0 }
let acc ?(write = true) state = Trace.Access { state; write }
let fork child = Trace.Thread_fork { child }
let advance gate serving = Trace.Gate_advance { gate; serving }
let pass gate ticket = Trace.Gate_pass { gate; ticket; wait_ns = 0 }
let bus = Trace.Membus_charge { bytes = 64; dur_ns = 100 }

(* What the shared pass reports: the racy states, and one checker's
   findings. *)
let races t = (Check.run t).Check.races
let lockset t = (Check.run t).Check.lockset
let findings_of checker t = List.filter (fun f -> f.Finding.checker = checker) (Check.all t)

(* ------------------------------------------------------------------ *)
(* Happens-before                                                      *)
(* ------------------------------------------------------------------ *)

let test_hb_disjoint_locksets_race () =
  (* The tentpole seeded defect: each thread holds *a* lock but not a
     common one, and no other edge orders the writes.  Both the lockset
     checker and the HB checker must flag it. *)
  let t =
    make_trace
      [
        (1, grant "a"); (1, acc "x#f"); (1, rel "a");
        (2, grant "b"); (2, acc "x#f"); (2, rel "b");
      ]
  in
  Alcotest.(check (list string)) "hb flags" [ "x#f" ] (races t);
  (match lockset t with
   | [ f ] ->
     Alcotest.(check string) "lockset checker" "lockset" f.Finding.checker;
     Alcotest.(check string) "lockset agrees" "x#f" f.Finding.subject
   | fs -> Alcotest.fail (Printf.sprintf "expected 1 lockset finding, got %d" (List.length fs)));
  match findings_of "hb-race" t with
  | [ f ] ->
    Alcotest.(check string) "checker" "hb-race" f.Finding.checker;
    Alcotest.(check string) "subject" "x#f" f.Finding.subject;
    Alcotest.(check int) "both witnesses" 2 (List.length f.Finding.witnesses)
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 hb finding, got %d" (List.length fs))

let test_hb_lock_edge_orders () =
  (* Release→acquire on the same lock orders the two writes: clean under
     both checkers. *)
  let t =
    make_trace
      [
        (1, grant "l"); (1, acc "x#f"); (1, rel "l");
        (2, grant "l"); (2, acc "x#f"); (2, rel "l");
      ]
  in
  Alcotest.(check (list string)) "hb clean" [] (races t);
  Alcotest.(check int) "lockset clean" 0 (List.length (lockset t))

let test_hb_gate_orders_lockset_false_positive () =
  (* The seeded false positive: thread 1 writes, advances a gate; thread
     2 passes the gate, then writes — lock-free but strictly ordered.
     Lockset (no common lock) flags it; HB (signal→wait edge) must
     not. *)
  let t =
    make_trace
      [
        (1, acc "x#f"); (1, advance "g" 1);
        (2, pass "g" 1); (2, acc "x#f");
      ]
  in
  Alcotest.(check (list string)) "hb clean through gate" [] (races t);
  (match lockset t with
   | [ f ] ->
     Alcotest.(check string) "lockset still fires (the false positive)" "x#f"
       f.Finding.subject
   | fs -> Alcotest.fail (Printf.sprintf "expected 1 lockset finding, got %d" (List.length fs)));
  (* Same interleaving without the gate events IS a race. *)
  let bare = make_trace [ (1, acc "x#f"); (2, acc "x#f") ] in
  Alcotest.(check (list string)) "without the edge it races" [ "x#f" ] (races bare)

let test_hb_fork_edge () =
  (* Parent writes, then forks: the child's read is ordered.  A sibling
     forked before the write is not. *)
  let ordered = make_trace [ (1, acc "x#f"); (1, fork 2); (2, acc ~write:false "x#f") ] in
  Alcotest.(check (list string)) "fork orders parent past" [] (races ordered);
  let racy = make_trace [ (1, fork 2); (1, acc "x#f"); (2, acc "x#f") ] in
  Alcotest.(check (list string)) "post-fork parent write races" [ "x#f" ] (races racy)

let test_hb_bus_edge () =
  (* Membus replies serialise the two writes; without the charges the
     same pair races. *)
  let t = make_trace [ (1, acc "x#f"); (1, bus); (2, bus); (2, acc "x#f") ] in
  Alcotest.(check (list string)) "bus reply edge orders" [] (races t);
  let bare = make_trace [ (1, acc "x#f"); (2, acc "x#f") ] in
  Alcotest.(check (list string)) "without the charges it races" [ "x#f" ] (races bare)

let test_hb_write_write_flag () =
  let race t =
    match findings_of "hb-race" t with
    | [ f ] ->
      Alcotest.(check string) "state" "x#f" f.Finding.subject;
      f.Finding.message
    | fs -> Alcotest.failf "expected 1 race, got %d" (List.length fs)
  in
  let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  let rw = race (make_trace [ (1, acc "x#f"); (2, acc ~write:false "x#f") ]) in
  Alcotest.(check bool) ("read-write pair: " ^ rw) true
    (starts_with "unordered read/write pair by tid 1 and tid 2" rw);
  let ww = race (make_trace [ (1, acc "x#f"); (2, acc "x#f") ]) in
  Alcotest.(check bool) ("write-write pair: " ^ ww) true
    (starts_with "unordered writes by tid 1 and tid 2" ww)

let test_hb_reports_once_per_state () =
  let t =
    make_trace
      [ (1, acc "x#f"); (2, acc "x#f"); (1, acc "x#f"); (3, acc "x#f"); (2, acc "y#g"); (3, acc "y#g") ]
  in
  Alcotest.(check (list string)) "one race per state" [ "x#f"; "y#g" ] (races t)

(* ------------------------------------------------------------------ *)
(* Arena lifetime sanitizer                                            *)
(* ------------------------------------------------------------------ *)

let m_alloc node = Trace.Mnode_alloc { node }
let m_ref node refs = Trace.Mnode_ref { node; refs }
let m_unref node refs = Trace.Mnode_unref { node; refs }
let m_recycle node = Trace.Mnode_recycle { node }
let m_write node = Trace.Mnode_write { node }

let msgs fs = List.map (fun f -> f.Finding.message) fs

let expect_one_lifetime ~node ~sub t =
  match findings_of "lifetime" t with
  | [ f ] ->
    Alcotest.(check string) "checker" "lifetime" f.Finding.checker;
    Alcotest.(check string) "subject" (Printf.sprintf "mnode %d" node) f.Finding.subject;
    Alcotest.(check int) "witness pair" 2 (List.length f.Finding.witnesses);
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    if not (contains f.Finding.message sub) then
      Alcotest.failf "message %S does not mention %S" f.Finding.message sub
  | fs ->
    Alcotest.failf "expected 1 lifetime finding, got %d: %s" (List.length fs)
      (String.concat " | " (msgs fs))

let test_lifetime_use_after_free () =
  (* Seeded defect: a reference taken after the count hit zero. *)
  expect_one_lifetime ~node:7 ~sub:"use-after-free"
    (make_trace [ (1, m_alloc 7); (1, m_unref 7 0); (2, m_ref 7 1) ]);
  (* And the write flavour. *)
  expect_one_lifetime ~node:7 ~sub:"use-after-free"
    (make_trace [ (1, m_alloc 7); (1, m_unref 7 0); (1, m_write 7) ])

let test_lifetime_double_free () =
  expect_one_lifetime ~node:3 ~sub:"double-free"
    (make_trace [ (1, m_alloc 3); (1, m_unref 3 0); (2, m_unref 3 (-1)) ]);
  (* Recycling the same buffer twice is the arena-layer double free. *)
  expect_one_lifetime ~node:3 ~sub:"double-free"
    (make_trace
       [ (1, m_alloc 3); (1, m_unref 3 0); (1, m_recycle 3); (1, m_recycle 3) ])

let test_lifetime_write_after_recycle () =
  expect_one_lifetime ~node:9 ~sub:"write-after-recycle"
    (make_trace
       [ (1, m_alloc 9); (1, m_write 9); (1, m_unref 9 0); (1, m_recycle 9); (2, m_write 9) ])

let test_lifetime_recycle_live () =
  expect_one_lifetime ~node:4 ~sub:"live"
    (make_trace [ (1, m_alloc 4); (1, m_recycle 4) ])

let test_lifetime_clean_lifecycle () =
  (* Full healthy lifecycle incl. a cache re-arm (alloc of a previously
     freed node) and a recycle: nothing to report. *)
  let t =
    make_trace
      [
        (1, m_alloc 1); (1, m_write 1); (1, m_ref 1 2); (2, m_unref 1 1);
        (1, m_unref 1 0);
        (1, m_alloc 1) (* cache hit re-arms the freed node *);
        (1, m_write 1); (1, m_unref 1 0); (1, m_recycle 1);
        (2, m_alloc 2); (2, m_unref 2 0);
      ]
  in
  Alcotest.(check int) "clean lifecycle" 0 (List.length (findings_of "lifetime" t));
  (* Mid-lifecycle adoption: a trace that opens on an unref of a node we
     never saw allocated must not be reported. *)
  let adopted = make_trace [ (1, m_unref 42 1); (1, m_unref 42 0) ] in
  Alcotest.(check int) "adopted silently" 0 (List.length (findings_of "lifetime" adopted))

(* ------------------------------------------------------------------ *)
(* Finding dedup + exit-code bits                                      *)
(* ------------------------------------------------------------------ *)

let test_finding_dedupe () =
  let f ?(msg = "m") checker subject = Finding.v ~checker ~subject msg in
  let fs =
    [ f "lockset" "x#f"; f "lockset" "x#f"; f "lockset" "y#g";
      f "hb-race" "x#f"; f ~msg:"other" "lockset" "x#f" ]
  in
  let deduped = Finding.dedupe fs in
  (* Identical (checker, subject, message) collapses; different checker,
     subject or message survives, order preserved. *)
  Alcotest.(check int) "4 distinct" 4 (List.length deduped);
  Alcotest.(check (list string)) "order preserved"
    [ "lockset"; "lockset"; "hb-race"; "lockset" ]
    (List.map (fun f -> f.Finding.checker) deduped)

let test_finding_exit_code () =
  let f checker = Finding.v ~checker ~subject:"s" "m" in
  Alcotest.(check int) "empty" 0 (Finding.exit_code []);
  Alcotest.(check int) "race bit" 1 (Finding.exit_code [ f "lockset" ]);
  Alcotest.(check int) "hb is race family" 1 (Finding.exit_code [ f "hb-race" ]);
  Alcotest.(check int) "lifetime bit" 2 (Finding.exit_code [ f "lifetime" ]);
  Alcotest.(check int) "order bit" 4 (Finding.exit_code [ f "lock-order" ]);
  Alcotest.(check int) "families OR together" 7
    (Finding.exit_code [ f "lockset"; f "lifetime"; f "fifo-order" ]);
  Alcotest.(check int) "race+lifetime" 3
    (Finding.exit_code [ f "hb-race"; f "lifetime" ])

(* ------------------------------------------------------------------ *)
(* Trace store chunk boundaries                                       *)
(* ------------------------------------------------------------------ *)

(* State accesses per Trace chunk: four-word rows in 16,384 words, each
   written while five words are left. *)
let chunk = 4095

let boundary_trace n =
  let t = Trace.create () in
  Trace.enable t;
  for i = 0 to n - 1 do
    (* The tracer was enabled two lines up. *)
    Trace.emit t ~ts:i ~tid:(i mod 7) ~cpu:0 (acc "x#f") (* lint:allow *)
  done;
  t

let test_chunk_boundaries () =
  (* One short of the edge, exactly on it, one past it, and a two-chunk
     crossing: count, [events] order and [iter] must all agree. *)
  List.iter
    (fun n ->
      let t = boundary_trace n in
      Alcotest.(check int) (Printf.sprintf "count %d" n) n (Trace.count t);
      let evs = Trace.events t in
      Alcotest.(check int) (Printf.sprintf "events %d" n) n (List.length evs);
      let ok = ref true in
      List.iteri (fun i r -> if r.Trace.ts <> i then ok := false) evs;
      Alcotest.(check bool) (Printf.sprintf "ts order %d" n) true !ok;
      let via_iter = ref [] in
      Trace.iter t (fun r -> via_iter := r :: !via_iter);
      Alcotest.(check bool)
        (Printf.sprintf "iter matches events %d" n)
        true
        (List.rev !via_iter = evs))
    [ chunk - 1; chunk; chunk + 1; (2 * chunk) + 1 ]

let test_chunk_clear_and_refill () =
  (* Clearing at a boundary returns chunks to the free list; refilling
     past the boundary must produce a coherent trace again. *)
  let t = boundary_trace chunk in
  Trace.clear t;
  Alcotest.(check int) "cleared" 0 (Trace.count t);
  Alcotest.(check bool) "still enabled" true (Trace.enabled t);
  for i = 0 to chunk do
    (* Still enabled after clear (checked above). *)
    Trace.emit t ~ts:(1000 + i) ~tid:1 ~cpu:0 (acc "y#g") (* lint:allow *)
  done;
  Alcotest.(check int) "refilled across the edge" (chunk + 1) (Trace.count t);
  match Trace.events t with
  | first :: _ -> Alcotest.(check int) "first refill ts" 1000 first.Trace.ts
  | [] -> Alcotest.fail "no events after refill"

(* ------------------------------------------------------------------ *)
(* The engine and pool actually emit the new events                    *)
(* ------------------------------------------------------------------ *)

let test_engine_emits_fork_and_exit () =
  let sim = Sim.create () in
  Trace.enable (Sim.tracer sim);
  let child_tid = ref (-1) in
  let _ =
    Sim.spawn sim ~name:"parent" (fun () ->
        Sim.delay sim 10;
        let th = Sim.spawn sim ~name:"kid" (fun () -> Sim.delay sim 10) in
        child_tid := Sim.tid th)
  in
  Sim.run sim;
  let forks = ref [] and exits = ref 0 in
  Trace.iter (Sim.tracer sim) (fun r ->
      match r.Trace.ev with
      | Trace.Thread_fork { child } -> forks := child :: !forks
      | Trace.Thread_exit -> incr exits
      | _ -> ());
  (* Only the in-thread spawn records a fork edge (the root spawn has no
     simulated parent); every thread body that returns records an exit. *)
  Alcotest.(check (list int)) "fork edge carries child tid" [ !child_tid ] !forks;
  Alcotest.(check int) "both threads exited" 2 !exits

let test_gate_emits_advance_before_pass () =
  let sim = Sim.create () in
  Trace.enable (Sim.tracer sim);
  let gate = Gate.create sim arch ~name:"g" in
  for i = 0 to 1 do
    ignore
      (Sim.spawn sim ~name:(Printf.sprintf "t%d" i) (fun () ->
           Sim.delay sim (100 * i);
           let n = Gate.take gate in
           Gate.await gate n;
           Sim.delay sim 10;
           Gate.advance gate))
  done;
  Sim.run sim;
  (* Ticket 1 waits for ticket 0's advance; in the trace the advance to
     serving=1 must precede ticket 1's pass. *)
  let order = ref [] in
  Trace.iter (Sim.tracer sim) (fun r ->
      match r.Trace.ev with
      | Trace.Gate_advance { serving; _ } -> order := ("adv", serving) :: !order
      | Trace.Gate_pass { ticket; _ } -> order := ("pass", ticket) :: !order
      | _ -> ());
  match List.rev !order with
  | [ ("pass", 0); ("adv", 1); ("pass", 1); ("adv", 2) ] -> ()
  | o ->
    Alcotest.failf "unexpected gate event order: %s"
      (String.concat " "
         (List.map (fun (k, n) -> Printf.sprintf "%s:%d" k n) o))

let test_pool_emits_lifecycle_and_sanitizer_passes () =
  (* Drive real Msg/Mpool traffic inside a simulated thread and demand
     (a) the lifecycle events appear, (b) each write operation
     ([of_string]'s fill, [set_u8]) surfaces as exactly one
     Mnode_write, (c) the sanitizer finds nothing to complain about,
     and (d) no node is left live, since this fixture drains to
     completion. *)
  let p = Platform.create arch in
  let sim = p.Platform.sim in
  let pool = Pnp_xkern.Mpool.create p in
  Trace.enable (Sim.tracer sim);
  let _ =
    Sim.spawn sim ~name:"worker" (fun () ->
        let m = Pnp_xkern.Msg.of_string pool "hello world" in
        Pnp_xkern.Msg.set_u8 m 0 0x42;
        let d = Pnp_xkern.Msg.dup m in
        Pnp_xkern.Msg.destroy m;
        Pnp_xkern.Msg.destroy d;
        Sim.delay sim 10)
  in
  Sim.run sim;
  let tracer = Sim.tracer sim in
  let allocs = ref 0 and refs = ref 0 and unrefs = ref 0 and writes = ref 0 in
  Trace.iter tracer (fun r ->
      match r.Trace.ev with
      | Trace.Mnode_alloc _ -> incr allocs
      | Trace.Mnode_ref _ -> incr refs
      | Trace.Mnode_unref _ -> incr unrefs
      | Trace.Mnode_write _ -> incr writes
      | _ -> ());
  Alcotest.(check int) "one node allocated" 1 !allocs;
  Alcotest.(check int) "dup took a reference" 1 !refs;
  Alcotest.(check int) "both holders dropped" 2 !unrefs;
  Alcotest.(check int) "one Mnode_write per write" 2 !writes;
  Alcotest.(check int) "sanitizer passes" 0 (List.length (findings_of "lifetime" tracer));
  Alcotest.(check int) "no leaks at drain" 0 (Pnp_xkern.Mpool.live_nodes pool)

let suites =
  [
    ( "analysis.hb",
      [
        Alcotest.test_case "disjoint locksets race (both checkers)" `Quick
          test_hb_disjoint_locksets_race;
        Alcotest.test_case "lock release->acquire orders" `Quick test_hb_lock_edge_orders;
        Alcotest.test_case "gate edge clears lockset false positive" `Quick
          test_hb_gate_orders_lockset_false_positive;
        Alcotest.test_case "fork edge" `Quick test_hb_fork_edge;
        Alcotest.test_case "membus reply edge orders" `Quick test_hb_bus_edge;
        Alcotest.test_case "write-write flag" `Quick test_hb_write_write_flag;
        Alcotest.test_case "one report per state" `Quick test_hb_reports_once_per_state;
      ] );
    ( "analysis.lifetime",
      [
        Alcotest.test_case "use-after-free" `Quick test_lifetime_use_after_free;
        Alcotest.test_case "double-free" `Quick test_lifetime_double_free;
        Alcotest.test_case "write-after-recycle" `Quick test_lifetime_write_after_recycle;
        Alcotest.test_case "recycle under a live node" `Quick test_lifetime_recycle_live;
        Alcotest.test_case "clean lifecycle and adoption" `Quick test_lifetime_clean_lifecycle;
      ] );
    ( "analysis.finding",
      [
        Alcotest.test_case "dedupe identical findings" `Quick test_finding_dedupe;
        Alcotest.test_case "exit-code family bits" `Quick test_finding_exit_code;
      ] );
    ( "engine.trace.chunks",
      [
        Alcotest.test_case "boundary counts and order" `Quick test_chunk_boundaries;
        Alcotest.test_case "clear and refill across the edge" `Quick
          test_chunk_clear_and_refill;
      ] );
    ( "engine.trace.emission",
      [
        Alcotest.test_case "fork and exit events" `Quick test_engine_emits_fork_and_exit;
        Alcotest.test_case "gate advance precedes pass" `Quick
          test_gate_emits_advance_before_pass;
        Alcotest.test_case "mnode lifecycle traced and sanitized" `Quick
          test_pool_emits_lifecycle_and_sanitizer_passes;
      ] );
  ]
