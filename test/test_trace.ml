(* Event-tracing subsystem: ordering invariants, determinism, exporter
   sanity, and agreement between trace totals and aggregate counters. *)

open Pnp_engine
open Pnp_harness

let arch = Arch.challenge_100

(* Contended-lock scenario with the tracer on from the start: a holder
   pins the lock while six waiters arrive at known distinct times. *)
let traced_lock_run disc ~seed =
  let sim = Sim.create ~seed () in
  Trace.enable (Sim.tracer sim);
  let lock = Lock.create sim arch disc ~name:"l" in
  let _ =
    Sim.spawn sim ~name:"holder" (fun () ->
        Lock.acquire lock;
        Sim.delay sim 1_000_000;
        Lock.release lock)
  in
  for i = 1 to 6 do
    ignore
      (Sim.spawn sim ~name:(Printf.sprintf "w%d" i) (fun () ->
           Sim.delay sim (2_000 * i);
           Lock.acquire lock;
           Sim.delay sim 10;
           Lock.release lock))
  done;
  Sim.run sim;
  Sim.tracer sim

let grant_tids tracer =
  List.filter_map
    (fun r -> match r.Trace.ev with Trace.Lock_grant _ -> Some r.Trace.tid | _ -> None)
    (Trace.events tracer)

let request_tids tracer =
  List.filter_map
    (fun r -> match r.Trace.ev with Trace.Lock_request _ -> Some r.Trace.tid | _ -> None)
    (Trace.events tracer)

let test_grant_has_prior_request () =
  (* Every grant must be preceded by a request from the same thread on the
     same lock that has not been matched by an earlier grant. *)
  List.iter
    (fun disc ->
      let tracer = traced_lock_run disc ~seed:5 in
      let pending = Hashtbl.create 16 in
      List.iter
        (fun r ->
          match r.Trace.ev with
          | Trace.Lock_request { lock; _ } ->
            Hashtbl.replace pending (lock, r.Trace.tid) ()
          | Trace.Lock_grant { lock; _ } ->
            if not (Hashtbl.mem pending (lock, r.Trace.tid)) then
              Alcotest.failf "grant to tid %d without pending request" r.Trace.tid;
            Hashtbl.remove pending (lock, r.Trace.tid)
          | _ -> ())
        (Trace.events tracer);
      Alcotest.(check int) "no unmatched requests left behind" 0 (Hashtbl.length pending))
    [ Lock.Unfair; Lock.Fifo; Lock.Barging ]

let test_fifo_grants_in_request_order () =
  (* MCS hands the lock over in arrival order, so the grant tid sequence
     equals the request tid sequence. *)
  List.iter
    (fun seed ->
      let tracer = traced_lock_run Lock.Fifo ~seed in
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d: fifo grants = requests" seed)
        (request_tids tracer) (grant_tids tracer))
    [ 1; 2; 3; 4; 5 ]

let test_unfair_grants_observably_reorder () =
  (* The IRIX-style mutex grants an arbitrary waiter: for some seed the
     trace must show grants diverging from request order. *)
  let reordered =
    List.exists
      (fun seed ->
        let tracer = traced_lock_run Lock.Unfair ~seed in
        grant_tids tracer <> request_tids tracer)
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check bool) "unfair reorders for some seed" true reordered

let test_wait_matches_lock_accounting () =
  (* The summed wait_ns in grant events equals the lock's own counter. *)
  let sim = Sim.create ~seed:9 () in
  Trace.enable (Sim.tracer sim);
  let lock = Lock.create sim arch Lock.Fifo ~name:"acct" in
  for i = 0 to 3 do
    ignore
      (Sim.spawn sim ~name:(Printf.sprintf "t%d" i) (fun () ->
           for _ = 1 to 20 do
             Lock.acquire lock;
             Sim.delay sim 5_000;
             Lock.release lock;
             Sim.delay sim 500
           done))
  done;
  Sim.run sim;
  let traced =
    List.fold_left
      (fun acc r ->
        match r.Trace.ev with
        | Trace.Lock_grant { wait_ns; _ } -> acc + wait_ns
        | _ -> acc)
      0
      (Trace.events (Sim.tracer sim))
  in
  Alcotest.(check int) "trace wait = counter wait" (Lock.total_wait_ns lock) traced;
  let table = Trace.lock_table (Sim.tracer sim) in
  (match table with
   | [ row ] ->
     Alcotest.(check string) "lock name" "acct" row.Trace.lock;
     Alcotest.(check int) "table wait" (Lock.total_wait_ns lock) row.Trace.wait_ns;
     Alcotest.(check int) "table hold" (Lock.total_hold_ns lock) row.Trace.hold_ns;
     Alcotest.(check int) "acquisitions" (Lock.acquisitions lock) row.Trace.acquisitions;
     Alcotest.(check int) "contended" (Lock.contended_acquisitions lock) row.Trace.contended
   | rows -> Alcotest.failf "expected one lock in table, got %d" (List.length rows))

let test_gate_pass_after_take_in_ticket_order () =
  let sim = Sim.create ~seed:3 () in
  Trace.enable (Sim.tracer sim);
  let gate = Gate.create sim arch ~name:"g" in
  (* Four threads take tickets in spawn order but await out of order. *)
  for i = 0 to 3 do
    ignore
      (Sim.spawn sim ~name:(Printf.sprintf "t%d" i) (fun () ->
           Sim.delay sim (100 * i);
           let n = Gate.take gate in
           (* later tickets dawdle before awaiting; earlier ones pass anyway *)
           Sim.delay sim (1_000 * (4 - i));
           Gate.await gate n;
           Sim.delay sim 10;
           Gate.advance gate))
  done;
  Sim.run sim;
  let takes = ref [] and passes = ref [] in
  let taken = Hashtbl.create 8 in
  List.iter
    (fun r ->
      match r.Trace.ev with
      | Trace.Gate_take { ticket; _ } ->
        takes := ticket :: !takes;
        Hashtbl.replace taken ticket ()
      | Trace.Gate_pass { ticket; _ } ->
        if not (Hashtbl.mem taken ticket) then
          Alcotest.failf "ticket %d passed the gate before being taken" ticket;
        passes := ticket :: !passes
      | _ -> ())
    (Trace.events (Sim.tracer sim));
  Alcotest.(check (list int)) "tickets issued in order" [ 0; 1; 2; 3 ] (List.rev !takes);
  Alcotest.(check (list int)) "gate passes in ticket order" [ 0; 1; 2; 3 ]
    (List.rev !passes)

let test_disabled_records_nothing () =
  let sim = Sim.create ~seed:2 () in
  let lock = Lock.create sim arch Lock.Unfair ~name:"l" in
  for i = 0 to 2 do
    ignore
      (Sim.spawn sim ~name:(Printf.sprintf "t%d" i) (fun () ->
           for _ = 1 to 10 do
             Lock.acquire lock;
             Sim.delay sim 1_000;
             Lock.release lock
           done))
  done;
  Sim.run sim;
  Alcotest.(check int) "no events while disabled" 0 (Trace.count (Sim.tracer sim))

(* The thread column packs tid and cpu into one int: every value a
   record can carry, -1 (outside any thread) included, must come back. *)
let test_records_keep_tid_and_cpu () =
  let t = Trace.create () in
  Trace.enable t;
  let who = [ (-1, -1); (0, 0); (5, 3); (3, -1); (1_000_000, 63); (7, 1 lsl 29) ] in
  (* The tracer was just enabled unconditionally above. *)
  List.iteri
    (fun i (tid, cpu) -> Trace.emit t ~ts:i ~tid ~cpu Trace.Thread_exit (* lint:allow *))
    who;
  Alcotest.(check (list (pair int int)))
    "tid and cpu round-trip" who
    (List.map (fun (r : Trace.record) -> (r.Trace.tid, r.Trace.cpu)) (Trace.events t))

(* One value of every constructor, every field distinct from its
   neighbours (so a swapped or dropped field shows), both booleans and
   every packet phase, extreme ints included. *)
let every_ev =
  let phases = Trace.[ Enqueue; Ip; Lock_wait; Tcp_input; Upcall ] in
  Trace.
    [
      Thread_spawn { name = "worker 3" };
      Thread_fork { child = 12 };
      Thread_exit;
      Lock_request { lock = "tcp.conn:1"; waiters = 4 };
      Lock_grant { lock = "tcp.conn:2"; waiters = 5; wait_ns = 1 lsl 40 };
      Lock_handoff { lock = "ip.demux"; to_tid = -1; handoff_ns = 77 };
      Lock_release { lock = "app.0"; hold_ns = max_int };
      Gate_take { gate = "g1"; ticket = 9 };
      Gate_pass { gate = "g2"; ticket = 10; wait_ns = 11 };
      Gate_advance { gate = "g3"; serving = 12 };
      Membus_charge { bytes = 4096; dur_ns = 123 };
      Mpool_alloc { hit = true };
      Mpool_alloc { hit = false };
      Mnode_alloc { node = 1 };
      Mnode_ref { node = 2; refs = 3 };
      Mnode_unref { node = 4; refs = 0 };
      Mnode_recycle { node = 5 };
      Mnode_write { node = 6 };
    ]
  @ List.concat_map
      (fun phase ->
        Trace.[ Span_begin { seq = 8192; phase }; Span_end { seq = -8192; phase } ])
      phases
  @ Trace.
      [
        Access { state = "tcb#snd"; write = false };
        Access { state = "tcb#rcv"; write = true };
        Fault_drop { cause = "burst" };
        Fault_dup { copies = 2 };
        Fault_corrupt { off = 17; bit = 7 };
        Fault_reorder { delay_ns = min_int };
        Scr_append { log = "log.a"; idx = 0 };
        Scr_apply { log = "log.b"; idx = -1 };
        Scr_apply_end { log = "log.c"; idx = 3 };
        Scr_replay { log = "log.d"; upto = 4 };
        Rcu_read { state = "rcu#x" };
        Rcu_publish { state = "rcu#y" };
      ]

(* Every constructor survives [emit] -> [events] unchanged, with the
   extreme tids, cpus and timestamps, over enough copies that rows of
   every width straddle chunk boundaries. *)
let test_every_event_round_trips () =
  let who = [| (-1, -1); (0, 0); (7, 3); (1_000_000, 1 lsl 29); (3, -1) |] in
  let copies = 400 in
  let expected =
    List.concat
      (List.init copies (fun c ->
           List.mapi
             (fun i ev ->
               let n = (c * List.length every_ev) + i in
               let tid, cpu = who.(n mod Array.length who) in
               let ts = if n mod 3 = 0 then max_int - n else n * 1_000_003 in
               { Trace.ts; tid; cpu; ev })
             every_ev))
  in
  let t = Trace.create () in
  Trace.enable t;
  List.iter
    (fun (r : Trace.record) ->
      (* Enabled just above. *)
      Trace.emit t ~ts:r.Trace.ts ~tid:r.Trace.tid ~cpu:r.Trace.cpu r.Trace.ev (* lint:allow *))
    expected;
  Alcotest.(check int) "count" (List.length expected) (Trace.count t);
  let got = Trace.events t in
  List.iter2
    (fun (e : Trace.record) g ->
      if e <> g then
        Alcotest.failf "record at ts %d (tid %d, cpu %d) did not round-trip" e.Trace.ts
          e.Trace.tid e.Trace.cpu)
    expected got;
  (* A kind filter keeps exactly the matching records, in order. *)
  let is_access = function Trace.Access _ -> true | _ -> false in
  let accesses = ref [] in
  Trace.iter_rows t (Trace.kinds is_access) (fun row ->
      accesses := Trace.Row.record row :: !accesses);
  Alcotest.(check bool)
    "iter_rows keeps the accesses" true
    (List.rev !accesses = List.filter (fun (r : Trace.record) -> is_access r.Trace.ev) expected)

(* A record no reader reads is waste: every constructor is either read
   by the checkers' replay or shows in the Chrome export. *)
let test_every_event_has_a_reader () =
  let chrome evs =
    let t = Trace.create () in
    Trace.enable t;
    (* Enabled just above. *)
    List.iter (fun ev -> Trace.emit t ~ts:1_000 ~tid:0 ~cpu:0 ev (* lint:allow *)) evs;
    Trace.to_chrome_string t
  in
  let empty = chrome [] in
  List.iteri
    (fun i ev ->
      if not (Pnp_analysis.Replay.read_by_checkers ev || chrome [ ev ] <> empty) then
        Alcotest.failf "every_ev.(%d) has no reader" i)
    every_ev

(* More distinct names than the tracer's identity cache has slots,
   named records interleaved with unnamed ones over several chunks, and
   half the emissions passing a fresh copy of the name: every name must
   come back through each reader, with ids dense in first-emission
   order, and again after [clear] and a second trace. *)
let test_names_round_trip () =
  let n_names = 300 and n_records = 24_000 in
  let names = Array.init n_names (Printf.sprintf "tcp.conn:%d") in
  let ev n =
    let s = names.(n / 2 * 7 mod n_names) in
    let s = if n land 4 = 0 then s else String.sub s 0 (String.length s) in
    match n mod 4 with
    | 0 -> Trace.Lock_grant { lock = s; waiters = n; wait_ns = -n }
    | 1 -> Trace.Mnode_ref { node = n; refs = 2 }
    | 2 -> Trace.Access { state = s; write = n land 2 = 0 }
    | _ -> Trace.Span_begin { seq = n; phase = Trace.Ip }
  in
  let t = Trace.create () in
  Trace.enable t;
  (* At two to five words a row, the rows fill at least four chunks. *)
  let trace evs =
    Trace.clear t;
    (* Enabled just above. *)
    List.iteri (fun ts ev -> Trace.emit t ~ts ~tid:1 ~cpu:0 ev (* lint:allow *)) evs;
    let expected = List.mapi (fun ts ev -> { Trace.ts; tid = 1; cpu = 0; ev }) evs in
    if Trace.events t <> expected then Alcotest.fail "a record did not round-trip through iter";
    let named = Trace.kinds (function Trace.Lock_grant _ | Trace.Access _ -> true | _ -> false) in
    let rows = ref [] in
    Trace.iter_rows t named (fun row ->
        let r = Trace.Row.record row in
        (match r.Trace.ev with
         | Trace.Lock_grant { lock = s; _ } | Trace.Access { state = s; _ } ->
           if Trace.Row.name row <> s then Alcotest.failf "row %d: Row.name is wrong" r.Trace.ts
         | _ -> ());
        rows := (Trace.Row.pos row, Trace.Row.id row, r) :: !rows);
    List.iter
      (fun (pos, _, r) ->
        if Trace.record_at t pos <> r then Alcotest.failf "record_at of row %d" r.Trace.ts)
      !rows;
    List.rev_map (fun (_, id, (r : Trace.record)) -> (id, r)) !rows
  in
  let name_of (r : Trace.record) =
    match r.Trace.ev with
    | Trace.Lock_grant { lock = s; _ } | Trace.Access { state = s; _ } -> s
    | _ -> assert false
  in
  (* Every id names its string, and a name's id never changes. *)
  let ids = Hashtbl.create 64 in
  let check_ids rows =
    List.iter
      (fun (id, r) ->
        let s = name_of r in
        if Trace.name t id <> s then Alcotest.failf "id %d is %S, not %S" id (Trace.name t id) s;
        match Hashtbl.find_opt ids s with
        | Some id' -> if id <> id' then Alcotest.failf "%S has ids %d and %d" s id' id
        | None ->
          if id <> Hashtbl.length ids then
            Alcotest.failf "%S first emitted as id %d, not %d" s id (Hashtbl.length ids);
          Hashtbl.replace ids s id)
      rows
  in
  check_ids (trace (List.init n_records ev));
  Alcotest.(check int) "every name numbered" n_names (Trace.name_count t);
  (* The second trace: the names in another order, and new ones. *)
  let fresh = Array.init 50 (Printf.sprintf "ip.demux:%d") in
  check_ids
    (trace
       (List.init n_records (fun n ->
            if n mod 10 = 9 then Trace.Access { state = fresh.(n / 10 mod 50); write = true }
            else ev (n_records - n))));
  Alcotest.(check int) "the new names numbered after the old" (n_names + 50) (Trace.name_count t);
  (* The table's spare capacity names nothing. *)
  Alcotest.check_raises "an id past the names" (Invalid_argument "Trace.name: not a name id")
    (fun () -> ignore (Trace.name t (Trace.name_count t)))

(* A name the tracer has seen costs an emit no allocation: the identity
   cache answers, and the id goes into the row. *)
let test_interned_emit_allocates_nothing () =
  let t = Trace.create () in
  Trace.enable t;
  let ev = Trace.Lock_grant { lock = "tcp.conn:0"; waiters = 1; wait_ns = 2 } in
  let emits () =
    for ts = 1 to 10_000 do
      (* Enabled just above. *)
      Trace.emit t ~ts ~tid:0 ~cpu:0 ev (* lint:allow *)
    done
  in
  (* The first pass interns the name and allocates the chunks. *)
  emits ();
  Trace.clear t;
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  Alcotest.(check (float 0.)) "minor words of 10^4 emits" (words ignore) (words emits)

let fig10_cfg ~seed =
  Config.v ~protocol:Config.Tcp ~side:Config.Recv ~payload:4096 ~checksum:true
    ~lock_disc:Lock.Unfair ~procs:8 ~warmup:(Pnp_util.Units.ms 30.0)
    ~measure:(Pnp_util.Units.ms 60.0) ~seed ()

let test_tracing_does_not_perturb_results () =
  (* The acceptance bar: enabling the tracer must not change any reproduced
     number for a fixed seed, because trace emission consumes no simulated
     time. *)
  let cfg = fig10_cfg ~seed:11 in
  let plain = Run.run cfg in
  let traced, tracer = Run.run_traced cfg in
  Alcotest.(check bool) "identical results with tracing on" true (plain = traced);
  Alcotest.(check bool) "events were recorded" true (Trace.count tracer > 0)

let test_trace_wait_agrees_with_lock_wait_pct () =
  (* Fig-10-style run: the connection-lock wait total reconstructed from
     grant events must agree with the lock_wait_pct aggregate within 1%. *)
  let cfg = fig10_cfg ~seed:7 in
  let result, tracer = Run.run_traced cfg in
  let is_conn_lock name =
    (* conn locks are named "<proto>.conn:<lport>-<raddr>:<rport>" *)
    let rec has_sub i =
      if i + 6 > String.length name then false
      else String.sub name i 6 = ".conn:" || has_sub (i + 1)
    in
    has_sub 0
  in
  let traced_wait =
    List.fold_left
      (fun acc r ->
        match r.Trace.ev with
        | Trace.Lock_grant { lock; wait_ns; _ } when is_conn_lock lock -> acc + wait_ns
        | _ -> acc)
      0 (Trace.events tracer)
  in
  let traced_pct =
    100.0 *. float_of_int traced_wait /. float_of_int (8 * Pnp_util.Units.ms 60.0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "run saw contention (lock_wait_pct = %.1f)" result.Run.lock_wait_pct)
    true
    (result.Run.lock_wait_pct > 1.0);
  let rel_err =
    abs_float (traced_pct -. result.Run.lock_wait_pct) /. result.Run.lock_wait_pct
  in
  Alcotest.(check bool)
    (Printf.sprintf "trace %.3f%% vs aggregate %.3f%% (rel err %.4f)" traced_pct
       result.Run.lock_wait_pct rel_err)
    true (rel_err < 0.01)

(* Strings go out JSON-escaped: a control byte becomes [\u00XX] and a
   non-ASCII byte passes through, where OCaml's [%S] would write
   decimal escapes that no JSON parser accepts. *)
let test_json_escape () =
  let check name want s = Alcotest.(check string) name want (Trace.json_escape s) in
  check "control byte, non-ASCII kept" "lib/caf\195\169.ml\\u0001" "lib/caf\195\169.ml\001";
  check "quote" "say \\\"hi\\\"" "say \"hi\"";
  check "backslash" "a\\\\b" "a\\b";
  check "tab" "tab\\t" "tab\t"

let test_chrome_export_sanity () =
  let tracer = traced_lock_run Lock.Unfair ~seed:4 in
  let s = Trace.to_chrome_string tracer in
  Alcotest.(check bool) "has traceEvents key" true
    (String.length s > 20 && String.sub s 0 16 = "{\"traceEvents\":[");
  (* Balanced braces/brackets outside string literals => structurally
     plausible JSON without pulling in a parser. *)
  let depth = ref 0 and bracket = ref 0 and in_str = ref false and esc = ref false in
  String.iter
    (fun c ->
      if !in_str then begin
        if !esc then esc := false
        else if c = '\\' then esc := true
        else if c = '"' then in_str := false
      end
      else
        match c with
        | '"' -> in_str := true
        | '{' -> incr depth
        | '}' -> decr depth
        | '[' -> incr bracket
        | ']' -> decr bracket
        | _ -> ())
    s;
  Alcotest.(check int) "balanced braces" 0 !depth;
  Alcotest.(check int) "balanced brackets" 0 !bracket;
  Alcotest.(check bool) "not inside a string" false !in_str;
  (* Writing to a file round-trips the same bytes. *)
  let file = Filename.temp_file "pnp_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Trace.write_chrome tracer file;
      let ic = open_in_bin file in
      let n = in_channel_length ic in
      let contents = really_input_string ic n in
      close_in ic;
      Alcotest.(check string) "file matches string" s contents)

(* The export names threads from the world's own table: threads spawned
   before the tracer is enabled, and those spawned after, each get one
   metadata row with their name and CPU, in tid order, ahead of the
   events. *)
let test_chrome_names_early_threads () =
  let sim = Sim.create () in
  let spawn name cpu = ignore (Sim.spawn sim ~cpu ~name (fun () -> Sim.delay sim 1_000)) in
  spawn "early-a" 3;
  spawn "early \"b\"" 0;
  Sim.run ~until:500 sim;
  Trace.enable (Sim.tracer sim);
  spawn "late" 1;
  Sim.run sim;
  let meta =
    String.split_on_char '\n' (Trace.to_chrome_string (Sim.tracer sim))
    |> List.filter (String.starts_with ~prefix:"{\"ph\":\"M\"")
  in
  let row tid name cpu =
    Printf.sprintf
      "{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"%s (cpu %d)\"}},"
      tid name cpu
  in
  Alcotest.(check (list string)) "one row per thread, in tid order"
    [ row 0 "early-a" 3; row 1 "early \\\"b\\\"" 0; row 2 "late" 1 ]
    meta

let test_packet_spans_balanced () =
  (* In a traced TCP run every span end must close a begun span of the
     same (seq, phase); at most the in-flight tail may stay open. *)
  let _, tracer = Run.run_traced (fig10_cfg ~seed:5) in
  let open_spans = Hashtbl.create 256 in
  let begins = ref 0 and ends = ref 0 and orphan_ends = ref 0 in
  List.iter
    (fun r ->
      match r.Trace.ev with
      | Trace.Span_begin { seq; phase } ->
        incr begins;
        Hashtbl.replace open_spans (seq, phase) ()
      | Trace.Span_end { seq; phase } ->
        incr ends;
        (* An end with no begin can only come from a span the warmup
           boundary cut in half (begin fell before tracing started). *)
        if Hashtbl.mem open_spans (seq, phase) then Hashtbl.remove open_spans (seq, phase)
        else incr orphan_ends
      | _ -> ())
    (Trace.events tracer);
  Alcotest.(check bool) "spans recorded" true (!begins > 0);
  Alcotest.(check bool)
    (Printf.sprintf "orphan ends (%d) bounded by window-start cut" !orphan_ends)
    true (!orphan_ends <= 16);
  Alcotest.(check bool)
    (Printf.sprintf "dangling begins (%d) bounded by window-end cut"
       (Hashtbl.length open_spans))
    true
    (Hashtbl.length open_spans <= 16)

(* Each traced state keeps one name string: the TCP sessions and the
   demux maps build a state's name once, not once per access.  The trace
   decodes every record of a name to the table's one string, so the
   strings the emitters passed show only in the identity cache: an
   access that passes a fresh copy misses it. *)
let test_state_names_shared () =
  let _, tracer = Run.run_traced (fig10_cfg ~seed:5) in
  let accesses = ref 0 in
  Trace.iter tracer (fun r -> match r.Trace.ev with Trace.Access _ -> incr accesses | _ -> ());
  let misses = Trace.name_misses tracer in
  Alcotest.(check bool) "states accessed" true (!accesses > 0);
  if 10 * misses >= !accesses then
    Alcotest.failf "%d name lookups missed the cache over %d accesses" misses !accesses

let suites =
  [
    ( "engine.trace",
      [
        Alcotest.test_case "grant preceded by request" `Quick test_grant_has_prior_request;
        Alcotest.test_case "fifo grants in request order" `Quick
          test_fifo_grants_in_request_order;
        Alcotest.test_case "unfair observably reorders" `Quick
          test_unfair_grants_observably_reorder;
        Alcotest.test_case "wait matches lock accounting" `Quick
          test_wait_matches_lock_accounting;
        Alcotest.test_case "gate passes in ticket order" `Quick
          test_gate_pass_after_take_in_ticket_order;
        Alcotest.test_case "disabled records nothing" `Quick test_disabled_records_nothing;
        Alcotest.test_case "records keep tid and cpu" `Quick test_records_keep_tid_and_cpu;
        Alcotest.test_case "every event round-trips" `Quick test_every_event_round_trips;
        Alcotest.test_case "every event has a reader" `Quick test_every_event_has_a_reader;
        Alcotest.test_case "names round-trip" `Quick test_names_round_trip;
        Alcotest.test_case "interned emit allocates nothing" `Quick
          test_interned_emit_allocates_nothing;
        Alcotest.test_case "json_escape escapes" `Quick test_json_escape;
        Alcotest.test_case "chrome export sanity" `Quick test_chrome_export_sanity;
        Alcotest.test_case "chrome names threads spawned before enable" `Quick
          test_chrome_names_early_threads;
      ] );
    ( "harness.trace",
      [
        Alcotest.test_case "tracing does not perturb results" `Slow
          test_tracing_does_not_perturb_results;
        Alcotest.test_case "trace wait agrees with aggregate" `Slow
          test_trace_wait_agrees_with_lock_wait_pct;
        Alcotest.test_case "packet spans balanced" `Slow test_packet_spans_balanced;
        Alcotest.test_case "state names are shared" `Slow test_state_names_shared;
      ] );
  ]
