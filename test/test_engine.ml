open Pnp_util
open Pnp_engine

let arch = Arch.challenge_100

(* ------------------------------------------------------------------ *)
(* Eventq                                                              *)
(* ------------------------------------------------------------------ *)

let test_eventq_order () =
  let q = Eventq.create () in
  Eventq.add q ~time:30 "c";
  Eventq.add q ~time:10 "a";
  Eventq.add q ~time:20 "b";
  let popped =
    List.init 3 (fun _ ->
        let t = Eventq.peek_time_exn q in
        (t, Eventq.pop_exn q))
  in
  Alcotest.(check (list (pair int string)))
    "time order"
    [ (10, "a"); (20, "b"); (30, "c") ]
    popped;
  Alcotest.(check bool) "empty" true (Eventq.is_empty q)

let test_eventq_fifo_ties () =
  let q = Eventq.create () in
  List.iter (fun s -> Eventq.add q ~time:5 s) [ "x"; "y"; "z" ];
  let popped = List.init 3 (fun _ -> Eventq.pop_exn q) in
  Alcotest.(check (list string)) "insertion order at equal time" [ "x"; "y"; "z" ] popped

let test_eventq_pop_empty () =
  let q = Eventq.create () in
  Alcotest.(check bool) "empty" true (Eventq.is_empty q);
  Alcotest.(check int) "size" 0 (Eventq.size q)

let test_eventq_pop_exn () =
  let q = Eventq.create () in
  Eventq.add q ~time:20 "b";
  Eventq.add q ~time:10 "a";
  Alcotest.(check int) "peek_time_exn" 10 (Eventq.peek_time_exn q);
  Alcotest.(check string) "earliest payload" "a" (Eventq.pop_exn q);
  Alcotest.(check string) "then next" "b" (Eventq.pop_exn q);
  (match Eventq.pop_exn q with
   | _ -> Alcotest.fail "pop_exn on empty must raise"
   | exception Eventq.Empty -> ());
  match Eventq.peek_time_exn q with
  | _ -> Alcotest.fail "peek_time_exn on empty must raise"
  | exception Eventq.Empty -> ()

(* A reserved seq sorts where an [add] made at the reservation would
   have: after the events added before it, before those added after it
   at the same time. *)
let test_eventq_reserve () =
  let q = Eventq.create () in
  Eventq.add q ~time:5 "early";
  let seq = Eventq.reserve q in
  Eventq.add q ~time:5 "late";
  Alcotest.(check bool) "earlier head before the key" true (Eventq.head_before q ~time:5 ~seq);
  Alcotest.(check bool) "nothing before time 4" false (Eventq.head_before q ~time:4 ~seq:max_int);
  Eventq.add_reserved q ~time:5 ~seq "reserved";
  let popped = List.init 3 (fun _ -> Eventq.pop_exn q) in
  Alcotest.(check (list string)) "reserved slot" [ "early"; "reserved"; "late" ] popped;
  Alcotest.(check bool) "empty queue has no head" false (Eventq.head_before q ~time:max_int ~seq:max_int);
  match Eventq.add_reserved q ~time:0 ~seq:(seq + 10) "x" with
  | () -> Alcotest.fail "an unreserved seq must be refused"
  | exception Invalid_argument _ -> ()

let prop_eventq_sorted =
  QCheck.Test.make ~name:"eventq pops sorted" ~count:200
    QCheck.(list_of_size Gen.(0 -- 100) small_nat)
    (fun times ->
      let q = Eventq.create () in
      List.iter (fun t -> Eventq.add q ~time:t ()) times;
      let rec drain acc =
        if Eventq.is_empty q then List.rev acc
        else
          let t = Eventq.peek_time_exn q in
          let () = Eventq.pop_exn q in
          drain (t :: acc)
      in
      let out = drain [] in
      out = List.sort compare times)

(* Random interleavings of add and pop — long enough to cross several
   internal array grows — must drain in exact (time, seq) order against
   a sorted-list oracle, with FIFO tie-breaking at equal times.  Each
   op is (true, t) = add at time t (payload: the event's sequence
   number) or (false, _) = pop. *)
let prop_eventq_interleaved_oracle =
  QCheck.Test.make ~name:"eventq interleaved add/pop vs oracle" ~count:100
    QCheck.(list_of_size Gen.(0 -- 600) (pair bool (int_bound 40)))
    (fun ops ->
      let q = Eventq.create () in
      (* Oracle: pending (time, seq) pairs kept sorted lexicographically;
         seq assignment matches Eventq's monotone internal counter, so a
         plain sorted insert preserves FIFO ties. *)
      let pending = ref [] and next_seq = ref 0 in
      let insert ts =
        let rec go = function
          | [] -> [ ts ]
          | hd :: tl -> if ts < hd then ts :: hd :: tl else hd :: go tl
        in
        pending := go !pending
      in
      let ok = ref true in
      List.iter
        (fun (is_add, time) ->
          if is_add then begin
            Eventq.add q ~time !next_seq;
            insert (time, !next_seq);
            incr next_seq
          end
          else
            match !pending with
            | [] ->
              if not (Eventq.is_empty q) then ok := false;
              (match Eventq.pop_exn q with
               | _ -> ok := false
               | exception Eventq.Empty -> ())
            | (t, s) :: rest ->
              if Eventq.peek_time_exn q <> t then ok := false;
              if Eventq.pop_exn q <> s then ok := false;
              pending := rest)
        ops;
      (* Drain what's left: every remaining event in oracle order. *)
      List.iter
        (fun (t, s) ->
          if Eventq.peek_time_exn q <> t then ok := false;
          if Eventq.pop_exn q <> s then ok := false)
        !pending;
      !ok && Eventq.is_empty q)

(* Random programs of every mutator against a sorted-list model of
   (time, seq, payload).  Adds outnumber pops, so a program of a few
   hundred ops crosses the 16 -> 32 -> 64 growth edges, and the pops in
   between hand freed slots back to later adds.  A reservation is taken
   with [reserve] and filled later with [add_reserved] (the oldest
   outstanding one), so a filled key can sort before events added since
   the reservation. *)
type eventq_op = Add of int | Reserve | Fill of int | Pop

let gen_eventq_op =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun t -> Add t) (int_bound 50));
        (1, return Reserve);
        (1, map (fun t -> Fill t) (int_bound 50));
        (3, return Pop);
      ])

let show_eventq_op = function
  | Add t -> Printf.sprintf "Add %d" t
  | Reserve -> "Reserve"
  | Fill t -> Printf.sprintf "Fill %d" t
  | Pop -> "Pop"

let prop_eventq_model =
  QCheck.Test.make ~name:"eventq random programs vs sorted-list model" ~count:200
    QCheck.(
      make ~print:(Print.list show_eventq_op) ~shrink:Shrink.list
        Gen.(list_size (100 -- 500) gen_eventq_op))
    (fun ops ->
      let q = Eventq.create () in
      (* [seq] mirrors the queue's counter: [add] and [reserve] each take
         the next one. *)
      let model = ref [] and reserved = Queue.create () and next = ref 0 and seq = ref 0 in
      let take r =
        let v = !r in
        incr r;
        v
      in
      let insert key = model := List.merge compare [ key ] !model in
      let step op =
        match op with
        | Add time ->
          let id = take next in
          Eventq.add q ~time id;
          insert (time, take seq, id)
        | Reserve ->
          let s = Eventq.reserve q in
          if s <> take seq then QCheck.Test.fail_report "reserve handed out an unexpected seq";
          Queue.push s reserved
        | Fill time ->
          if not (Queue.is_empty reserved) then begin
            let s = Queue.pop reserved and id = take next in
            Eventq.add_reserved q ~time ~seq:s id;
            insert (time, s, id)
          end
        | Pop -> (
          match !model with
          | [] -> (
            match Eventq.pop_exn q with
            | _ -> QCheck.Test.fail_report "popped from an empty queue"
            | exception Eventq.Empty -> ())
          | (time, s, id) :: rest ->
            if not (Eventq.head_before q ~time ~seq:(s + 1)) then
              QCheck.Test.fail_report "head is not before the model's head key";
            if Eventq.head_before q ~time ~seq:s then
              QCheck.Test.fail_report "head is before the model's head key";
            if Eventq.peek_time_exn q <> time then QCheck.Test.fail_report "peek time differs";
            if Eventq.pop_exn q <> id then QCheck.Test.fail_reportf "pop at time %d: wrong payload" time;
            model := rest)
      in
      List.iter
        (fun op ->
          step op;
          if Eventq.size q <> List.length !model then QCheck.Test.fail_report "size differs")
        ops;
      List.iter (fun _ -> step Pop) !model;
      Eventq.is_empty q)

(* The heap arrays hold integers and each payload sits in a slot that
   does not move, so once the arrays have grown, add and pop allocate
   nothing: a steady 5-deep queue and a 100-deep one. *)
let test_eventq_no_alloc () =
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let payload = ref 0 in
  List.iter
    (fun depth ->
      let q = Eventq.create () in
      for i = 1 to 100 do
        Eventq.add q ~time:i payload
      done;
      for _ = depth + 1 to 100 do
        ignore (Eventq.pop_exn q)
      done;
      let cycle () =
        for _ = 1 to 10_000 do
          let time = Eventq.peek_time_exn q in
          let p = Eventq.pop_exn q in
          Eventq.add q ~time:(time + 7) p;
          let seq = Eventq.reserve q in
          Eventq.add_reserved q ~time:(time + 3) ~seq p;
          ignore (Eventq.pop_exn q)
        done
      in
      Alcotest.(check (float 0.))
        (Printf.sprintf "minor words of 10^4 cycles at depth %d" depth)
        (words ignore) (words cycle))
    [ 5; 100 ]

(* A popped payload (in the simulator, a closure holding a continuation
   and its fiber stack) must not stay reachable from the queue's freed
   slot, whether the queue still holds other events or has drained. *)
let test_eventq_pop_releases_payload () =
  let q = Eventq.create () in
  let weak = Weak.create 2 in
  let[@inline never] add_tracked k time =
    let payload = Bytes.make 64 (Char.chr k) in
    Weak.set weak k (Some payload);
    Eventq.add q ~time payload
  in
  let[@inline never] pop () = ignore (Sys.opaque_identity (Eventq.pop_exn q)) in
  add_tracked 0 1;
  add_tracked 1 2;
  pop ();
  Gc.full_major ();
  Alcotest.(check bool) "popped with an event left: collected" false (Weak.check weak 0);
  Alcotest.(check bool) "queued payload still held" true (Weak.check weak 1);
  pop ();
  Gc.full_major ();
  Alcotest.(check bool) "popped to empty: collected" false (Weak.check weak 1);
  Alcotest.(check bool) "drained" true (Eventq.is_empty q)

(* ------------------------------------------------------------------ *)
(* Sim                                                                 *)
(* ------------------------------------------------------------------ *)

let test_sim_delay () =
  let sim = Sim.create () in
  let trace = ref [] in
  let _ =
    Sim.spawn sim ~name:"t" (fun () ->
        Sim.delay sim 100;
        trace := (Sim.now sim, "a") :: !trace;
        Sim.delay sim 50;
        trace := (Sim.now sim, "b") :: !trace)
  in
  Sim.run sim;
  Alcotest.(check (list (pair int string))) "timeline" [ (100, "a"); (150, "b") ] (List.rev !trace)

let test_sim_interleaving () =
  let sim = Sim.create () in
  let trace = ref [] in
  let mk name d =
    ignore
      (Sim.spawn sim ~name (fun () ->
           Sim.delay sim d;
           trace := name :: !trace))
  in
  mk "slow" 200;
  mk "fast" 100;
  Sim.run sim;
  Alcotest.(check (list string)) "completion order" [ "fast"; "slow" ] (List.rev !trace)

let test_sim_run_until () =
  let sim = Sim.create () in
  let hits = ref 0 in
  let _ =
    Sim.spawn sim ~name:"ticker" (fun () ->
        for _ = 1 to 100 do
          Sim.delay sim 10;
          incr hits
        done)
  in
  Sim.run ~until:55 sim;
  Alcotest.(check int) "five ticks by t=55" 5 !hits;
  Alcotest.(check int) "clock at limit" 55 (Sim.now sim);
  Sim.run sim;
  Alcotest.(check int) "all ticks eventually" 100 !hits

let test_sim_at_callback () =
  let sim = Sim.create () in
  let fired = ref (-1) in
  Sim.at sim 42 (fun () -> fired := Sim.now sim);
  Sim.run sim;
  Alcotest.(check int) "fired at 42" 42 !fired

let test_sim_at_past_rejected () =
  let sim = Sim.create () in
  Sim.at sim 10 (fun () ->
      match Sim.at sim 5 (fun () -> ()) with
      | () -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ());
  Sim.run sim

let test_sim_self_outside_thread () =
  let sim = Sim.create () in
  match Sim.self sim with
  | _ -> Alcotest.fail "expected failure"
  | exception Failure _ -> ()

let test_sim_suspend_resume () =
  let sim = Sim.create () in
  let resumer = ref None in
  let woke_at = ref (-1) in
  let _ =
    Sim.spawn sim ~name:"sleeper" (fun () ->
        Sim.suspend sim (fun resume -> resumer := Some resume);
        woke_at := Sim.now sim)
  in
  Sim.at sim 500 (fun () -> (Option.get !resumer) 700);
  Sim.run sim;
  Alcotest.(check int) "woken at requested time" 700 !woke_at

let test_sim_double_resume_fails () =
  let sim = Sim.create () in
  let resumer = ref None in
  let _ = Sim.spawn sim ~name:"s" (fun () -> Sim.suspend sim (fun r -> resumer := Some r)) in
  Sim.at sim 10 (fun () ->
      let r = Option.get !resumer in
      r 20;
      match r 30 with
      | () -> Alcotest.fail "second resume should fail"
      | exception Failure _ -> ());
  Sim.run sim

let test_sim_spawn_on_cpu () =
  let sim = Sim.create () in
  let th = Sim.spawn sim ~cpu:3 ~name:"pinned" (fun () -> ()) in
  Alcotest.(check int) "cpu" 3 (Sim.cpu th);
  Sim.run sim;
  Alcotest.(check bool) "finished" true (Sim.is_finished th)

let test_sim_yield_fairness () =
  (* Two threads that yield in a loop interleave at the same timestamp. *)
  let sim = Sim.create () in
  let trace = Buffer.create 16 in
  let mk name =
    ignore
      (Sim.spawn sim ~name (fun () ->
           for _ = 1 to 3 do
             Buffer.add_string trace name;
             Sim.yield sim
           done))
  in
  mk "a";
  mk "b";
  Sim.run sim;
  Alcotest.(check string) "interleaved" "ababab" (Buffer.contents trace)

let test_sim_deterministic_given_seed () =
  let run seed =
    let sim = Sim.create ~seed () in
    let order = ref [] in
    for i = 1 to 5 do
      ignore
        (Sim.spawn sim ~name:(string_of_int i) (fun () ->
             Sim.delay sim (10 * Prng.int (Sim.prng sim) 100);
             order := i :: !order))
    done;
    Sim.run sim;
    !order
  in
  Alcotest.(check (list int)) "same seed, same order" (run 9) (run 9);
  (* Not a hard guarantee for every pair of seeds, but these differ. *)
  Alcotest.(check bool) "different seeds differ" true (run 1 <> run 5)

(* The inline [delay] path must be invisible: the same program traced
   and untraced fires every callback and thread step in the same order at
   the same times, and retires the same event count.  The program mixes
   contended locks (suspend/resume), timestamp ties ([at] callbacks and
   threads landing on the same instant), zero-length delays, yields and
   PRNG-driven jitter.  Shared with the trace test below. *)
let traced_program ?(drive = fun sim -> Sim.run sim) sim =
  let log = ref [] in
  let note tag = log := (tag, Sim.now sim) :: !log in
  let lock = Lock.create sim arch Lock.Fifo ~name:"l" in
  for k = 1 to 3 do
    Sim.at sim (k * 500) (fun () -> note (Printf.sprintf "cb%d" k));
    Sim.at sim (k * 500) (fun () -> note (Printf.sprintf "cb%d'" k))
  done;
  for i = 1 to 4 do
    ignore
      (Sim.spawn sim ~name:(Printf.sprintf "t%d" i) (fun () ->
           for r = 1 to 10 do
             Sim.delay sim (100 * Prng.int (Sim.prng sim) 5);
             Lock.acquire lock;
             note (Printf.sprintf "t%d.%d" i r);
             Sim.delay sim 100;
             Lock.release lock;
             if r mod 3 = 0 then Sim.yield sim
           done))
  done;
  drive sim;
  List.rev !log

let test_sim_traced_equivalence () =
  let run traced =
    let sim = Sim.create ~seed:17 () in
    if traced then Trace.enable (Sim.tracer sim);
    let log = traced_program sim in
    (log, Sim.events_processed sim)
  in
  let log_t, n_t = run true and log_u, n_u = run false in
  Alcotest.(check (list (pair string int))) "same dispatch order and times" log_t log_u;
  Alcotest.(check int) "same events processed" n_t n_u

(* The reference that forces every positive delay to suspend: [run]
   stepped one nanosecond at a time leaves no wake-up inside the run's
   [until], so no thread waits in place.  [horizon] is the last instant
   stepped; a final unbounded [run] drains whatever is left. *)
let run_stepped ~horizon sim =
  for ns = 0 to horizon do
    Sim.run ~until:ns sim
  done;
  Sim.run sim

(* Neither a wait in place nor a suspension writes a trace record, so
   the traced program writes the same records both ways, and retires
   the same events. *)
let test_sim_inline_delay_trace () =
  let run drive =
    let sim = Sim.create ~seed:17 () in
    Trace.enable (Sim.tracer sim);
    let log = traced_program ~drive sim in
    (log, Trace.events (Sim.tracer sim), Sim.events_processed sim, Sim.now sim)
  in
  let log_i, trace_i, n_i, horizon = run (fun sim -> Sim.run sim) in
  let log_s, trace_s, n_s, _ = run (run_stepped ~horizon) in
  Alcotest.(check bool) "the program waits for a lock" true
    (List.exists
       (fun (r : Trace.record) ->
         match r.Trace.ev with Trace.Lock_grant { wait_ns; _ } -> wait_ns > 0 | _ -> false)
       trace_i);
  Alcotest.(check (list (pair string int))) "same dispatch order and times" log_i log_s;
  Alcotest.(check bool) "identical trace records" true (trace_i = trace_s);
  Alcotest.(check int) "same events processed" n_i n_s

(* Run [program] once with [drive] (a plain [run] by default) and once
   stepped to 1 us (every positive delay suspends), and require the same
   (tag, time) log and event count; returns the first run's log.
   [program] schedules its work and returns the log it fills. *)
let same_as_suspending ?(drive = fun sim -> Sim.run sim) program =
  let run drive =
    let sim = Sim.create () in
    let log = program sim in
    drive sim;
    (List.rev !log, Sim.events_processed sim)
  in
  let log, n = run drive in
  let log_s, n_s = run (run_stepped ~horizon:1_000) in
  Alcotest.(check (list (pair string int))) "same order as suspending" log_s log;
  Alcotest.(check int) "same events as suspending" n_s n;
  log

let noter sim log tag () = log := (tag, Sim.now sim) :: !log

(* A callback at exactly the wake-up time runs before the waiter when it
   was scheduled before the delay began, and after it when an event
   inside the wait scheduled it. *)
let test_sim_wait_ties () =
  let log =
    same_as_suspending (fun sim ->
        let log = ref [] in
        let note = noter sim log in
        Sim.at sim 100 (note "before");
        ignore
          (Sim.spawn sim ~name:"w" (fun () ->
               Sim.delay sim 100;
               note "w" ()));
        Sim.at sim 50 (fun () ->
            note "mid" ();
            Sim.at sim 100 (note "after"));
        log)
  in
  Alcotest.(check (list (pair string int)))
    "order at the wake-up"
    [ ("mid", 50); ("before", 100); ("w", 100); ("after", 100) ]
    log

(* A thread resumed inside another's wait delays to before, at and
   after the outer wake-up (100).  Only the first may wait in place; the
   other two suspend, and the outer thread, whose key is older, wakes
   first at 100. *)
let test_sim_wait_nested () =
  let case d =
    same_as_suspending (fun sim ->
        let log = ref [] in
        let note = noter sim log in
        ignore
          (Sim.spawn sim ~name:"outer" (fun () ->
               Sim.delay sim 100;
               note "outer" ()));
        ignore
          (Sim.spawn sim ~name:"inner" (fun () ->
               Sim.delay sim 10;
               note "inner.start" ();
               Sim.delay sim d;
               note "inner" ()));
        Sim.at sim 5 (note "cb5");
        Sim.at sim 30 (note "cb30");
        Sim.at sim 100 (note "cb100");
        log)
  in
  Alcotest.(check (list (pair string int)))
    "inner wakes before the outer"
    [ ("cb5", 5); ("inner.start", 10); ("cb30", 30); ("inner", 60); ("cb100", 100);
      ("outer", 100) ]
    (case 50);
  Alcotest.(check (list (pair string int)))
    "inner wakes with the outer"
    [ ("cb5", 5); ("inner.start", 10); ("cb30", 30); ("cb100", 100); ("outer", 100);
      ("inner", 100) ]
    (case 90);
  Alcotest.(check (list (pair string int)))
    "inner wakes after the outer"
    [ ("cb5", 5); ("inner.start", 10); ("cb30", 30); ("cb100", 100); ("outer", 100);
      ("inner", 130) ]
    (case 120)

(* [Sim.stop] from an event run inside a wait ends [run] there; the next
   [run] resumes the waiter at its reserved place in the order. *)
let test_sim_wait_stop () =
  let program sim =
    let log = ref [] in
    let note = noter sim log in
    Sim.at sim 100 (note "before");
    ignore
      (Sim.spawn sim ~name:"w" (fun () ->
           Sim.delay sim 100;
           note "w" ()));
    Sim.at sim 50 (fun () ->
        note "stop" ();
        Sim.at sim 100 (note "after");
        Sim.stop sim);
    log
  in
  let sim = Sim.create () in
  let log = program sim in
  Sim.run sim;
  Alcotest.(check (list (pair string int))) "stopped inside the wait" [ ("stop", 50) ] (List.rev !log);
  Alcotest.(check int) "clock at the stop" 50 (Sim.now sim);
  Alcotest.(check (list string)) "the waiter is not blocked" []
    (List.map Sim.thread_name (Sim.blocked_threads sim));
  Sim.run sim;
  Alcotest.(check (list (pair string int)))
    "resumed in its reserved order"
    [ ("stop", 50); ("before", 100); ("w", 100); ("after", 100) ]
    (List.rev !log);
  ignore (same_as_suspending ~drive:(fun sim -> Sim.run sim; Sim.run sim) program)

(* A wake-up past [run ~until] suspends: the run stops at its limit with
   the thread still waiting, and the next run wakes it. *)
let test_sim_wait_until () =
  let sim = Sim.create () in
  let log = ref [] in
  let note = noter sim log in
  ignore
    (Sim.spawn sim ~name:"w" (fun () ->
         Sim.delay sim 100;
         note "w" ()));
  Sim.at sim 50 (note "cb50");
  Sim.at sim 80 (note "cb80");
  Sim.run ~until:60 sim;
  Alcotest.(check (list (pair string int))) "up to the limit" [ ("cb50", 50) ] (List.rev !log);
  Alcotest.(check int) "clock at the limit" 60 (Sim.now sim);
  Sim.run sim;
  Alcotest.(check (list (pair string int)))
    "the rest after"
    [ ("cb50", 50); ("cb80", 80); ("w", 100) ]
    (List.rev !log)

(* An exception raised by an event run inside a wait escapes [run] with
   the waiter still parked: its frames are not unwound, so the lock it
   holds across the wait stays held until the next [run] resumes it. *)
let test_sim_wait_exception () =
  let sim = Sim.create () in
  let lock = Lock.create sim arch Lock.Fifo ~name:"l" in
  let woke = ref [] and probe_got = ref (-1) in
  ignore
    (Sim.spawn sim ~name:"holder" (fun () ->
         Lock.with_lock lock (fun () ->
             let start = Sim.now sim in
             Sim.delay sim 1_000_000;
             woke := (Sim.now sim - start) :: !woke)));
  Sim.at sim 10_000 (fun () -> failwith "boom");
  (match Sim.run sim with
   | () -> Alcotest.fail "the event's exception must escape run"
   | exception Failure msg -> Alcotest.(check string) "the event's exception" "boom" msg);
  Alcotest.(check int) "clock at the raise" 10_000 (Sim.now sim);
  ignore
    (Sim.spawn sim ~name:"probe" (fun () ->
         Lock.with_lock lock (fun () -> probe_got := Sim.now sim)));
  Sim.run ~until:100_000 sim;
  Alcotest.(check int) "the lock is still held" (-1) !probe_got;
  Alcotest.(check (list string)) "the probe waits for it" [ "probe" ]
    (List.map Sim.thread_name (Sim.blocked_threads sim));
  Sim.run sim;
  Alcotest.(check (list int)) "the holder resumes once, after its delay" [ 1_000_000 ] !woke;
  Alcotest.(check bool) "then the probe gets the lock" true (!probe_got >= 1_000_000)

(* A spawned thread costs its record, its fiber and its start event:
   the world's one effect handler serves every thread, and no second
   thread table is kept.  Words counted are every word allocated, the
   minor heap's and those allocated straight into the major heap (the
   tables' doublings).  The first batch sizes the tables. *)
let test_sim_spawn_words () =
  let sim = Sim.create () in
  let batch () =
    for _ = 1 to 1_000 do
      ignore (Sim.spawn sim ~name:"idle" ignore)
    done;
    Sim.run sim
  in
  let allocated () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  batch ();
  let before = allocated () in
  batch ();
  let per_thread = (allocated () -. before) /. 1_000. in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per idle thread (at most 20)" per_thread)
    true (per_thread <= 20.);
  Alcotest.(check int) "every thread finished" 0
    (List.length (Sim.blocked_threads sim))

(* ------------------------------------------------------------------ *)
(* Lock                                                                *)
(* ------------------------------------------------------------------ *)

let test_lock_mutual_exclusion () =
  let sim = Sim.create () in
  let lock = Lock.create sim arch Lock.Unfair ~name:"l" in
  let inside = ref 0 and max_inside = ref 0 and iterations = ref 0 in
  for i = 1 to 4 do
    ignore
      (Sim.spawn sim ~name:(Printf.sprintf "t%d" i) (fun () ->
           for _ = 1 to 25 do
             Lock.acquire lock;
             incr inside;
             if !inside > !max_inside then max_inside := !inside;
             Sim.delay sim 100;
             decr inside;
             incr iterations;
             Lock.release lock
           done))
  done;
  Sim.run sim;
  Alcotest.(check int) "never two holders" 1 !max_inside;
  Alcotest.(check int) "all iterations ran" 100 !iterations;
  Alcotest.(check int) "acquisitions counted" 100 (Lock.acquisitions lock)

let test_lock_fifo_grant_order () =
  let sim = Sim.create () in
  let lock = Lock.create sim arch Lock.Fifo ~name:"mcs" in
  let grants = ref [] in
  (* A holder keeps the lock while others line up in a known order. *)
  let _ =
    Sim.spawn sim ~name:"holder" (fun () ->
        Lock.acquire lock;
        Sim.delay sim 100_000;
        Lock.release lock)
  in
  for i = 1 to 5 do
    ignore
      (Sim.spawn sim ~name:(Printf.sprintf "w%d" i) (fun () ->
           Sim.delay sim (1000 * i);
           Lock.acquire lock;
           grants := i :: !grants;
           Lock.release lock))
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO grants in arrival order" [ 1; 2; 3; 4; 5 ] (List.rev !grants)

let test_lock_unfair_reorders () =
  (* With many rounds, the unfair lock must grant out of arrival order at
     least once; the FIFO lock never does. *)
  let misorders disc =
    let sim = Sim.create ~seed:123 () in
    let lock = Lock.create sim arch disc ~name:"l" in
    let expected = ref 0 and misordered = ref 0 in
    let _ =
      Sim.spawn sim ~name:"holder" (fun () ->
          for _ = 1 to 50 do
            Lock.acquire lock;
            Sim.delay sim 50_000;
            Lock.release lock;
            Sim.delay sim 10_000
          done)
    in
    for i = 1 to 4 do
      ignore
        (Sim.spawn sim ~name:(Printf.sprintf "w%d" i) (fun () ->
             Sim.delay sim (100 * i);
             for _ = 1 to 40 do
               Lock.acquire lock;
               Sim.delay sim 10;
               Lock.release lock;
               Sim.delay sim 30_000
             done))
    done;
    (* Track grant order vs a per-round arrival sequence implicitly via
       monotonically increasing "ticket" assigned at acquire start. *)
    ignore expected;
    ignore misordered;
    Sim.run sim;
    Lock.contended_acquisitions lock
  in
  (* Both disciplines see contention; this test just checks the machinery
     runs to completion and contention is observed. Order-sensitivity is
     covered by the dedicated ordering test below. *)
  Alcotest.(check bool) "unfair contended" true (misorders Lock.Unfair > 0);
  Alcotest.(check bool) "fifo contended" true (misorders Lock.Fifo > 0)

let grant_sequence disc ~seed =
  (* Threads arrive at known distinct times while the lock is held; record
     the order they are granted the lock. *)
  let sim = Sim.create ~seed () in
  let lock = Lock.create sim arch disc ~name:"l" in
  let grants = ref [] in
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
           grants := i :: !grants;
           Sim.delay sim 10;
           Lock.release lock))
  done;
  Sim.run sim;
  List.rev !grants

let test_lock_unfair_eventually_misorders () =
  let misordered =
    List.exists
      (fun seed -> grant_sequence Lock.Unfair ~seed <> [ 1; 2; 3; 4; 5; 6 ])
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check bool) "unfair lock reorders waiters for some seed" true misordered;
  List.iter
    (fun seed ->
      Alcotest.(check (list int))
        "fifo never reorders" [ 1; 2; 3; 4; 5; 6 ]
        (grant_sequence Lock.Fifo ~seed))
    [ 1; 2; 3; 4; 5 ]

let test_lock_unfair_grants_pinned () =
  (* Regression pin for the unfair discipline's grant order per seed: it is
     a pure function of the Prng stream, so any change to random-number
     generation shows up here before it silently shifts figure results. *)
  List.iter
    (fun (seed, expected) ->
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d grant order" seed)
        expected
        (grant_sequence Lock.Unfair ~seed))
    [ (1, [ 5; 6; 4; 3; 1; 2 ]); (2, [ 6; 2; 5; 1; 3; 4 ]); (3, [ 6; 1; 2; 5; 4; 3 ]) ]

(* Reference model for the wait queue: the list-based queue [Lock] used
   before the array queue, replayed against a trace of the real lock.
   Arrivals append; a grant takes the head (Fifo), the newest arrival
   (Barging) or [List.nth] of one [Prng.int] draw, made only when two or
   more wait (Unfair). *)
let reference_pick disc prng = function
  | [] -> (None, [])
  | [ w ] -> (Some w, [])
  | ws -> (
    match disc with
    | Lock.Fifo -> (Some (List.hd ws), List.tl ws)
    | Lock.Barging ->
      let rev = List.rev ws in
      (Some (List.hd rev), List.rev (List.tl rev))
    | Lock.Unfair ->
      let i = Prng.int prng (List.length ws) in
      (Some (List.nth ws i), List.filteri (fun j _ -> j <> i) ws))

(* The real lock's lock records, and what the reference queue says they
   must be: each request and grant carries the queue length at that
   moment, each release hands off to the model's pick. *)
let lock_vs_reference disc ~seed =
  let sim = Sim.create ~seed () in
  Trace.enable (Sim.tracer sim);
  let lock = Lock.create sim arch disc ~name:"l" in
  (* The schedule comes from its own generator: the lock is the only
     consumer of [Sim.prng], so the model can replay its draws.  Every
     thread arrives within 40 us, queueing ~70 deep; the later rounds
     spread over 0.6 ms, so the queue drains to one and refills. *)
  let sched = Prng.create (seed + 1000) in
  for i = 0 to 71 do
    let start = Prng.int sched 40_000 in
    let holds = Array.init 3 (fun _ -> 500 + Prng.int sched 3_000) in
    let gaps = Array.init 3 (fun _ -> Prng.int sched 600_000) in
    ignore
      (Sim.spawn sim ~cpu:(i mod 4) ~name:(Printf.sprintf "w%d" i) (fun () ->
           Sim.delay sim start;
           for r = 0 to 2 do
             Lock.acquire lock;
             Sim.delay sim holds.(r);
             Lock.release lock;
             Sim.delay sim gaps.(r)
           done))
  done;
  Sim.run sim;
  let prng = Prng.create seed in
  let owner = ref None and queue = ref [] in
  let real = ref [] and model = ref [] in
  Trace.iter (Sim.tracer sim) (fun r ->
      match r.Trace.ev with
      | Trace.Lock_request { waiters; _ } ->
        real := `Request (r.Trace.tid, waiters) :: !real;
        model := `Request (r.Trace.tid, List.length !queue) :: !model;
        if !owner = None then owner := Some r.Trace.tid
        else queue := !queue @ [ r.Trace.tid ]
      | Trace.Lock_grant { waiters; _ } ->
        real := `Grant (r.Trace.tid, waiters) :: !real;
        model := `Grant (r.Trace.tid, List.length !queue) :: !model
      | Trace.Lock_release _ ->
        let next, rest = reference_pick disc prng !queue in
        owner := next;
        queue := rest;
        Option.iter (fun tid -> model := `Handoff tid :: !model) next
      | Trace.Lock_handoff { to_tid; _ } -> real := `Handoff to_tid :: !real
      | _ -> ());
  (List.rev !real, List.rev !model, Lock.contended_acquisitions lock)

let test_lock_queue_matches_reference () =
  List.iter
    (fun disc ->
      List.iter
        (fun seed ->
          let real, model, contended = lock_vs_reference disc ~seed in
          let name = Printf.sprintf "%s seed %d" (Lock.discipline_name disc) seed in
          let depths =
            List.filter_map (function `Request (_, n) -> Some n | _ -> None) real
          in
          Alcotest.(check bool) (name ^ ": queue grew past 32") true
            (List.exists (fun n -> n >= 32) depths);
          Alcotest.(check bool) (name ^ ": arrivals behind a lone waiter") true
            (List.mem 1 depths);
          Alcotest.(check bool) (name ^ ": most grants contended") true (contended > 120);
          Alcotest.(check int) (name ^ ": record count") (List.length model)
            (List.length real);
          List.iteri
            (fun k (r, m) ->
              if r <> m then
                Alcotest.failf "%s: lock record %d differs from the reference" name k)
            (List.combine real model))
        [ 1; 2; 3 ])
    [ Lock.Unfair; Lock.Fifo; Lock.Barging ]

let test_lock_release_by_non_owner_fails () =
  let sim = Sim.create () in
  let lock = Lock.create sim arch Lock.Unfair ~name:"demux" in
  let contains msg sub =
    let n = String.length msg and m = String.length sub in
    let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
    go 0
  in
  (* Released while not held at all: the message names the lock and says so. *)
  let _ =
    Sim.spawn sim ~name:"bad" (fun () ->
        match Lock.release lock with
        | () -> Alcotest.fail "release without acquire should fail"
        | exception Invalid_argument msg ->
          Alcotest.(check bool) "names the lock" true (contains msg "\"demux\"");
          Alcotest.(check bool) "says not held" true (contains msg "not held"))
  in
  Sim.run sim;
  (* Released by a thread other than the owner: both tids are named. *)
  let sim = Sim.create () in
  let lock = Lock.create sim arch Lock.Unfair ~name:"demux" in
  let owner = Sim.spawn sim ~name:"owner" (fun () ->
      Lock.acquire lock;
      Sim.delay sim 1_000_000;
      Lock.release lock)
  in
  let intruder = ref None in
  let it = Sim.spawn sim ~name:"intruder" (fun () ->
      Sim.delay sim 1_000;
      match Lock.release lock with
      | () -> Alcotest.fail "non-owner release should fail"
      | exception Invalid_argument msg -> intruder := Some msg)
  in
  Sim.run sim;
  match !intruder with
  | None -> Alcotest.fail "intruder never ran"
  | Some msg ->
    Alcotest.(check bool) "names caller tid" true
      (contains msg (Printf.sprintf "tid %d (intruder)" (Sim.tid it)));
    Alcotest.(check bool) "names owner tid" true
      (contains msg (Printf.sprintf "tid %d (owner)" (Sim.tid owner)))

let test_lock_with_lock_releases_on_exception () =
  let sim = Sim.create () in
  let lock = Lock.create sim arch Lock.Unfair ~name:"l" in
  let second_ran = ref false in
  let _ =
    Sim.spawn sim ~name:"thrower" (fun () ->
        match Lock.with_lock lock (fun () -> raise Exit) with
        | () -> ()
        | exception Exit -> ())
  in
  let _ =
    Sim.spawn sim ~name:"after" (fun () ->
        Sim.delay sim 10_000;
        Lock.with_lock lock (fun () -> second_ran := true))
  in
  Sim.run sim;
  Alcotest.(check bool) "lock released after exception" true !second_ran

(* The body's own exception comes back, not [Fun.Finally_raised], and the
   lock is free for the next thread. *)
let test_with_lock_reraises_body_exception () =
  let sim = Sim.create () in
  let lock = Lock.create sim arch Lock.Fifo ~name:"l" in
  let caught = ref [] in
  let note = function
    | Failure m -> caught := m :: !caught
    | e -> caught := Printexc.to_string e :: !caught
  in
  let _ =
    Sim.spawn sim ~name:"thrower" (fun () ->
        try Lock.with_lock lock (fun () -> failwith "plain") with e -> note e)
  in
  let after = ref false in
  let _ =
    Sim.spawn sim ~name:"after" (fun () ->
        Sim.delay sim 100_000;
        Lock.with_lock lock (fun () -> after := true))
  in
  Sim.run sim;
  Alcotest.(check (list string)) "body exception" [ "plain" ] !caught;
  Alcotest.(check bool) "lock free again" true !after;
  Alcotest.(check int) "lock taken twice" 2 (Lock.acquisitions lock)

let test_lock_wait_accounting () =
  let sim = Sim.create () in
  let lock = Lock.create sim arch Lock.Unfair ~name:"l" in
  let _ =
    Sim.spawn sim ~name:"holder" (fun () ->
        Lock.acquire lock;
        Sim.delay sim 100_000;
        Lock.release lock)
  in
  let _ =
    Sim.spawn sim ~name:"waiter" (fun () ->
        Sim.delay sim 1_000;
        Lock.acquire lock;
        Lock.release lock)
  in
  Sim.run sim;
  Alcotest.(check bool) "lock wait recorded" true (Lock.total_wait_ns lock > 90_000);
  Alcotest.(check bool) "hold recorded" true (Lock.total_hold_ns lock >= 100_000)

(* Set-up code and event callbacks run outside every simulated thread:
   there nothing locks, nothing is charged and nothing is traced, neither
   by the primitives themselves nor by the stack set-up built on them. *)
let test_lock_outside_thread () =
  let p = Platform.create arch in
  let sim = p.Platform.sim in
  Trace.enable (Sim.tracer sim);
  let untouched what =
    Alcotest.(check int) (what ^ ": no time") 0 (Sim.now sim);
    Alcotest.(check int) (what ^ ": no trace") 0 (Trace.count (Sim.tracer sim))
  in
  List.iter
    (fun disc ->
      let lock = Lock.create sim arch disc ~name:"l" in
      let ran = Lock.with_lock lock (fun () -> Lock.owner lock) in
      Alcotest.(check int) "body runs unowned" (-1) ran;
      Lock.acquire lock;
      Alcotest.(check int) "acquire takes no owner" (-1) (Lock.owner lock);
      Lock.release lock)
    [ Lock.Unfair; Lock.Fifo; Lock.Barging ];
  Membus.consume p.Platform.bus ~bytes:4096;
  Membus.consume ~rate_mb_s:100.0 p.Platform.bus ~bytes:4096;
  Platform.charge p 1_000;
  List.iter
    (fun mode ->
      let c = Atomic_ctr.create sim arch mode ~name:"c" ~init:0 in
      Alcotest.(check int) "counter counts" 1 (Atomic_ctr.incr c))
    [ Atomic_ctr.Ll_sc; Atomic_ctr.Locked ];
  untouched "primitives";
  let open Pnp_driver in
  let a = Stack.create p ~local_addr:0x0a000001 () in
  let b = Stack.create p ~local_addr:0x0a000002 () in
  Pnp_proto.Tcp.listen a.Stack.tcp ~local_port:4000 ~accept:ignore;
  ignore
    (Pnp_proto.Udp.open_session b.Stack.udp ~local_port:9 ~remote_addr:0x0a000001
       ~remote_port:9 ~recv:Pnp_xkern.Msg.destroy);
  let module M = Pnp_xkern.Xmap.Make (struct
    type t = int

    let hash = Hashtbl.hash
    let equal = Int.equal
  end) in
  let m = M.create p ~name:"m" () in
  for k = 1 to 1_000 do
    M.insert m k k
  done;
  Alcotest.(check (option int)) "map filled" (Some 500) (M.lookup m 500);
  untouched "stack set-up"

let test_lock_coherency_penalty_cross_cpu () =
  (* Same-CPU reacquisition is cheaper than alternating CPUs on a
     coherency-synchronised machine. *)
  let elapsed ~cpus =
    let sim = Sim.create () in
    let lock = Lock.create sim arch Lock.Unfair ~name:"l" in
    let finish = ref 0 in
    let rounds = 100 in
    for i = 0 to 1 do
      ignore
        (Sim.spawn sim ~cpu:(if cpus = 1 then 0 else i) ~name:(Printf.sprintf "t%d" i)
           (fun () ->
             for _ = 1 to rounds do
               Lock.acquire lock;
               Sim.delay sim 10;
               Lock.release lock;
               Sim.delay sim 5_000
             done;
             finish := max !finish (Sim.now sim)))
    done;
    Sim.run sim;
    !finish
  in
  Alcotest.(check bool)
    "alternating CPUs slower than one CPU pair" true
    (elapsed ~cpus:2 > elapsed ~cpus:1)

let test_lock_power_series_no_penalty () =
  let elapsed a =
    let sim = Sim.create () in
    let lock = Lock.create sim a Lock.Unfair ~name:"l" in
    let t_end = ref 0 in
    for i = 0 to 1 do
      ignore
        (Sim.spawn sim ~cpu:i ~name:(Printf.sprintf "t%d" i) (fun () ->
             for _ = 1 to 50 do
               Lock.acquire lock;
               Lock.release lock;
               Sim.delay sim 10_000
             done;
             t_end := max !t_end (Sim.now sim)))
    done;
    Sim.run sim;
    !t_end
  in
  let no_pen = { arch with Arch.sync = Arch.Sync_bus } in
  Alcotest.(check bool) "sync-bus arch avoids migration cost" true (elapsed no_pen < elapsed arch)

let test_lock_barging_grant_order () =
  (* With every waiter queued by release time, the barging spinlock is
     LIFO: the newest arrival wins each test-and-set race.  No randomness
     is involved, so this holds for every seed. *)
  List.iter
    (fun seed ->
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d: newest waiter first" seed)
        [ 6; 5; 4; 3; 2; 1 ]
        (grant_sequence Lock.Barging ~seed))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Gate                                                                *)
(* ------------------------------------------------------------------ *)

let test_gate_orders_delivery () =
  let sim = Sim.create () in
  let gate = Gate.create sim arch ~name:"app" in
  let delivered = ref [] in
  (* Tickets are taken in order 0,1,2 but threads arrive at the gate in
     reverse; delivery must still be in ticket order. *)
  let tickets = Array.make 3 0 in
  let _ =
    Sim.spawn sim ~name:"issuer" (fun () ->
        for i = 0 to 2 do
          tickets.(i) <- Gate.take gate
        done)
  in
  for i = 0 to 2 do
    ignore
      (Sim.spawn sim ~name:(Printf.sprintf "d%d" i) (fun () ->
           (* Later tickets arrive earlier. *)
           Sim.delay sim (10_000 * (3 - i));
           Gate.await gate tickets.(i);
           delivered := i :: !delivered;
           Gate.advance gate))
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "ticket order" [ 0; 1; 2 ] (List.rev !delivered)

let test_gate_no_wait_when_in_order () =
  let sim = Sim.create () in
  let gate = Gate.create sim arch ~name:"app" in
  let _ =
    Sim.spawn sim ~name:"t" (fun () ->
        let k = Gate.take gate in
        Gate.await gate k;
        Gate.advance gate;
        let k2 = Gate.take gate in
        Gate.await gate k2;
        Gate.advance gate)
  in
  Sim.run sim;
  Alcotest.(check int) "served two" 2 (Gate.serving gate)

(* Twelve tickets wait at once in each of two waves, arriving out of
   order.  The first wave grows the waiter ring while it is occupied
   (ticket 11 arrives second, past the first ring of 8); the second
   wave's tickets 16..23 wrap onto the slots of tickets 0..7. *)
let test_gate_ring_grows_and_wraps () =
  let sim = Sim.create () in
  let gate = Gate.create sim arch ~name:"app" in
  let delivered = ref [] and max_waiting = ref 0 and waiting = ref 0 in
  let _ =
    Sim.spawn sim ~name:"issuer" (fun () ->
        for i = 0 to 23 do
          Alcotest.(check int) "ticket" i (Gate.take gate)
        done)
  in
  (* Arrival rank of each wave's tickets 1..11; the wave's first ticket
     arrives last, so the other eleven all wait for it. *)
  let order = [ 5; 11; 2; 9; 1; 7; 3; 10; 4; 8; 6 ] in
  let arrival k =
    let rec pos i = function [] -> 20 | o :: rest -> if o = k mod 12 then i else pos (i + 1) rest in
    Units.us (float_of_int ((1000 * ((k / 12) + 1)) + (10 * pos 0 order)))
  in
  for k = 0 to 23 do
    ignore
      (Sim.spawn sim ~name:(Printf.sprintf "t%d" k) (fun () ->
           Sim.delay sim (arrival k);
           incr waiting;
           max_waiting := max !max_waiting !waiting;
           Gate.await gate k;
           decr waiting;
           delivered := k :: !delivered;
           Gate.advance gate))
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "ticket order" (List.init 24 Fun.id) (List.rev !delivered);
  Alcotest.(check int) "twelve at the gate at once" 12 !max_waiting;
  Alcotest.(check int) "all served" 24 (Gate.serving gate)

let test_gate_misuse_messages () =
  let failure_of f =
    let sim = Sim.create () in
    let gate = Gate.create sim arch ~name:"app" in
    let _ = Sim.spawn sim ~name:"t" (fun () -> f sim gate) in
    match Sim.run sim with
    | () -> Alcotest.fail "expected a Failure"
    | exception Failure msg -> msg
  in
  Alcotest.(check string) "already served" "Gate.await \"app\": ticket 0 already served"
    (failure_of (fun _ gate ->
         Gate.await gate (Gate.take gate);
         Gate.advance gate;
         Gate.await gate 0));
  Alcotest.(check string) "duplicate ticket" "Gate.await \"app\": duplicate ticket 3"
    (failure_of (fun sim gate ->
         ignore (Sim.spawn sim ~name:"first" (fun () -> Gate.await gate 3));
         Sim.delay sim 1_000;
         Gate.await gate 3))

(* ------------------------------------------------------------------ *)
(* Atomic_ctr                                                          *)
(* ------------------------------------------------------------------ *)

let test_atomic_ctr_counts () =
  List.iter
    (fun mode ->
      let sim = Sim.create () in
      let c = Atomic_ctr.create sim arch mode ~name:"ref" ~init:5 in
      let _ =
        Sim.spawn sim ~name:"t" (fun () ->
            ignore (Atomic_ctr.incr c);
            ignore (Atomic_ctr.incr c);
            Alcotest.(check int) "after incr" 7 (Atomic_ctr.get c);
            ignore (Atomic_ctr.decr c);
            Alcotest.(check int) "after decr" 6 (Atomic_ctr.get c))
      in
      Sim.run sim)
    [ Atomic_ctr.Ll_sc; Atomic_ctr.Locked ]

let test_atomic_faster_than_locked () =
  let elapsed mode =
    let sim = Sim.create () in
    let c = Atomic_ctr.create sim arch mode ~name:"ref" ~init:0 in
    let t_end = ref 0 in
    let _ =
      Sim.spawn sim ~name:"t" (fun () ->
          for _ = 1 to 100 do
            ignore (Atomic_ctr.incr c)
          done;
          t_end := Sim.now sim)
    in
    Sim.run sim;
    !t_end
  in
  Alcotest.(check bool) "LL/SC cheaper" true
    (elapsed Atomic_ctr.Ll_sc < elapsed Atomic_ctr.Locked)

let test_atomic_parallel_consistent () =
  let sim = Sim.create () in
  let c = Atomic_ctr.create sim arch Atomic_ctr.Locked ~name:"ref" ~init:0 in
  for i = 0 to 3 do
    ignore
      (Sim.spawn sim ~cpu:i ~name:(Printf.sprintf "t%d" i) (fun () ->
           for _ = 1 to 50 do
             ignore (Atomic_ctr.incr c)
           done))
  done;
  Sim.run sim;
  Alcotest.(check int) "no lost updates" 200 (Atomic_ctr.get c)

(* ------------------------------------------------------------------ *)
(* Membus                                                              *)
(* ------------------------------------------------------------------ *)

let test_membus_single_user_rate () =
  let sim = Sim.create () in
  let bus = Membus.create sim arch in
  (* 32 MB/s -> 4 KB takes 128 us. *)
  Alcotest.(check int) "4KB at 32MB/s" 128_000 (Membus.duration_ns bus ~bytes:4096 ~users:1)

let test_membus_shared_capacity () =
  let sim = Sim.create () in
  let bus = Membus.create sim arch in
  (* With 60 notional users the 1.2 GB/s bus gives each 20 MB/s < 32. *)
  let solo = Membus.duration_ns bus ~bytes:4096 ~users:1 in
  let crowded = Membus.duration_ns bus ~bytes:4096 ~users:60 in
  Alcotest.(check bool) "crowded slower" true (crowded > solo);
  (* At 8 users the Challenge bus is still not the bottleneck (paper: could
     support ~38 checksumming CPUs). *)
  Alcotest.(check int) "8 users same as 1" solo (Membus.duration_ns bus ~bytes:4096 ~users:8)

let test_membus_consume_blocks () =
  let sim = Sim.create () in
  let bus = Membus.create sim arch in
  let t_end = ref 0 in
  let _ =
    Sim.spawn sim ~name:"t" (fun () ->
        Membus.consume bus ~bytes:4096;
        t_end := Sim.now sim)
  in
  Sim.run sim;
  Alcotest.(check int) "blocked for transfer" 128_000 !t_end;
  Alcotest.(check int) "bytes accounted" 4096 (Membus.bytes_transferred bus);
  Alcotest.(check int) "no users left" 0 (Membus.concurrent_users bus)

(* ------------------------------------------------------------------ *)
(* Randomised engine properties                                        *)
(* ------------------------------------------------------------------ *)

(* Random programs of delays and critical sections over a few locks must
   preserve mutual exclusion, always terminate (no lost wakeups), and
   keep wait/hold accounting consistent. *)
let prop_random_lock_programs =
  QCheck.Test.make ~name:"random lock programs: exclusion, progress, accounting" ~count:60
    QCheck.(
      pair (int_bound 10_000)
        (list_of_size (Gen.return 4)
           (list_of_size Gen.(1 -- 12) (pair (int_bound 2) (int_bound 400)))))
    (fun (seed, programs) ->
      let sim = Sim.create ~seed:(seed + 1) () in
      let locks =
        Array.init 3 (fun i ->
            let disc = match i with 0 -> Lock.Unfair | 1 -> Lock.Fifo | _ -> Lock.Barging in
            Lock.create sim arch disc ~name:(Printf.sprintf "l%d" i))
      in
      let inside = Array.make 3 0 in
      let violated = ref false in
      let finished = ref 0 in
      List.iteri
        (fun ti prog ->
          ignore
            (Sim.spawn sim ~cpu:ti ~name:(Printf.sprintf "t%d" ti) (fun () ->
                 List.iter
                   (fun (which, d) ->
                     let l = locks.(which) in
                     Lock.acquire l;
                     inside.(which) <- inside.(which) + 1;
                     if inside.(which) > 1 then violated := true;
                     Sim.delay sim (1 + d);
                     inside.(which) <- inside.(which) - 1;
                     Lock.release l)
                   prog;
                 incr finished)))
        programs;
      Sim.run sim;
      (not !violated)
      && !finished = List.length programs
      && Array.for_all (fun l -> Lock.total_hold_ns l >= 0 && Lock.total_wait_ns l >= 0)
           locks
      && List.length (Sim.blocked_threads sim) = 0)

(* Random thread programs (delays, yields, lock sections and callbacks
   scheduled from inside threads) dispatch in the same order whether a
   delay waits in place or, stepped one nanosecond at a time, always
   suspends. *)
let prop_wait_matches_suspending =
  QCheck.Test.make ~name:"random programs: waiting in place matches suspending" ~count:50
    QCheck.(
      list_of_size Gen.(1 -- 6)
        (list_of_size Gen.(1 -- 10) (pair (int_bound 3) (int_bound 40))))
    (fun programs ->
      let run drive =
        let sim = Sim.create ~seed:5 () in
        let lock = Lock.create sim arch Lock.Unfair ~name:"l" in
        let log = ref [] in
        let note tag = log := (tag, Sim.now sim) :: !log in
        List.iteri
          (fun ti prog ->
            Sim.at sim (3 * ti) (fun () -> note (Printf.sprintf "cb%d" ti));
            ignore
              (Sim.spawn sim ~name:(Printf.sprintf "t%d" ti) (fun () ->
                   List.iteri
                     (fun k (op, d) ->
                       let tag = Printf.sprintf "t%d.%d" ti k in
                       (match op with
                        | 0 -> Sim.delay sim d
                        | 1 -> Sim.yield sim
                        | 2 -> Lock.with_lock lock (fun () -> Sim.delay sim d)
                        | _ -> Sim.after sim d (fun () -> note (tag ^ "cb")));
                       note tag)
                     prog)))
          programs;
        drive sim;
        (List.rev !log, Sim.events_processed sim, Sim.now sim)
      in
      let log, n, horizon = run (fun sim -> Sim.run sim) in
      let log_s, n_s, _ = run (run_stepped ~horizon) in
      log = log_s && n = n_s)

(* Every permutation of gate usage serves tickets strictly in order. *)
let prop_gate_serves_in_order =
  QCheck.Test.make ~name:"gate always serves tickets in order" ~count:60
    QCheck.(pair (int_bound 100_000) (int_range 2 8))
    (fun (seed, n) ->
      let sim = Sim.create ~seed:(seed + 3) () in
      let gate = Gate.create sim arch ~name:"g" in
      let served = ref [] in
      let rng = Pnp_util.Prng.create (seed + 11) in
      let tickets = Array.init n (fun i -> i) in
      (* issue in order, arrive in random order *)
      let arrival = Array.copy tickets in
      Pnp_util.Prng.shuffle rng arrival;
      let issued = Array.map (fun _ -> -1) tickets in
      let _ =
        Sim.spawn sim ~name:"issuer" (fun () ->
            Array.iteri (fun i _ -> issued.(i) <- Gate.take gate) tickets)
      in
      Array.iteri
        (fun pos i ->
          ignore
            (Sim.spawn sim ~name:(Printf.sprintf "w%d" i) (fun () ->
                 (* let the issuer finish taking every ticket first *)
                 Sim.delay sim (5_000 + (1000 * (pos + 1)));
                 Gate.await gate issued.(i);
                 served := i :: !served;
                 Gate.advance gate)))
        arrival;
      Sim.run sim;
      List.rev !served = Array.to_list tickets)

let suites =
  [
    ( "engine.eventq",
      [
        Alcotest.test_case "pops in time order" `Quick test_eventq_order;
        Alcotest.test_case "FIFO at equal times" `Quick test_eventq_fifo_ties;
        Alcotest.test_case "pop empty" `Quick test_eventq_pop_empty;
        Alcotest.test_case "pop_exn / peek_time_exn" `Quick test_eventq_pop_exn;
        Alcotest.test_case "reserved seq" `Quick test_eventq_reserve;
        Qrand.to_alcotest prop_eventq_sorted;
        Qrand.to_alcotest prop_eventq_interleaved_oracle;
        Qrand.to_alcotest prop_eventq_model;
        Alcotest.test_case "add/pop allocate nothing after growth" `Quick test_eventq_no_alloc;
        Alcotest.test_case "a popped payload is not retained" `Quick
          test_eventq_pop_releases_payload;
      ] );
    ( "engine.sim",
      [
        Alcotest.test_case "delay advances time" `Quick test_sim_delay;
        Alcotest.test_case "threads interleave" `Quick test_sim_interleaving;
        Alcotest.test_case "run until" `Quick test_sim_run_until;
        Alcotest.test_case "scheduled callback" `Quick test_sim_at_callback;
        Alcotest.test_case "past scheduling rejected" `Quick test_sim_at_past_rejected;
        Alcotest.test_case "self outside thread" `Quick test_sim_self_outside_thread;
        Alcotest.test_case "suspend/resume" `Quick test_sim_suspend_resume;
        Alcotest.test_case "double resume fails" `Quick test_sim_double_resume_fails;
        Alcotest.test_case "spawn on cpu" `Quick test_sim_spawn_on_cpu;
        Alcotest.test_case "yield fairness" `Quick test_sim_yield_fairness;
        Alcotest.test_case "deterministic per seed" `Quick test_sim_deterministic_given_seed;
        Alcotest.test_case "traced dispatch equals untraced" `Quick
          test_sim_traced_equivalence;
        Alcotest.test_case "inline delay writes the suspend path's trace" `Quick
          test_sim_inline_delay_trace;
        Alcotest.test_case "wait: ties at the wake-up" `Quick test_sim_wait_ties;
        Alcotest.test_case "wait: nested wake-ups" `Quick test_sim_wait_nested;
        Alcotest.test_case "wait: stop inside a wait" `Quick test_sim_wait_stop;
        Alcotest.test_case "wait: meets run until" `Quick test_sim_wait_until;
        Alcotest.test_case "wait: an event raises" `Quick test_sim_wait_exception;
        Alcotest.test_case "a spawned thread costs a few words" `Quick test_sim_spawn_words;
      ] );
    ( "engine.lock",
      [
        Alcotest.test_case "mutual exclusion" `Quick test_lock_mutual_exclusion;
        Alcotest.test_case "FIFO grant order" `Quick test_lock_fifo_grant_order;
        Alcotest.test_case "contention observed" `Quick test_lock_unfair_reorders;
        Alcotest.test_case "unfair reorders, fifo does not" `Quick
          test_lock_unfair_eventually_misorders;
        Alcotest.test_case "unfair grant order pinned" `Quick
          test_lock_unfair_grants_pinned;
        Alcotest.test_case "wait queue matches the list reference" `Quick
          test_lock_queue_matches_reference;
        Alcotest.test_case "release by non-owner fails" `Quick
          test_lock_release_by_non_owner_fails;
        Alcotest.test_case "with_lock releases on exception" `Quick
          test_lock_with_lock_releases_on_exception;
        Alcotest.test_case "with_lock re-raises the body's exception" `Quick
          test_with_lock_reraises_body_exception;
        Alcotest.test_case "wait accounting" `Quick test_lock_wait_accounting;
        Alcotest.test_case "outside a thread nothing locks or is charged" `Quick
          test_lock_outside_thread;
        Alcotest.test_case "coherency penalty across CPUs" `Quick
          test_lock_coherency_penalty_cross_cpu;
        Alcotest.test_case "sync-bus arch has no penalty" `Quick
          test_lock_power_series_no_penalty;
        Alcotest.test_case "barging grants newest first" `Quick
          test_lock_barging_grant_order;
      ] );
    ( "engine.gate",
      [
        Alcotest.test_case "orders delivery" `Quick test_gate_orders_delivery;
        Alcotest.test_case "no wait when in order" `Quick test_gate_no_wait_when_in_order;
        Alcotest.test_case "waiter ring grows and wraps" `Quick test_gate_ring_grows_and_wraps;
        Alcotest.test_case "misuse messages" `Quick test_gate_misuse_messages;
      ] );
    ( "engine.atomic",
      [
        Alcotest.test_case "counts" `Quick test_atomic_ctr_counts;
        Alcotest.test_case "LL/SC faster than locked" `Quick test_atomic_faster_than_locked;
        Alcotest.test_case "parallel consistency" `Quick test_atomic_parallel_consistent;
      ] );
    ( "engine.random",
      [
        Qrand.to_alcotest prop_random_lock_programs;
        Qrand.to_alcotest prop_wait_matches_suspending;
        Qrand.to_alcotest prop_gate_serves_in_order;
      ] );
    ( "engine.membus",
      [
        Alcotest.test_case "single user rate" `Quick test_membus_single_user_rate;
        Alcotest.test_case "shared capacity" `Quick test_membus_shared_capacity;
        Alcotest.test_case "consume blocks" `Quick test_membus_consume_blocks;
      ] );
  ]
