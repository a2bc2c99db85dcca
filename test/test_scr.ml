(* State-compute replication (SCR) and the read-mostly RCU hybrid:
   determinism of the ext-scr figure across -j and the cell memo, the
   bounded log's truncation/resync path, the append->apply happens-before
   channel (including its seeded defect), config validation, the
   recovery oracle over SCR, and RCU's lock-free read path under
   duplicated segments. *)

open Pnp_engine
open Pnp_util
open Pnp_faults
open Pnp_proto
open Pnp_driver
open Pnp_harness
open Pnp_analysis

let with_jobs n f =
  let old = Pool.jobs () in
  Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Pool.set_jobs old) f

let with_memo on f =
  Run.set_cell_memo on;
  Run.clear_cell_memo ();
  Fun.protect
    ~finally:(fun () ->
      Run.set_cell_memo true;
      Run.clear_cell_memo ())
    f

(* ------------------------------------------------------------------ *)
(* Figure determinism: -j and memo must not change a byte              *)
(* ------------------------------------------------------------------ *)

let scr_opts =
  {
    Pnp_figures.Opts.max_procs = 4;
    seeds = 1;
    warmup = Units.ms 10.0;
    measure = Units.ms 30.0;
  }

let scr_payload () =
  Json_out.figure_json ~id:"ext-scr" ~jobs:1 ~elapsed_s:0.0
    (Pnp_figures.Fig_scr.scr_data scr_opts)

let test_fig_scr_deterministic () =
  let cold = with_memo false scr_payload in
  let warm =
    with_memo true (fun () ->
        let first = scr_payload () in
        let second = scr_payload () in
        Alcotest.(check string) "memo-served repeat identical" first second;
        first)
  in
  Alcotest.(check string) "memo off and on byte-identical" cold warm;
  let serial = with_jobs 1 scr_payload in
  let parallel = with_jobs 4 scr_payload in
  Alcotest.(check string) "-j 1 and -j 4 byte-identical" serial parallel

(* ------------------------------------------------------------------ *)
(* Bounded log: a tiny bound must force truncation and resyncs         *)
(* ------------------------------------------------------------------ *)

let test_small_bound_truncates_and_resyncs () =
  let cfg =
    Config.v ~protocol:Config.Tcp ~side:Config.Recv ~payload:4096 ~checksum:true
      ~tcp_locking:Tcp.Scr ~scr_log_bound:4 ~procs:4
      ~warmup:(Units.ms 10.0) ~measure:(Units.ms 40.0) ()
  in
  let r = Run.run cfg in
  Alcotest.(check bool) "appends happened" true (r.Run.scr_appends > 0);
  Alcotest.(check bool)
    (Printf.sprintf "bound 4 forces resyncs (appends=%d replayed=%d resyncs=%d)"
       r.Run.scr_appends r.Run.scr_replayed r.Run.scr_resyncs)
    true
    (r.Run.scr_resyncs > 0);
  (* A roomy bound on the same cell stays on the replay path: resyncs
     are only the per-replica bootstraps, strictly fewer than above. *)
  let roomy = Run.run { cfg with Config.scr_log_bound = 4096 } in
  Alcotest.(check bool) "roomy bound resyncs fewer" true
    (roomy.Run.scr_resyncs < r.Run.scr_resyncs);
  Alcotest.(check bool) "roomy bound replays more" true
    (roomy.Run.scr_replayed >= r.Run.scr_replayed)

(* ------------------------------------------------------------------ *)
(* The append->apply HB channel and its seeded defect                  *)
(* ------------------------------------------------------------------ *)

let make_trace evs =
  let t = Trace.create () in
  Trace.enable t;
  (* The tracer was just enabled unconditionally above. *)
  List.iteri (fun i (tid, ev) -> Trace.emit t ~ts:(i * 10) ~tid ~cpu:0 ev) evs (* lint:allow *);
  t

let append idx = Trace.Scr_append { log = "scr:conn0"; idx }
let apply idx = Trace.Scr_apply { log = "scr:conn0"; idx }
let apply_end idx = Trace.Scr_apply_end { log = "scr:conn0"; idx }

let hb_findings t = List.filter (fun f -> f.Finding.checker = "hb-race") (Check.all t)

(* The healthy shape, mirroring what the SCR receive path emits: the
   owner appends, then applies its own entry (writing replicated state
   inside the apply section); a replica later applies the same entry.
   The owner's apply-end release chains to the replica's apply acquire,
   ordering the two writes. *)
let test_hb_scr_chain_orders_accesses () =
  let t =
    make_trace
      [
        (0, append 0);
        (0, apply 0);
        (0, Trace.Access { state = "conn0.rcv_nxt"; write = true });
        (0, apply_end 0);
        (1, apply 0);
        (1, Trace.Access { state = "conn0.rcv_nxt"; write = true });
        (1, apply_end 0);
      ]
  in
  Alcotest.(check int) "no findings on the healthy chain" 0
    (List.length (hb_findings t))

(* The seeded defect: a replica applies log entry 2 when only entry 0
   has ever been appended — reading ahead of the published tail.  The
   checker must flag exactly this. *)
let test_hb_scr_read_ahead_flagged () =
  let t = make_trace [ (0, append 0); (1, apply 2); (1, apply_end 2) ] in
  let findings = hb_findings t in
  Alcotest.(check int) "exactly one finding" 1 (List.length findings);
  let f = List.hd findings in
  Alcotest.(check string) "from the hb checker" "hb-race" f.Finding.checker;
  Alcotest.(check string) "on the log" "scr:conn0" f.Finding.subject;
  Alcotest.(check int) "witnessed by the apply" 1 (List.length f.Finding.witnesses);
  Alcotest.(check bool)
    (Printf.sprintf "message names the read-ahead (%s)" f.Finding.message)
    true
    (let has needle =
       let n = String.length needle and m = String.length f.Finding.message in
       let rec go i = i + n <= m && (String.sub f.Finding.message i n = needle || go (i + 1)) in
       go 0
     in
     has "ahead of the appended tail")

(* The trace window can open mid-replay: an apply that precedes the log's
   first in-window append consumed an entry appended before the window
   when its index lies below that first append, and read ahead only when
   it claims the appended index or beyond.  With no append at all in the
   window there is no tail to read ahead of. *)
let test_hb_scr_window_opens_mid_replay () =
  let findings evs = List.length (hb_findings (make_trace evs)) in
  Alcotest.(check int) "apply 5 before the first append 6: clean" 0
    (findings [ (1, apply 5); (1, apply_end 5); (0, append 6) ]);
  Alcotest.(check int) "apply 6 before its own append: read-ahead" 1
    (findings [ (1, apply 6); (1, apply_end 6); (0, append 6) ]);
  Alcotest.(check int) "no append in the window: clean" 0
    (findings [ (1, apply 9); (1, apply_end 9) ])

(* ------------------------------------------------------------------ *)
(* Config validation                                                   *)
(* ------------------------------------------------------------------ *)

let stack_with cfg () =
  let plat = Platform.create ~seed:1 Arch.challenge_100 in
  ignore (Stack.create plat ~tcp_config:cfg ~local_addr:0x0a000001 ())

let rejects what cfg =
  match stack_with cfg () with
  | () -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument _ -> ()

let test_scr_config_validation () =
  rejects "scr+ticketing"
    { Tcp.default_config with Tcp.locking = Tcp.Scr; ticketing = true };
  rejects "scr+cksum_under_lock"
    { Tcp.default_config with Tcp.locking = Tcp.Scr; cksum_under_lock = true };
  rejects "scr_log_bound < 2"
    { Tcp.default_config with Tcp.locking = Tcp.Scr; scr_log_bound = 1 };
  (* The same knobs are fine under the locked disciplines. *)
  stack_with { Tcp.default_config with Tcp.locking = Tcp.One; ticketing = true } ()

(* ------------------------------------------------------------------ *)
(* Recovery oracle over SCR under overload                             *)
(* ------------------------------------------------------------------ *)

let test_incast_scr_recovers () =
  let o = Overload.incast ~senders:8 ~bytes_per_flow:2048 ~tcp_locking:Tcp.Scr () in
  if not (Overload.passed o) then
    Alcotest.failf "SCR incast failed the oracle:\n%s"
      (String.concat "\n" (List.map Finding.to_string o.Overload.findings));
  Alcotest.(check int) "all flows completed" o.Overload.accepted o.Overload.completed

(* ------------------------------------------------------------------ *)
(* RCU: duplicated segments are answered without the writer lock       *)
(* ------------------------------------------------------------------ *)

let test_rcu_reads_fire_on_duplicates () =
  let plat = Platform.create ~seed:1 Arch.challenge_100 in
  let cfg = { Tcp.default_config with Tcp.mss = 1024; locking = Tcp.Rcu } in
  let a = Stack.create plat ~tcp_config:cfg ~local_addr:0x0a000001 () in
  let b = Stack.create plat ~tcp_config:cfg ~local_addr:0x0a000002 () in
  let plan = Faults.plan ~name:"dup-heavy" [ Faults.Duplicate { p = 0.25 } ] in
  let _link = Link.connect plat ~plan ~a ~b () in
  let payload = String.make 30_000 'x' in
  let _ =
    Sim.spawn plat.Platform.sim ~cpu:0 ~name:"rcu-server" (fun () ->
        let lst = Socket.Listener.listen plat b.Stack.pool b.Stack.tcp ~port:80 in
        let sock = Socket.Listener.accept lst in
        let rec drain () =
          match Socket.recv_string sock with Some _ -> drain () | None -> ()
        in
        drain ())
  in
  let _ =
    Sim.spawn plat.Platform.sim ~cpu:1 ~name:"rcu-client" (fun () ->
        let sock =
          Socket.connect plat a.Stack.pool a.Stack.tcp ~local_port:5000
            ~remote_addr:0x0a000002 ~remote_port:80
        in
        Socket.send_string sock payload;
        Socket.close sock)
  in
  Sim.run ~until:(Units.sec 30.0) plat.Platform.sim;
  let reads stack =
    List.fold_left
      (fun acc s ->
        match Tcp.rcu_reads s with Some r -> acc + r | None -> acc)
      0
      (Tcp.sessions stack.Stack.tcp)
  in
  let total = reads a + reads b in
  Alcotest.(check bool)
    (Printf.sprintf "duplicate segments took the lock-free path (reads=%d)" total)
    true (total > 0)

let suites =
  [
    ( "scr",
      [
        Alcotest.test_case "ext-scr figure deterministic (-j, memo)" `Quick
          test_fig_scr_deterministic;
        Alcotest.test_case "small log bound truncates and resyncs" `Quick
          test_small_bound_truncates_and_resyncs;
        Alcotest.test_case "HB: append->apply chain orders accesses" `Quick
          test_hb_scr_chain_orders_accesses;
        Alcotest.test_case "HB: read-ahead of the tail is flagged" `Quick
          test_hb_scr_read_ahead_flagged;
        Alcotest.test_case "config validation" `Quick test_scr_config_validation;
        Alcotest.test_case "incast over SCR passes the recovery oracle" `Quick
          test_incast_scr_recovers;
        Alcotest.test_case "RCU reads fire on duplicated segments" `Quick
          test_rcu_reads_fire_on_duplicates;
        Alcotest.test_case "HB: applies before the window's first append" `Quick
          test_hb_scr_window_opens_mid_replay;
      ] );
  ]
