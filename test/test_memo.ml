(* The sweep-cell memo (Run), keyed on the whole Config.t: caching
   repeated (config, seed) cells must never change a byte of figure
   output, at any -j level, and configs that differ in any field must be
   separate cells. *)

open Pnp_harness

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

(* A reduced but real sweep whose figure shares cells internally (the
   speedup table reuses the throughput table's cells). *)
let sweep_opts =
  {
    Pnp_figures.Opts.max_procs = 2;
    seeds = 2;
    warmup = Pnp_util.Units.ms 30.0;
    measure = Pnp_util.Units.ms 60.0;
  }

let fig10_payload () =
  Json_out.figure_json ~id:"fig10" ~jobs:1 ~elapsed_s:0.0
    (Pnp_figures.Fig_ordering.fig10_data sweep_opts)

let test_memo_on_off_identical () =
  let cold = with_memo false fig10_payload in
  let warm =
    with_memo true (fun () ->
        let first = fig10_payload () in
        Alcotest.(check bool) "memo populated" true (Run.cell_memo_size () > 0);
        (* Second generation is served (partly) from the memo. *)
        let second = fig10_payload () in
        Alcotest.(check string) "memo-served repeat identical" first second;
        first)
  in
  Alcotest.(check string) "memo off and on byte-identical" cold warm

let test_memo_parallel_identical () =
  with_memo true (fun () ->
      let serial = with_jobs 1 fig10_payload in
      Run.clear_cell_memo ();
      let parallel = with_jobs 4 fig10_payload in
      Alcotest.(check string) "-j 1 and -j 4 byte-identical with memo" serial
        parallel)

(* The memo would silently corrupt figures if two different configs
   shared a cell.  Run short cells that each differ from the one before
   in one field (several of them fields the default [Hashtbl.hash] never
   reaches) and check each one adds a cell, while a fresh copy of a
   config already run is a hit. *)
let test_distinct_configs_distinct_cells () =
  let base =
    Config.v ~warmup:(Pnp_util.Units.ms 2.0) ~measure:(Pnp_util.Units.ms 4.0) ()
  in
  let recv = { base with Config.side = Config.Recv } in
  let hash = { recv with Config.steering = Some Pnp_driver.Steer.Hash } in
  let variants =
    [
      ("refcnt_mode", { base with Config.refcnt_mode = Pnp_engine.Atomic_ctr.Locked });
      ("message_caching", { base with Config.message_caching = false });
      ("loss_rate", { base with Config.loss_rate = 0.01 });
      ("seed", { base with Config.seed = base.Config.seed + 1 });
      ("procs", { base with Config.procs = base.Config.procs + 1 });
      ("ticketing", { base with Config.ticketing = true });
      ("cksum_under_lock", { base with Config.cksum_under_lock = true });
      ("skew", { base with Config.skew = 0.5 });
      ("offered_mbps", { base with Config.offered_mbps = Some 100.0 });
      ("measure", { base with Config.measure = base.Config.measure + 1 });
      ("demux_shards", { base with Config.demux_shards = 8 });
      ("side", recv);
      ("steering", hash);
      ("steering policy", { hash with Config.steering = Some Pnp_driver.Steer.Last_sender });
    ]
  in
  with_memo true (fun () ->
      let first = Run.run base in
      Alcotest.(check int) "baseline cached" 1 (Run.cell_memo_size ());
      Alcotest.(check bool) "equal config is a hit" true
        (Run.run { base with Config.seed = base.Config.seed } == first);
      Alcotest.(check int) "hit adds no cell" 1 (Run.cell_memo_size ());
      List.iteri
        (fun i (name, cfg) ->
          ignore (Run.run cfg);
          Alcotest.(check int) (name ^ " is a new cell") (i + 2) (Run.cell_memo_size ()))
        variants)

(* A memo hit returns the very value a fresh run computes. *)
let test_memo_hit_equals_fresh_run () =
  let cfg =
    Config.v ~procs:2 ~side:Config.Recv ~protocol:Config.Tcp
      ~warmup:(Pnp_util.Units.ms 20.0)
      ~measure:(Pnp_util.Units.ms 40.0)
      ~seed:7 ()
  in
  let fresh = with_memo false (fun () -> Run.run cfg) in
  with_memo true (fun () ->
      let miss = Run.run cfg in
      let hit = Run.run cfg in
      Alcotest.(check bool) "miss equals fresh" true (miss = fresh);
      Alcotest.(check bool) "hit equals miss" true (hit = miss);
      Alcotest.(check int) "one cell cached" 1 (Run.cell_memo_size ()))

let suites =
  [
    ( "harness.memo",
      [
        Alcotest.test_case "distinct configs are distinct cells" `Quick
          test_distinct_configs_distinct_cells;
        Alcotest.test_case "hit equals fresh run" `Quick test_memo_hit_equals_fresh_run;
        Alcotest.test_case "memo on/off byte-identical" `Slow test_memo_on_off_identical;
        Alcotest.test_case "memo -j1 = -j4 on a real sweep" `Slow
          test_memo_parallel_identical;
      ] );
  ]
