(* The four benchmark workloads: which cells each one runs, how every
   cell's seed derives from the benchmark seed, and how one cell is
   executed in each of the benchmark's modes.

   A cell is judged by a digest of its result.  The reference execution
   (the untimed warm-up pass) fixes the digest every later execution of
   the same cell must reproduce: the timed passes, and the cross-check
   that runs the cell the other way round (traced when the workload is
   untraced, untraced when it is traced), because [Run.run_traced]
   promises the very result [Run.run] computes. *)

open Pnp_engine
open Pnp_harness
module Units = Pnp_util.Units
module Tcp = Pnp_proto.Tcp

type t = Paper | Steering | Incast | Check

let all = [ ("paper", Paper); ("steering", Steering); ("incast", Incast); ("check", Check) ]
let of_string s = List.assoc_opt s all
let to_string w = fst (List.find (fun (_, w') -> w' = w) all)

(* What [work] counts in a cell's execution: simulated events for the
   workloads built on [Run], completed flows for incast ([Hostprof] sees
   no events of the overload world). *)
let work_unit = function Incast -> "flows" | Paper | Steering | Check -> "events"

(* Every input is a function of the benchmark seed and the cell's
   position, so one [--seed] fixes the whole workload. *)
let derive ~seed i = 1 + Hashtbl.hash (seed, i)

(* ---- paper: the figure cells at 4 CPUs ------------------------------ *)

let paper_cell ?(arch = Arch.challenge_100) ?(side = Config.Send)
    ?(protocol = Config.Tcp) ?(lock_disc = Lock.Unfair) ?(tcp_locking = Tcp.One)
    ?(ticketing = false) ?(refcnt_mode = Atomic_ctr.Ll_sc) ?(message_caching = true)
    ?(connections = 1) () =
  Config.v ~arch ~procs:4 ~side ~protocol ~payload:4096 ~checksum:true ~lock_disc
    ~tcp_locking ~ticketing ~refcnt_mode ~message_caching ~connections
    ~warmup:(Units.ms 100.0) ~measure:(Units.ms 150.0) ()

(* The bench --quick batch plus the ext-scr cell. *)
let paper_configs =
  [
    paper_cell ~protocol:Config.Udp ~side:Config.Send ();
    paper_cell ~protocol:Config.Udp ~side:Config.Recv ();
    paper_cell ~side:Config.Send ();
    paper_cell ~side:Config.Recv ();
    paper_cell ~side:Config.Recv ~lock_disc:Lock.Fifo ();
    paper_cell ~side:Config.Recv ~ticketing:true ();
    paper_cell ~side:Config.Recv ~lock_disc:Lock.Fifo ~connections:4 ();
    paper_cell ~side:Config.Send ~tcp_locking:Tcp.Six ();
    paper_cell ~refcnt_mode:Atomic_ctr.Locked ();
    paper_cell ~message_caching:false ();
    paper_cell ~arch:Arch.power_series_33 ~side:Config.Recv ();
    paper_cell ~side:Config.Recv ~tcp_locking:Tcp.Scr ();
  ]

(* Each configuration runs under this many derived seeds per pass (here
   and in the other workloads), so a pass averages over seed-to-seed
   differences in simulated work, and the calibration kernel, which runs
   between cells, samples the host's speed more often. *)
let paper_replicas = 3

(* ---- steering: 10^4 connections behind a steered NIC ---------------- *)

let steering_conns = 10_000
let steering_procs = 4

(* As in ext-steering: the warm-up grows with the population (the
   handshakes take ~0.5 ms of simulated time per connection per worker)
   on top of a 100 ms settle. *)
let steering_config policy =
  Config.v ~protocol:Config.Tcp ~side:Config.Recv ~payload:4096 ~checksum:true
    ~connections:steering_conns ~steering:policy ~demux_shards:64 ~procs:steering_procs
    ~warmup:
      (Units.ms
         (100.0 +. (0.5 *. float_of_int steering_conns /. float_of_int steering_procs)))
    ~measure:(Units.ms 250.0) ()

let steering_configs = List.map steering_config [ Pnp_driver.Steer.Hash; Last_sender ]
let steering_replicas = 2

(* ---- incast: 10^3 synchronized senders over a bursty link ----------- *)

let incast_senders = 1000
let incast_bytes_per_flow = 2000

(* Well above the sender count on purpose: at 1000 senders, capacities of
   200, 1000 and 2000 all abort the run with [Mpool.Out_of_mnodes]
   instead of degrading. *)
let incast_pool_capacity = 4000
let incast_replicas = 4

let burst_plan =
  match Pnp_faults.Faults.find "burst" with
  | Some p -> p
  | None -> failwith "perfbench: the built-in fault plan \"burst\" is missing"

let incast ?horizon ~seed () =
  Overload.incast ~plan:burst_plan ~senders:incast_senders
    ~bytes_per_flow:incast_bytes_per_flow ~pool_capacity:incast_pool_capacity ~seed
    ?horizon ()

(* ---- check: the repro check scenarios, traced and analysed ---------- *)

let check_scenario ?(side = Config.Recv) ?(tcp_locking = Tcp.One)
    ?(lock_disc = Lock.Unfair) ?(ticketing = false) ?(loss_rate = 0.0)
    ?(map_locking = true) ?steering ?(demux_shards = 1) ?(connections = 1) () =
  Config.v ~arch:Arch.challenge_100 ~procs:4 ~side ~protocol:Config.Tcp ~payload:4096
    ~checksum:true ~lock_disc ~tcp_locking ~ticketing ~loss_rate ~map_locking ?steering
    ~demux_shards ~connections ~warmup:(Units.ms 20.0) ~measure:(Units.ms 80.0) ()

(* [repro check]'s distinct configurations (it runs the fig8-9 receive
   cell twice, once as the Figure 10 order baseline), less its two SCR
   receive scenarios.  Under about one seed in twenty, their trace window
   opens just as a replica applies a log entry appended before the
   window.  The happens-before checker then reports a read-ahead race
   that the window boundary, not the protocol, creates. *)
let check_configs =
  [
    check_scenario ();
    check_scenario ~side:Config.Send ();
    check_scenario ~tcp_locking:Tcp.Two ();
    check_scenario ~tcp_locking:Tcp.Six ();
    check_scenario ~side:Config.Send ~tcp_locking:Tcp.Two ();
    check_scenario ~side:Config.Send ~tcp_locking:Tcp.Six ();
    check_scenario ~lock_disc:Lock.Fifo ();
    check_scenario ~lock_disc:Lock.Fifo ~ticketing:true ();
    check_scenario ~side:Config.Send ~lock_disc:Lock.Fifo ~loss_rate:0.02 ();
    check_scenario ~side:Config.Send ~tcp_locking:Tcp.Six ~loss_rate:0.02 ();
    check_scenario ~steering:Pnp_driver.Steer.Hash ~map_locking:false ~demux_shards:8
      ~connections:256 ();
    check_scenario ~steering:Pnp_driver.Steer.Last_sender ~map_locking:false
      ~demux_shards:8 ~connections:256 ();
    check_scenario ~side:Config.Send ~tcp_locking:Tcp.Scr ~loss_rate:0.02 ();
    check_scenario ~tcp_locking:Tcp.Rcu ();
  ]

let check_replicas = 2

(* ---- cells ----------------------------------------------------------- *)

type cell =
  | Run_cell of Config.t    (** one [Run] cell, untraced *)
  | Check_cell of Config.t  (** one traced [Run] cell, then [Check.all] *)
  | Incast_cell of int      (** one incast world, by seed *)

let seeded cfgs ~seed ~replicas =
  List.concat
    (List.init replicas (fun r ->
         List.mapi
           (fun i cfg ->
             { cfg with Config.seed = derive ~seed ((r * List.length cfgs) + i) })
           cfgs))

let cells w ~seed =
  Array.of_list
    (match w with
     | Paper ->
       List.map (fun c -> Run_cell c) (seeded paper_configs ~seed ~replicas:paper_replicas)
     | Steering ->
       List.map (fun c -> Run_cell c) (seeded steering_configs ~seed ~replicas:steering_replicas)
     | Check ->
       List.map (fun c -> Check_cell c) (seeded check_configs ~seed ~replicas:check_replicas)
     | Incast -> List.init incast_replicas (fun i -> Incast_cell (derive ~seed i)))

(* ---- executing a cell -------------------------------------------------- *)

type exec = {
  digest : string;          (** the cell's result, hex *)
  problems : string list;   (** why the execution failed; [] = it did not *)
  flows : int;              (** completed flows (incast), else 0 *)
}

let digest_of_result (r : Run.result) = Digest.to_hex (Digest.string (Marshal.to_string r []))

let digest_of_outcome (o : Overload.outcome) =
  let b = Buffer.create 256 in
  Buffer.add_string b (Overload.to_line o);
  List.iter (fun (id, ns) -> Printf.bprintf b " %d:%d" id ns) o.Overload.completion_ns;
  Printf.bprintf b " pressure=%d elapsed=%d" o.Overload.pool_pressure_entries
    o.Overload.elapsed_ns;
  Digest.to_hex (Digest.string (Buffer.contents b))

let finding_texts = List.map Pnp_analysis.Finding.to_string
let ok r = { digest = digest_of_result r; problems = []; flows = 0 }

let of_outcome o =
  {
    digest = digest_of_outcome o;
    problems = finding_texts o.Overload.findings;
    flows = o.Overload.completed;
  }

let traced_and_checked cfg =
  let r, tr = Run.run_traced cfg in
  { (ok r) with problems = finding_texts (Pnp_analysis.Check.all tr) }

(* The watchdog's horizon is at least the warm-up: the steering warm-up
   spends over a second of simulated time on handshakes before the first
   application byte moves. *)
let watched cfg =
  let r, findings =
    Run.run_watched ~stall_ns:(max (Units.ms 100.0) cfg.Config.warmup) cfg
  in
  { (ok r) with problems = finding_texts findings }

(* The operation the timed passes repeat. *)
let run = function
  | Run_cell cfg -> ok (Run.run cfg)
  | Check_cell cfg -> traced_and_checked cfg
  | Incast_cell seed -> of_outcome (incast ~seed ())

(* The untimed reference execution.  Run cells are watched, so a
   liveness stall fails them; the overload world always arms its own
   watchdog.  The check cells are not: their loss scenarios can spend
   the whole 100 ms window in retransmission backoff, which is modelled
   behaviour, not a stall. *)
let reference = function
  | Run_cell cfg -> watched cfg
  | (Check_cell _ | Incast_cell _) as c -> run c

(* The same cell the other way round; [None] where no other way exists
   (the overload world has no tracing switch). *)
let cross_check = function
  | Run_cell cfg -> Some (fun () -> ok (fst (Run.run_traced cfg)))
  | Check_cell cfg -> Some (fun () -> ok (Run.run cfg))
  | Incast_cell _ -> None

(* World build plus warm-up: the same cell with a 1 ns measurement
   window (for incast, a 1 ns horizon, before the first connect). *)
let setup = function
  | Run_cell cfg -> ignore (Run.run { cfg with Config.measure = 1 })
  | Check_cell cfg -> ignore (traced_and_checked { cfg with Config.measure = 1 })
  | Incast_cell seed -> ignore (incast ~horizon:1 ~seed ())
