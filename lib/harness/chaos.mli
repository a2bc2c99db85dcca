(** Chaos runner: end-to-end fault-injection cells with a recovery oracle.

    One {e cell} = one fault plan x one lock discipline, run in two
    single-threaded simulation worlds:

    - a {b TCP world}: two complete stacks over a faulted {!Pnp_driver.Link},
      a blocking-socket transfer of a seeded golden stream, drained to EOF;
    - a {b UDP world}: paced datagrams over the same plan, where every
      datagram's fate must be accounted for exactly.

    The observations feed {!Pnp_analysis.Recovery.check}: byte-stream
    equality (length and digest), zero silent corruption (every injected
    bit flip caught by a checksum), balanced UDP accounting and drain
    liveness.  Worlds are seeded only from the cell parameters and run on
    a single simulated host each, so a cell's outcome — and the printed
    matrix — is byte-identical regardless of how many {!Pool} workers
    execute cells concurrently. *)

type outcome = {
  plan_name : string;
  disc : Pnp_engine.Lock.discipline;
  locking : Pnp_proto.Tcp.locking;  (** TCP state-locking granularity *)
  bytes : int;  (** golden-stream length of the TCP transfer *)
  tcp_done_ns : int;  (** sim time the receiver saw EOF; [-1] = never *)
  tcp_rexmits : int;
  tcp_link : Pnp_driver.Link.fault_stats;
  udp_link : Pnp_driver.Link.fault_stats;
  udp : Pnp_analysis.Recovery.udp_account;
  corruption : Pnp_analysis.Recovery.corruption;  (** both worlds summed *)
  findings : Pnp_analysis.Finding.t list;  (** [] = recovered *)
}

val run_cell :
  ?bytes:int ->
  ?datagrams:int ->
  ?seed:int ->
  ?tcp_locking:Pnp_proto.Tcp.locking ->
  plan:Pnp_faults.Faults.plan ->
  disc:Pnp_engine.Lock.discipline ->
  unit ->
  outcome
(** Run one cell.  Defaults: 200 kB TCP transfer, 600 paced datagrams,
    seed 1, TCP-1 state locking.  The TCP world's link runs at 40 Mbit/s with 200 us latency,
    so the default transfer takes ~50 ms of simulated time — long enough
    to straddle the built-in plans' blackout and burst windows. *)

val passed : outcome -> bool

val to_line : outcome -> string
(** One deterministic summary line (no timestamps, no float formatting
    that depends on locale) — what [repro chaos] prints per cell. *)

val matrix :
  ?bytes:int -> ?datagrams:int -> ?seed:int -> ?plan:Pnp_faults.Faults.plan ->
  unit -> outcome list
(** Every built-in plan (or only [plan]: its rows of the matrix) x
    {Unfair (mutex), Fifo (MCS), Fifo+SCR (log-replay state-compute
    replication)}, fanned out over the {!Pool} workers; the list is in
    plan-table order and independent of the worker count.  The SCR leg
    is the recovery-oracle check over the replication discipline: faults
    must drain to a byte-identical stream through the replay path
    too. *)
