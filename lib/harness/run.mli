(** Execute one experiment configuration and measure steady state.

    Mirrors the paper's methodology: spawn one wired thread per processor,
    let the system warm up, then measure throughput over a steady-state
    window (Section 3: 30 s warmup + 30 s measurement on real hardware; the
    simulator reaches steady state within a few thousand packets, so the
    defaults are shorter and configurable). *)

type result = {
  throughput_mbps : float;   (** user payload over the measurement window *)
  goodput_mbps : float;
      (** in-order bytes net of retransmitted duplicates — equals
          [throughput_mbps] on a lossless path, and falls below it as
          [Config.loss_rate] forces retransmissions *)
  packets : int;             (** payload-carrying packets in the window *)
  ooo_pct : float;           (** TCP data segments arriving out of order, % *)
  wire_misorder_pct : float; (** send side: segments passed below TCP, % *)
  pred_miss_pct : float;     (** header-prediction misses among data segments, % *)
  rexmit_pct : float;        (** retransmitted segments among segments sent, % *)
  lock_wait_pct : float;     (** share of thread time blocked on connection locks, % *)
  cache_hit_pct : float;     (** MNode allocations served by per-thread caches, % *)
  scr_appends : int;
      (** [Scr] only: packet-history log entries appended in the window
          (0 under any other discipline) *)
  scr_replayed : int;
      (** [Scr] only: redundant foreign entries replicas replayed — the
          compute SCR trades for lock waiting *)
  scr_resyncs : int;         (** [Scr] only: replica bootstraps + post-truncation resyncs *)
}

val run : Config.t -> result
(** Build the platform, stack, drivers and workers for the configuration,
    simulate warmup + measurement, and report the steady-state window.

    Results are memoized on the configuration (the sweep-cell memo):
    a cell is a pure function of its configuration, so when figures share
    cells — and several do — repeats are served from a process-wide cache.
    Hits return exactly the value a fresh run would compute, so output is
    byte-identical with the memo on or off, at any [-j].  The table is
    mutex-protected and safe from {!Pool} worker domains. *)

val set_cell_memo : bool -> unit
(** Enable / disable the sweep-cell memo (default: enabled).  [repro
    gate] disables it so its batch measures the engine, not the cache. *)

val clear_cell_memo : unit -> unit
(** Drop every cached cell (tests use this to isolate scenarios). *)

val cell_memo_size : unit -> int
(** Number of distinct cells currently cached. *)

val run_traced : Config.t -> result * Pnp_engine.Trace.t
(** Like [run], but enables the simulator's event tracer for exactly the
    measurement window: recording starts at the warmup snapshot and stops
    when the run ends, so trace-derived totals (e.g. per-lock wait time)
    correspond to the same window as the aggregate counters in [result].
    Tracing never consumes simulated time, so the [result] is identical to
    what [run] returns for the same configuration and seed. *)

val run_watched :
  ?stall_ns:Pnp_util.Units.ns -> Config.t -> result * Pnp_analysis.Finding.t list
(** Like [run], but with a {!Pnp_engine.Watchdog} armed on the
    application-byte progress counter (default horizon 100 ms simulated).
    A cell that wedges — deadlocked workers, a livelocked retransmission
    storm — comes back as a result plus one finding per stalled horizon
    (checker ["watchdog"], naming the blocked threads) instead of
    hanging the sweep.  Never memoized: liveness is a property of the
    execution, and a memo hit would not re-execute. *)

val run_seeds : Config.t -> seeds:int -> result list
(** [run] repeated with seeds [cfg.seed .. cfg.seed+seeds-1], fanned out
    over the {!Pool} workers; the result list is in seed order and
    independent of the worker count. *)

val throughput_summary : Config.t -> seeds:int -> Pnp_util.Stats.summary
(** Summary (mean, 90% CI) of throughput across seeds. *)
