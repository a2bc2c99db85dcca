(** Beyond the paper: the Section 8 future-work experiment and ablations
    of the model's design choices (DESIGN.md section 7).

    - {!clp_vs_plp_data}: connection-level parallelism (connections
      statically bound to processors — no state-lock contention, but load
      imbalance) against packet-level parallelism over the same
      many-connection workload, as a function of how skewed the
      per-connection load is.
    - {!grant_policy_data}: out-of-order rates under three lock-grant
      disciplines — random (IRIX mutex), barging (LIFO test-and-set) and
      FIFO (MCS).
    - {!coherency_data}: the receive-side curve as the cache-line
      migration penalty is varied — the knob that separates the Challenge
      from the synchronisation-bus Power Series.
    - {!jitter_data}: Table 1's MCS column as a function of driver
      service jitter, the source of pre-lock misordering.
    - {!presentation_data}: speedup with an added compute-bound
      presentation-conversion pass per packet — the Goldberg et al.
      contrast of Section 3.2.
    - {!cksum_placement_data}: TCP-1 with checksums inside vs outside
      the connection-state lock (what Section 5.1's restructuring
      bought).

    All [_data] functions are pure sweeps (safe on worker domains); the
    CLP-vs-PLP figure additionally has a custom presenter that decodes
    the skew axis (stored as skew x 10 in the [procs] field). *)

val clp_vs_plp_data : Opts.t -> Pnp_harness.Report.table list
val clp_vs_plp_present : Opts.t -> Pnp_harness.Report.table list -> unit

val grant_policy_data : Opts.t -> Pnp_harness.Report.table list
val coherency_data : Opts.t -> Pnp_harness.Report.table list
val jitter_data : Opts.t -> Pnp_harness.Report.table list
val presentation_data : Opts.t -> Pnp_harness.Report.table list
val cksum_placement_data : Opts.t -> Pnp_harness.Report.table list
