(** Figures 2-9: baseline throughput and speedup for UDP and TCP, send and
    receive sides, 1 KB / 4 KB packets, checksumming on and off, on a
    single connection (Section 3).

    Data phase only (pure sweeps; safe on worker domains): each function
    returns the throughput table plus the derived speedup table, and the
    registry's default presenter prints them on the main domain. *)

val fig2_3_data : Opts.t -> Pnp_harness.Report.table list
(** UDP send throughput (Fig 2) and speedup (Fig 3). *)

val fig4_5_data : Opts.t -> Pnp_harness.Report.table list
(** UDP receive throughput (Fig 4) and speedup (Fig 5). *)

val fig6_7_data : Opts.t -> Pnp_harness.Report.table list
(** TCP send throughput (Fig 6) and speedup (Fig 7). *)

val fig8_9_data : Opts.t -> Pnp_harness.Report.table list
(** TCP receive throughput (Fig 8) and speedup (Fig 9). *)
