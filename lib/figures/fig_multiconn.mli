(** Figure 12: TCP with multiple connections (Section 4.3).

    One connection per processor, TCP-1 with MCS locks and no ticketing:
    throughput grows steadily as connections (and processors) are added,
    because the per-connection state lock is no longer shared.

    Data phase only (pure sweep; safe on worker domains). *)

val fig12_data : Opts.t -> Pnp_harness.Report.table list
