(** Figure 16: per-thread message (MNode) caching in the message tool
    (Section 6).

    Data phase only (pure sweep; safe on worker domains). *)

val fig16_data : Opts.t -> Pnp_harness.Report.table list
