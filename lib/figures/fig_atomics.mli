(** Figure 15: LL/SC atomic increment/decrement vs lock-increment-unlock
    for reference counts (Section 5.2).

    Data phase only (pure sweep; safe on worker domains). *)

val fig15_data : Opts.t -> Pnp_harness.Report.table list
