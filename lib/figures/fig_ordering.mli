(** Section 4: ordering effects.

    Figure 10 compares baseline TCP-1 under raw mutexes, under MCS FIFO
    locks, and a modified TCP that assumes every packet is in order (the
    upper bound).  Table 1 gives the percentage of out-of-order packets
    under both lock types.  Figure 11 measures the cost of preserving
    order above TCP with the ticketing scheme, and Section 4.1's aside
    measures send-side misordering below TCP (< 1%).

    All functions are data phase only (pure sweeps; safe on worker
    domains); the registry's default presenter prints the tables. *)

val fig10_data : Opts.t -> Pnp_harness.Report.table list

val table1_data : Opts.t -> Pnp_harness.Report.table list

val fig11_data : Opts.t -> Pnp_harness.Report.table list

val send_side_misordering_data : Opts.t -> Pnp_harness.Report.table list
