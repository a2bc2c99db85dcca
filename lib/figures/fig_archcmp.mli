(** Figures 17 and 18: TCP receive-side throughput and speedup across the
    three machine generations (Section 7): the 100 MHz and 150 MHz R4400
    Challenges and the 33 MHz R3000 Power Series (synchronisation bus).

    Data phase only (pure sweeps; safe on worker domains). *)

val fig17_18_data : Opts.t -> Pnp_harness.Report.table list
