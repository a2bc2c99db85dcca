(** Figures 13 and 14: locking granularity in TCP (Section 5.1).

    TCP-1 (one state lock), TCP-2 (send + receive locks) and TCP-6 (the
    SICS six-lock style, checksumming under the header locks), each with
    1 KB and 4 KB packets, checksumming on, MCS locks.

    Data phase only (pure sweeps; safe on worker domains). *)

val fig13_data : Opts.t -> Pnp_harness.Report.table list
(** Send side. *)

val fig14_data : Opts.t -> Pnp_harness.Report.table list
(** Receive side. *)
