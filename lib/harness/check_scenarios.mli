(** The reference scenarios [repro check] traces and checks: the paper's
    TCP figures under each locking discipline, loss, sharded demux with
    steering, and state-compute replication.  Every scenario runs 4 CPUs
    of the Challenge 100 with a 20 ms warm-up and an 80 ms window. *)

type role = [ `Unfair | `Fifo ]
(** The side a scenario takes in the Figure 10 grant-order comparison. *)

type t = {
  tag : string;  (** the figure it stands for, as [repro check --fig] takes it *)
  label : string;
  role : role option;
  cfg : Config.t;  (** at seed 1 *)
}

val all : t list
(** In [repro check]'s order.  The fig8-9 receive cell appears twice,
    once as the Figure 10 order baseline, so the list holds 16 distinct
    configurations. *)
