(** Run every trace-driven checker over one trace.

    This is how a trace becomes checker results: the checkers share one
    {!Replay} traversal, in which one match hands each row to the
    per-kind entry points of the checkers that read its kind, so a
    trace is walked once however many checkers run.  No checker has a
    whole-trace entry point of its own but {!Order_check.stats}.
    The steps read each row in place and keep ints, so a clean trace is
    checked without building a single {!Pnp_engine.Trace.record}; the
    records in a finding's witnesses are rebuilt from the positions the
    checker kept. *)

type t = {
  findings : Finding.t list;
      (** lockset, happens-before, arena lifetime, lock-order and FIFO
          grant-order findings, merged, sorted with {!Finding.sort} and
          collapsed with {!Finding.dedupe} *)
  states : Lockset.state list;       (** as {!Lockset.result} *)
  lockset : Finding.t list;          (** as {!Lockset.result} *)
  races : string list;               (** as {!Hb.races} *)
  order : Order_check.lock_stat list; (** as {!Order_check.stats} *)
}

val run : Pnp_engine.Trace.t -> t

val all : Pnp_engine.Trace.t -> Finding.t list
(** [(run tracer).findings]. *)
