(** FIFO-discipline and packet-order checking over the lock-grant stream.

    Two related analyses on every lock that appears in the trace:

    - {b Grant-order assertion}: a lock registered with the ["fifo"]
      discipline (the MCS lock) must grant in request-arrival order.
      Any grant that overtakes an earlier, still-pending request is a
      finding — this turns the {!Pnp_engine.Lock.Fifo} contract into a
      machine-checked invariant.

    - {b Reorder-window quantification}: cross-referencing each grant
      with the packet sequence number the grantee thread is carrying
      (its latest [Span_begin Enqueue]) measures how far the lock's
      grant order deviates from packet arrival order — the Figure 10
      mechanism (non-FIFO locks reorder packets inside TCP) as numbers
      instead of a chart.  [reordered] counts grants whose packet seq is
      lower than one already granted; [max_window] is the deepest such
      overtake in sequence-number distance (bytes). *)

type lock_stat = {
  lock : string;
  discipline : string option;  (** from {!Pnp_engine.Trace.lock_discipline} *)
  grants : int;                (** grants attributable to a carried packet *)
  reordered : int;
  max_window : int;            (** in packets, 0 when order was preserved *)
}

val stats : Pnp_engine.Trace.t -> lock_stat list
(** Per-lock reorder statistics, restricted to locks whose grantees
    carried packets; sorted by reordered count descending.  The one
    whole-trace checker entry point beside {!Check.run}: it replays
    the trace through {!request} and {!grant} alone, for callers that
    need the statistics without the other checkers' cost, and returns
    what {!Check.run} reports as [order]. *)

val reordered_total : lock_stat list -> int * int
(** [(reordered, grants)] summed over all locks. *)

(** {2 As one step of the shared replay}

    {!Check.run} calls {!request} on every [Lock_request] row and
    {!grant} on every [Lock_grant] row, then reads {!stats_of} and
    {!findings}. *)

type t

val create : Replay.ctx -> t

val request : t -> Pnp_engine.Trace.Row.t -> unit
(** A [Lock_request] row. *)

val grant : t -> Pnp_engine.Trace.Row.t -> unit
(** A [Lock_grant] row. *)

val stats_of : t -> lock_stat list
(** {!stats} over the records stepped so far. *)

val findings : t -> Finding.t list
(** Grant-order violations on FIFO locks (checker ["fifo-order"]) in
    the rows stepped so far, witnessed by the overtaken request and the
    overtaking grant. *)
