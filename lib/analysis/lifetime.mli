(** Arena lifetime sanitizer — ASan for {!Pnp_xkern.Mpool}.

    Replays the node lifecycle events the pool traces (alloc, ref,
    unref, arena recycle, byte writes) and reports, per node:

    - {b use-after-free}: a reference taken, or bytes written, after
      the reference count reached zero;
    - {b double-free}: an unref of an already-dead node, or a second
      recycle of the same buffer;
    - {b write-after-recycle}: bytes written after the node's arena
      buffer returned to the free lists — the corruption class buffer
      recycling introduced.

    Nodes first seen mid-lifecycle (traces start mid-run) are adopted
    silently, and nodes still live when the trace ends are not reported:
    a measurement window legitimately ends with traffic in flight.  At
    most one finding is reported per node.

    {!Check.run} calls {!step} on every node lifecycle row, then
    {!findings}. *)

type t

val create : Replay.ctx -> t

val step : t -> Pnp_engine.Trace.Row.t -> unit
(** A node lifecycle row ([Mnode_alloc], [Mnode_ref], [Mnode_unref],
    [Mnode_recycle] or [Mnode_write]); any other row is ignored. *)

val findings : t -> Finding.t list
(** The findings (checker ["lifetime"]) of the rows stepped so far. *)
