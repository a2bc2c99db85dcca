(** Arena lifetime sanitizer — ASan for {!Pnp_xkern.Mpool}.

    Replays the node lifecycle events the pool traces (alloc, ref,
    unref, arena recycle, byte writes) and reports, per node:

    - {b use-after-free}: a reference taken, or bytes written, after
      the reference count reached zero;
    - {b double-free}: an unref of an already-dead node, or a second
      recycle of the same buffer;
    - {b write-after-recycle}: bytes written after the node's arena
      buffer returned to the free lists — the corruption class buffer
      recycling (PR 7) introduced;
    - {b leaks} (opt-in): nodes still live when the trace ends.

    Nodes first seen mid-lifecycle (traces start mid-run) are adopted
    silently.  At most one finding is reported per node. *)

val check : ?leaks:bool -> Pnp_engine.Trace.t -> Finding.t list
(** Findings under checker ["lifetime"].  [leaks] (default [false])
    additionally demands every node be dead at end of trace — only
    meaningful for drain-to-completion fixtures, since a measurement
    window legitimately ends with traffic in flight. *)

(** {2 As one step of a shared replay} *)

type t

val create : Replay.ctx -> t

val step : t -> Pnp_engine.Trace.Row.t -> unit
(** A node lifecycle row ([Mnode_alloc], [Mnode_ref], [Mnode_unref],
    [Mnode_recycle] or [Mnode_write]); any other row is ignored. *)

val findings : ?leaks:bool -> t -> Finding.t list
(** What {!check} returns for the records stepped so far. *)
