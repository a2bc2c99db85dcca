(** Lock-order (held-before) graph and deadlock-potential detection.

    Every [Lock_grant] of lock [b] to a thread already holding lock [a]
    records a held-before edge [a -> b], witnessed by the two grant
    records.  A cycle in the resulting graph means two threads can
    acquire the same locks in opposite orders — a potential deadlock
    even if this particular run never interleaved into one (the classic
    TCP-6 hazard: the input path takes [reass] before [rexmt], an
    inverted path would take them the other way around).

    {!Check.run} calls {!grant} on every [Lock_grant] row, then
    {!findings}. *)

type t

val create : Replay.ctx -> t

val grant : t -> Pnp_engine.Trace.Row.t -> unit
(** A [Lock_grant] row: records a held-before edge from each lock the
    thread holds, one per distinct (held, granted) pair, first witness
    kept. *)

val findings : t -> Finding.t list
(** One finding (checker ["lock-order"]) per cycle of the edges seen so
    far, witnessed by the grant pairs of every edge in the cycle. *)
