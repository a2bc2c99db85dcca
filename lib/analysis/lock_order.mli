(** Lock-order (held-before) graph and deadlock-potential detection.

    Every [Lock_grant] of lock [b] to a thread already holding lock [a]
    records a held-before edge [a -> b], witnessed by the two grant
    records.  A cycle in the resulting graph means two threads can
    acquire the same locks in opposite orders — a potential deadlock
    even if this particular run never interleaved into one (the classic
    TCP-6 hazard: the input path takes [reass] before [rexmt], an
    inverted path would take them the other way around). *)

type edge = {
  first : string;   (** the lock already held *)
  second : string;  (** the lock acquired while holding [first] *)
  holder : Pnp_engine.Trace.record;   (** grant under which [first] was held *)
  acquire : Pnp_engine.Trace.record;  (** grant of [second] *)
}

val edges : Pnp_engine.Trace.t -> edge list
(** One edge per distinct (first, second) pair, first witness kept,
    sorted by (first, second). *)

val check : Pnp_engine.Trace.t -> Finding.t list
(** One finding per cycle, witnessed by the grant pairs of every edge in
    the cycle. *)

(** {2 As one step of a shared replay} *)

type t

val create : Replay.ctx -> t

val grant : t -> Pnp_engine.Trace.Row.t -> unit
(** A [Lock_grant] row. *)

val findings : t -> Finding.t list
(** {!check} over the records stepped so far. *)
