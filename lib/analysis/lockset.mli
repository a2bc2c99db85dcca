(** Eraser-style lockset checker (Savage et al., SOSP 1997).

    For every shared-state identifier annotated with [Trace.Access]
    events, track the candidate set of locks that consistently protected
    it.  The per-identifier state machine avoids false positives on
    single-thread initialisation:

    - [Virgin]: never accessed.
    - [Exclusive tid]: only one thread has touched it (initialisation);
      emptiness is never reported here, but the locks the owner
      consistently holds are remembered and seed the candidate set at
      the transition to shared, so two threads using disjoint locks are
      caught on the second thread's first access.
    - [Shared ls]: read by multiple threads; the candidate set [ls] is
      intersected on every access but emptiness is not reported
      (read-shared data may be safely unprotected once stable).
    - [Shared_modified ls]: written after becoming shared; an empty
      candidate set now means a genuine data race and is reported.

    One finding is produced per identifier (the first time its candidate
    set goes empty), witnessed by the previous access and the access
    that emptied the set.

    Traces usually start mid-run (the measurement window), so a thread
    may hold locks whose grants predate the first record; those holds
    are revealed by releases with no recorded grant, and accesses by
    such a thread up to its last unmatched release are ignored rather
    than misclassified. *)

type class_ =
  | Virgin
  | Exclusive of int
  | Shared of string list
  | Shared_modified of string list

type state = {
  id : string;
  class_ : class_;
  accesses : int;  (** annotated accesses seen *)
}

(** {2 As one step of the shared replay}

    {!Check.run} calls {!access} on every [Access] row and {!release}
    on every [Lock_release] row, beside the other checkers' steps, then
    {!result}. *)

type t

val create : Replay.ctx -> t

val access : t -> Pnp_engine.Trace.Row.t -> unit
(** An [Access] row: records the access with the locks held at it. *)

val release : t -> Pnp_engine.Trace.Row.t -> unit
(** A [Lock_release] row: notes the release of a lock the replay never
    saw granted (a pre-window hold). *)

val result : t -> state list * Finding.t list
(** Classifies the recorded accesses, now that every pre-window hold is
    known, and returns the final per-identifier states (sorted by id)
    and the findings.  Call it once, after the last row. *)
