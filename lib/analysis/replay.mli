(** Trace replay with reconstructed per-thread lock context.

    The trace-driven checkers all need the same derived fact: which
    locks each simulated thread held at a given event.  [replay] walks a
    recorded trace in emission order, maintains that state from the
    [Lock_grant]/[Lock_release] stream, and hands every record a checker
    reads ({!read_by_checkers}) to the callback together with the
    context.  Records no checker reads (spawns, hand-offs, gate
    tickets, pool hits, span ends, faults, SCR replays, RCU) are skipped
    before they are rebuilt.

    The context passed to the callback reflects the state {e before} the
    current record is applied: on a [Lock_grant] the granted lock is not
    yet in the thread's held list (which is exactly the held-before set
    the lock-order checker wants), and on a [Lock_release] it still is.

    Names are interned once per replay, one numbering per kind (locks,
    gates, SCR logs, states), densely from 0 in first-seen order, so the
    checkers can key their tables by int. *)

type ctx

val read_by_checkers : Pnp_engine.Trace.ev -> bool
(** Whether some checker reads records of this constructor; decided on
    the constructor alone. *)

val id : ctx -> int
(** The current record's name, interned: the id of its lock, gate, SCR
    log or state in that kind's numbering, or [-1] for a record without
    a name. *)

val lock_name : ctx -> int -> string
(** The lock with this id.  Lock ids include one synthetic lock per SCR
    log, ["scr:" ^ log], held across each apply section. *)

val held_ids : ctx -> tid:int -> int list
(** Locks currently held by the thread, oldest acquisition first. *)

val held_grants : ctx -> tid:int -> (int * Pnp_engine.Trace.record) list
(** {!held_ids} paired with the [Lock_grant] record (the [Scr_apply]
    record for an SCR log's lock) under which each is held. *)

val held : ctx -> tid:int -> string list
(** {!held_ids} by name. *)

val current_seq : ctx -> tid:int -> int option
(** The packet sequence number the thread is currently carrying: the seq
    of its most recent [Span_begin Enqueue]. *)

val replay : Pnp_engine.Trace.t -> (ctx -> Pnp_engine.Trace.record -> unit) -> unit
(** Replay every record a checker reads, in emission order, through the
    callback. *)

val run : Pnp_engine.Trace.t -> 'a -> ('a -> ctx -> Pnp_engine.Trace.record -> unit) -> 'a
(** [run tracer t step] replays the trace through [step t] and returns
    [t]: how each checker runs its own per-record step alone. *)

(** {2 Tables keyed by id} *)

module Slots : sig
  type 'a t
  (** A growable array of optional values, indexed by id. *)

  val create : unit -> 'a t
  val get : 'a t -> int -> 'a option
  val set : 'a t -> int -> 'a -> unit

  val fold : 'a t -> (int -> 'a -> 'b -> 'b) -> 'b -> 'b
  (** Over the filled slots, in id order. *)
end
