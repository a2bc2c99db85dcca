(** Trace replay with reconstructed per-thread lock context.

    The trace-driven checkers all need the same derived fact: which
    locks each simulated thread held at a given event.  [replay] walks a
    recorded trace's rows in place, in emission order, maintains that
    state from the [Lock_grant]/[Lock_release] rows, and hands every row
    a checker reads ({!read_by_checkers}) to the callback together with
    the context.  Records no checker reads (spawns, hand-offs, gate
    tickets, pool hits, span ends, faults, SCR replays, RCU) are skipped
    on their stored kind.

    No record is built per row: a step reads the row's fields through
    {!Pnp_engine.Trace.Row}, keeps what it needs as ints (a row's
    position stands for the record), and rebuilds a record with
    {!record} only for a finding's witnesses.

    The context passed to the callback reflects the state {e before} the
    current row is applied: on a [Lock_grant] the granted lock is not
    yet among the thread's held locks (which is exactly the held-before
    set the lock-order checker wants), and on a [Lock_release] it still
    is.

    A named row's name comes as the id its tracer gave it when it was
    emitted ({!Pnp_engine.Trace.name}), so the checkers can key their
    tables by int. *)

type ctx

val create : Pnp_engine.Trace.t -> ctx
(** The context of a replay of the trace that has not begun. *)

val tracer : ctx -> Pnp_engine.Trace.t

val read_by_checkers : Pnp_engine.Trace.ev -> bool
(** Whether some checker reads records of this constructor; decided on
    the constructor alone. *)

val id : ctx -> int
(** The current row's name id, as stored in the row: the id of its
    lock, gate, SCR log or state in the tracer's one numbering
    ({!Pnp_engine.Trace.Row.id}), or [-1] for a row without a name. *)

val record : ctx -> Pnp_engine.Trace.pos -> Pnp_engine.Trace.record
(** The record at a position of the replayed trace: how a checker
    builds a finding's witness. *)

val lock_name : ctx -> int -> string
(** The lock with this id.  Lock ids include one synthetic lock per SCR
    log, ["scr:" ^ log], held across each apply section; its id is above
    every name the tracer had numbered when the replay began. *)

(** {2 Held locks}

    A thread's held locks, oldest acquisition first: the [i]th has id
    [held_id ctx ~tid i] and was granted by the row at
    [held_grant ctx ~tid i] (the [Scr_apply] row for an SCR log's
    lock). *)

val held_count : ctx -> tid:int -> int
val held_id : ctx -> tid:int -> int -> int
val held_grant : ctx -> tid:int -> int -> Pnp_engine.Trace.pos

val holds : ctx -> tid:int -> int -> bool
(** Whether the thread holds the lock with this id. *)

val carrying : ctx -> tid:int -> bool
(** Whether the thread has carried a packet: whether a
    [Span_begin Enqueue] of it was replayed. *)

val seq : ctx -> tid:int -> int
(** The sequence number of the packet the thread is carrying: the seq of
    its most recent [Span_begin Enqueue].  Meaningful when
    {!carrying}. *)

val replay : ctx -> (Pnp_engine.Trace.Row.t -> unit) -> unit
(** Replay every row a checker reads, in emission order, through the
    callback, updating the context after each.  Replay a context once.
    The row cursor is valid during the call only. *)

(** {2 Tables keyed by id} *)

val grow : 'a array -> int -> 'a -> 'a array
(** [grow a i x] is [a] if [i] is an index of [a], else a copy of [a],
    at least twice as long and long enough to have index [i], whose new
    slots hold [x]. *)

module Slots : sig
  type 'a t
  (** A growable array of optional values, indexed by id. *)

  val create : unit -> 'a t
  val get : 'a t -> int -> 'a option
  val set : 'a t -> int -> 'a -> unit

  val fold : 'a t -> (int -> 'a -> 'b -> 'b) -> 'b -> 'b
  (** Over the filled slots, in id order. *)
end

module Pairs : Hashtbl.S with type key = int
(** A table keyed by a pair of ids packed by {!pair}. *)

val pair : int -> int -> int
(** [pair a b] packs two ids below [2{^30}] into one key. *)
