(** Priority queue of timestamped simulator events.

    Events at equal timestamps fire in insertion order (a monotone sequence
    number breaks ties), which keeps every run of the simulator bit-for-bit
    deterministic.

    The implementation is a structure-of-arrays 4-ary min-heap over
    integer keys, with each payload in a slot that does not move: the
    one-event-per-simulated-action hot loop ({!add}/{!pop_exn})
    allocates nothing per event and a sift moves no pointer. *)

type 'a t

val create : unit -> 'a t

val add : 'a t -> time:int -> 'a -> unit
(** Insert an event at the given absolute time.  Allocation-free except
    when the heap's backing arrays grow. *)

val reserve : 'a t -> int
(** Take the sequence number the next {!add} would have used and return
    it: an event inserted later with {!add_reserved} at that number sorts
    exactly where an {!add} made now would have, before every event
    added after the reservation at the same time. *)

val add_reserved : 'a t -> time:int -> seq:int -> 'a -> unit
(** Insert an event at the (time, seq) key whose seq came from {!reserve}.
    @raise Invalid_argument if [seq] has not been handed out yet. *)

val head_before : 'a t -> time:int -> seq:int -> bool
(** Whether the earliest queued event sorts strictly before the key
    ([false] when the queue is empty). *)

exception Empty

val pop_exn : 'a t -> 'a
(** Remove the earliest event and return its payload, which the queue no
    longer references.  Allocation-free — the simulator's event loop
    calls this once per event; pair with
    {!peek_time_exn} when the timestamp is needed.  @raise Empty when
    the queue is empty. *)

val peek_time_exn : 'a t -> int
(** Timestamp of the earliest event without removing it (no option
    allocation).  @raise Empty when the queue is empty. *)

val size : 'a t -> int
val is_empty : 'a t -> bool
