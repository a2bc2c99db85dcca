(** Priority queue of timestamped simulator events.

    Events at equal timestamps fire in insertion order (a monotone sequence
    number breaks ties), which keeps every run of the simulator bit-for-bit
    deterministic.

    The implementation is a structure-of-arrays 4-ary min-heap: timestamps
    and sequence numbers live in unboxed [int array]s, so the one-event-per
    simulated-action hot loop ({!add}/{!pop_exn}) allocates nothing per
    event. *)

type 'a t

val create : unit -> 'a t

val add : 'a t -> time:int -> 'a -> unit
(** Insert an event at the given absolute time.  Allocation-free except
    when the heap's backing arrays grow. *)

exception Empty

val pop_exn : 'a t -> 'a
(** Remove the earliest event and return its payload.  Allocation-free —
    the simulator's event loop calls this once per event; pair with
    {!peek_time_exn} when the timestamp is needed.  @raise Empty when
    the queue is empty. *)

val peek_time_exn : 'a t -> int
(** Timestamp of the earliest event without removing it (no option
    allocation).  @raise Empty when the queue is empty. *)

val size : 'a t -> int
val is_empty : 'a t -> bool
