(** The x-kernel event manager: a timing wheel (Varghese & Lauck).

    The wheel is a chained-bucket hash table keyed by firing time.  As in
    the paper (Section 2.1), each chain has its own lock so that concurrent
    schedule/cancel operations on different slots do not conflict.

    Expired chains are serviced by short-lived simulated worker threads so
    that timer callbacks (e.g. TCP retransmission) run in a context that
    may take protocol locks. *)

type t

type handle
(** A scheduled event, usable with {!cancel}. *)

val create : Pnp_engine.Platform.t -> name:string -> unit -> t
(** A wheel of 128 slots at 10 ms granularity (BSD's slow-timeout scale),
    so one lap is 1.28 s; processor 0 is charged with servicing
    expirations. *)

val schedule : t -> after:Pnp_util.Units.ns -> (unit -> unit) -> handle
(** Schedule a callback at least [after] from now (rounded up to the next
    wheel tick). *)

val cancel : t -> handle -> bool
(** Returns [false] if the event already fired or was already cancelled. *)

val pending : t -> int
(** Events scheduled and not yet fired or cancelled. *)

val fired : t -> int
(** Events whose callbacks have run. *)
