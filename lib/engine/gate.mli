(** Ticketing (bakery) gate for order preservation above TCP.

    Section 4.2: before releasing the TCP connection-state lock, a
    receiving thread takes an up-ticket; above TCP, where the application
    requires order, the thread waits until its ticket is called.  The gate
    serialises delivery in ticket order regardless of how threads were
    scheduled in between. *)

type t

val create : Sim.t -> Arch.t -> name:string -> t

val take : t -> int
(** Take the next ticket (caller should hold whatever lock defines the
    order, e.g. the TCP state lock).  Charges a small atomic cost. *)

val await : t -> int -> unit
(** Block the calling thread until the gate is serving the given ticket. *)

val advance : t -> unit
(** Finish the currently served ticket and wake the holder of the next
    one, if it is already waiting. *)

val serving : t -> int
val tickets_issued : t -> int
