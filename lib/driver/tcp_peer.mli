(** Send-side in-memory driver: a simulated TCP {e receiver} below FDDI
    (SIM-TCP-RECV in the paper's Figure 1).

    It consumes data segments as fast as possible and acknowledges every
    other one, mimicking Net/2 TCP talking to itself; it "borrows the
    stack of the calling thread" to push the acknowledgement back up
    (Section 2.3).  It also completes the connection handshake and tracks
    how many data segments appeared out of order on the simulated wire
    (the Section 4.1 send-side misordering measurement). *)

type t

val attach : Stack.t -> peer_addr:int -> checksum:bool -> ?loss_rate:float -> unit -> t
(** Install below the stack's FDDI layer.  The simulated receiver
    advertises a 1 MB window until {!set_window} changes it; [checksum]
    controls whether its acks carry valid checksums (matching the stack's
    configuration).
    [loss_rate] silently drops that fraction of data segments, for
    retransmission tests (default 0: the paper's error-free network). *)

val bytes_received : t -> int
(** Data payload bytes consumed (the send-side throughput numerator). *)

val data_segments : t -> int
val acks_sent : t -> int
val wire_misorders : t -> int
(** Data segments whose sequence number was lower than one already seen —
    packets that passed each other below TCP. *)

val segments_dropped : t -> int

val unique_bytes : t -> port:int -> int
(** Contiguous in-order bytes received from the sender on [port]
    (duplicates from retransmission excluded). *)

val stream_established : t -> port:int -> bool
(** Whether the sender on the given local port completed its handshake. *)

val stream_closed : t -> port:int -> bool
(** Whether a FIN arrived from that sender. *)

val set_window : t -> int -> unit
(** Change the advertised receive window.  Reopening a closed (zero)
    window sends a window-update ack on every established stream; call
    from a simulated thread in that case. *)
