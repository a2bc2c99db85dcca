(** Receive-side in-memory driver: a simulated TCP {e sender} below FDDI.

    It produces data segments in sequence order for consumption by the
    real TCP receiver above, flow-controlling itself with the
    acknowledgements and window information the receiver sends down
    (Section 2.3).  Segments are fabricated from preconstructed payload
    templates at no simulated cost beyond the per-packet driver charge; a
    small exponential service jitter models interrupt/DMA variance, the
    source of the residual misordering the paper observes even under MCS
    locks (Table 1's MCS column). *)

type t

val attach :
  Stack.t ->
  peer_addr:int ->
  payload:int ->
  checksum:bool ->
  ?jitter_mean_ns:float ->
  ?sequential_payload:bool ->
  ?iss_base:int ->
  ?addr_of:(int -> int) ->
  ports:(int * int) list ->
  unit ->
  t
(** [ports] lists (driver port, receiver port) pairs — one stream per
    connection.  The receiver must already be listening on each receiver
    port when {!start} runs.  [addr_of j] gives stream [j]'s source
    address (default: [peer_addr] for every stream); per-stream addresses
    let a source carry more streams than the 16-bit port space, as long
    as every (address, driver port) pair is unique.  By default each
    segment carries the shared preconstructed payload template;
    [sequential_payload] instead writes the stream-offset pattern into
    every segment, so an application can byte-verify the whole
    reassembled stream (used by correctness tests). *)

val start : t -> unit
(** Perform the connection handshakes.  Call from a simulated thread. *)

val start_range : t -> first:int -> last:int -> unit
(** Handshake streams [first, last) only — lets several threads split a
    large handshake load. *)

val next : t -> stream:int -> bool
(** Produce one in-order segment on the given stream and push it up the
    stack from the calling thread.  Returns [false] (without injecting)
    when the receiver's advertised window is full. *)

type reserved
(** A sequence number pinned to a stream but not yet injected. *)

val reserve : t -> stream:int -> reserved option
(** Pin the stream's next sequence number (under its ring lock) without
    building or injecting the segment.  [None] when the advertised
    window is full or the stream is not established (the sequence number
    is not advanced, so the feeder retries later).  The
    steered NIC ({!Steer}) reserves at arrival time and injects when the
    assigned worker drains its queue, so reservations of one stream
    parked on two workers' queues can be injected out of order — the
    Flow-Director reordering mechanism.  [next] is [reserve] +
    {!inject} back-to-back. *)

val inject : t -> reserved -> unit
(** Build the reserved segment (jitter + template fill) and push it up
    the stack from the calling thread. *)

val established : t -> stream:int -> bool
val window_stalls : t -> int
val finish : t -> stream:int -> unit
(** Send FIN on the stream (for close-path tests). *)

