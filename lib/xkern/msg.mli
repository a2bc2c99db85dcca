(** The x-kernel message tool.

    A message is an ordered sequence of views onto reference-counted
    MNodes.  Messages are per-thread objects (the paper: "Messages are
    per-thread data structures, and thus required no locks"); only the
    MNode reference counts underneath are shared.

    Headers are pushed and popped at the front without copying payload
    data; [dup] shares the underlying nodes, which is how the TCP
    retransmission queue keeps unacknowledged segments without copies. *)

type t

val create : Mpool.t -> int -> t
(** [create pool n] makes a message with an [n]-byte payload (contents
    unspecified until written). *)

val of_string : Mpool.t -> string -> t

val length : t -> int

val push : t -> int -> unit
(** [push t n] prepends [n] bytes of header space; bytes 0..n-1 of the
    message now address it. *)

(** {2 Header views}

    A protocol codec touches its header through one buffer view instead
    of one accessor call per field.  The writer pushes the header with
    {!push_header} (one write-generation bump for the whole header) and
    stores every field with [Bytes.set_*] at [0..n-1]; the reader takes
    {!head_view} and {!head_pos} once and loads every field with
    [Bytes.get_*]. *)

val push_header : t -> int -> Bytes.t
(** [push_header t n] is {!push}[ t n] followed by one
    {!Mpool.bump_gen} on the fresh node, and returns the node's buffer:
    the header occupies bytes [0, n) of it and is the caller's to fill.
    Every byte must be written before anything sums the message — a
    store made after a checksum sum has to go through the byte
    accessors below, which bump again.  [n = 0] pushes nothing and
    returns an empty buffer. *)

val head_view : t -> off:int -> len:int -> Bytes.t
(** [head_view t ~off ~len] is a buffer holding message bytes
    [off, off+len) contiguously, from index {!head_pos}[ t ~off ~len]:
    the node buffer itself when one part covers the range (no copy, no
    allocation), otherwise a fresh copy.  Read-only: writing through it
    bypasses the write generation.
    @raise Invalid_argument if the range is outside the message. *)

val head_pos : t -> off:int -> len:int -> int
(** Index of message byte [off] in {!head_view}[ t ~off ~len]; call it
    with the same arguments, before the message changes. *)

val cache_head_sum : t -> len:int -> int -> unit
(** [cache_head_sum t ~len s] records [s] as the checksum sum
    ({!Mpool.cache_sum}) of the first [len] message bytes when one part
    covers them: a codec that wrote the header through {!push_header}
    and computed its sum from the fields primes the memo without a
    re-scan.  [s] must be the sum of the final byte values. *)

val pop : t -> int -> unit
(** [pop t n] strips the first [n] bytes.  @raise Invalid_argument if the
    message is shorter. *)

val truncate : t -> int -> unit
(** [truncate t n] keeps only the first [n] bytes. *)

val dup : t -> t
(** Share the same bytes under a new message (reference counts bumped). *)

val unshare : t -> off:int -> unit
(** Make the node viewed by the part containing offset [off] exclusive to
    this message, copying the viewed bytes into a fresh node when the
    reference count shows sharing.  Writes through this message inside
    that part are then invisible to every other message.  Fault injection
    needs this: damaging a frame "on the wire" must not reach the
    sender's retransmission buffers, which {!dup} left sharing the same
    nodes. *)

val append : t -> t -> unit
(** [append t u] moves [u]'s contents to the tail of [t]; [u] becomes
    empty (its node references transfer, so no copying happens). *)

val destroy : t -> unit
(** Drop all node references.  The message must not be used afterwards. *)

(** {2 Byte access}

    Offsets are message-relative.  Multi-byte accessors are big-endian
    (network order) and may span node boundaries; when the whole range
    lies inside one node (the common case for headers) they locate the
    node once and use direct 16-bit loads/stores instead of one
    part-list walk per byte. *)

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit
val get_u16 : t -> int -> int
val set_u16 : t -> int -> int -> unit
val get_u32 : t -> int -> int
val set_u32 : t -> int -> int -> unit

val blit_to_bytes : t -> Bytes.t -> pos:int -> unit
(** [blit_to_bytes t buf ~pos] copies the whole message into [buf]
    from index [pos]. *)

val to_string : t -> string

val fill_pattern : t -> off:int -> len:int -> stream_off:int -> unit
(** Write the deterministic payload pattern used by the workloads: byte
    [i] of the stream is [(stream_off + i) mod 251].  Each part's filled
    range also gets its checksum sum in the node's memo
    ({!Mpool.cache_sum}), read from a prefix-sum table instead of the
    bytes. *)

val check_pattern : t -> off:int -> len:int -> stream_off:int -> bool
(** Verify the pattern written by {!fill_pattern}. *)

val iter_slices : t -> (Bytes.t -> int -> int -> unit) -> unit
(** Apply the function to each underlying (buffer, offset, length) slice in
    order; used by the checksum. *)

val iter_parts : t -> (Mpool.mnode -> int -> int -> unit) -> unit
(** Like {!iter_slices} but exposing the node, so callers can consult
    the per-node checksum-sum memo ({!Mpool.cached_sum}).  Treat the
    node's bytes as read-only: writes that bypass the [Msg] mutators do
    not bump the write generation and would poison the memo. *)

val parts : t -> int
(** Number of underlying node views (observability). *)
