(** The Internet checksum (RFC 1071) over message-tool messages.

    The arithmetic is real — the 16-bit one's-complement sum of the actual
    bytes — and the cost is charged through the memory bus at the per-CPU
    checksum bandwidth the paper measures (32 MB/s on the Challenge), since
    checksumming is the data-touching operation of these stacks. *)

val sum_slices : Pnp_xkern.Msg.t -> int
(** Raw 16-bit one's-complement sum of the message bytes (host-side only;
    charges nothing).  Odd trailing bytes are padded with zero per the RFC. *)

val sum : [> `R ] Pnp_util.Buf.t -> int -> int -> int
(** One's-complement sum of a byte range (big-endian 16-bit words, odd
    trailing byte zero-padded).  Sums 8 bytes per iteration via 64-bit
    loads with the RFC 1071 lane fold; agrees with
    {!sum_bytes_bytewise} for every offset and length. *)

val sum_bytes : Bytes.t -> int -> int -> int
(** {!sum} over the caller's bytes. *)

val sum_bytes_bytewise : Bytes.t -> int -> int -> int
(** The straightforward two-bytes-at-a-time reference implementation —
    the oracle the property tests check {!sum_bytes} against. *)

val add : int -> int -> int
(** One's-complement addition of two 16-bit partial sums. *)

val finish : int -> int
(** Fold and complement a partial sum into the final checksum field value. *)

val pseudo_sum : proto:int -> src:int -> dst:int -> len:int -> int
(** The pseudo-header partial sum of a [len]-byte TCP or UDP segment
    from [src] to [dst]: the addresses' 16-bit halves, the protocol
    number [proto] and [len]. *)

val charge : Pnp_engine.Platform.t -> Pnp_xkern.Msg.t -> unit
(** The simulated cost of one checksum pass over [msg] — streaming its
    bytes through the memory bus — without doing the host-side
    arithmetic.  {!compute} and {!verify} charge exactly this;
    [Tcp_wire.verify_checksum] calls it before its uncharged check. *)

val compute : Pnp_engine.Platform.t -> Pnp_xkern.Msg.t -> extra:int -> int
(** [compute plat msg ~extra] returns [finish (add (sum_slices msg) extra)]
    — [extra] carries the pseudo-header sum — and charges the calling
    thread for streaming [Msg.length msg] bytes through the bus. *)

val verify : Pnp_engine.Platform.t -> Pnp_xkern.Msg.t -> extra:int -> bool
(** A message whose checksum field was set correctly sums (with the
    pseudo-header) to 0xffff before complementing; charges like
    {!compute}. *)
