(** A blocking, BSD-socket-flavoured API over TCP sessions.

    The x-kernel delivers data by upcall; most applications want to
    {e pull}.  A socket buffers the upcalls and lets a simulated thread
    block in {!recv} until data (or the peer's FIN) arrives, and block in
    {!Listener.accept} until a connection does.  All blocking calls must
    run inside a simulated thread. *)

type t

val connect :
  Pnp_engine.Platform.t ->
  Pnp_xkern.Mpool.t ->
  Tcp.t ->
  local_port:int ->
  remote_addr:int ->
  remote_port:int ->
  t
(** Active open; blocks until established. *)

val send_string : t -> string -> unit
(** Queue a fresh message holding [s] on the connection (blocks while
    the send buffer is full).  Parks for mnode headroom
    {e before} allocating ({!Pnp_xkern.Mpool.await_headroom}), so a
    storm of senders degrades into queuing instead of exhausting a
    bounded pool. *)

val recv : t -> Pnp_xkern.Msg.t option
(** The next chunk of in-order payload, blocking until one arrives.
    [None] means the peer closed its half (end of stream).  The caller
    owns the returned message. *)

val recv_string : t -> string option

val recv_exactly : t -> int -> string option
(** Accumulate exactly that many bytes (or [None] if the stream ends
    first). *)

val close : t -> unit
(** Send FIN.  Buffered inbound data can still be received. *)

val session : t -> Tcp.session

module Listener : sig
  type socket := t
  type t

  val listen :
    Pnp_engine.Platform.t -> Pnp_xkern.Mpool.t -> Tcp.t -> port:int -> t
  (** Passive open: every inbound connection is wrapped in a socket and
      queued. *)

  val accept : t -> socket
  (** Block until a connection arrives. *)
end
