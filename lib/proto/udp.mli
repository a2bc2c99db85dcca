(** UDP: connectionless multiplexing and demultiplexing over IP.

    Like FDDI, locking is required only for session creation and for the
    demux map (Section 2.2).  The checksum (over pseudo-header + payload)
    is optional, as in the experiments. *)

type t

type session

val header_bytes : int
val protocol_number : int

val create : Pnp_engine.Platform.t -> ip:Ip.t -> checksum:bool -> name:string -> t

val open_session :
  t ->
  local_port:int ->
  remote_addr:int ->
  remote_port:int ->
  recv:(Pnp_xkern.Msg.t -> unit) ->
  session
(** Bind a port and install the receive upcall.  The upcall owns the
    message (and must eventually destroy it). *)

val send : session -> Pnp_xkern.Msg.t -> unit
(** Prepend the UDP header and send to the session's remote endpoint. *)

val datagrams_dropped : t -> int
(** No bound port, short header, or failed checksum. *)

val checksum_failures : t -> int

val encap_free :
  Pnp_xkern.Msg.t ->
  src:int ->
  dst:int ->
  sport:int ->
  dport:int ->
  checksum:bool ->
  unit
(** Prepend a UDP header (with a valid checksum when asked) at no simulated
    cost — for driver-built packet templates (Section 2.3: the drivers use
    preconstructed templates and do not compute checksums at run time). *)
