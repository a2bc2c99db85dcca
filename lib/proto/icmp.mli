(** ICMP echo (ping).

    The x-kernel's IP suite carried ICMP alongside UDP and TCP; this
    implements the echo service: requests are answered in place (by the
    receiving thread, like every other upcall), and outstanding pings are
    matched to replies by (identifier, sequence) through the map manager,
    yielding round-trip times in simulated nanoseconds. *)

type t

val create : Pnp_engine.Platform.t -> Pnp_xkern.Mpool.t -> ip:Ip.t -> name:string -> t
(** Registers with IP; inbound echo requests are answered automatically. *)

val ping :
  t ->
  dst:int ->
  ident:int ->
  seq:int ->
  ?payload:int ->
  on_reply:(rtt_ns:int -> unit) ->
  unit ->
  unit
(** Send an echo request.  [on_reply] fires (on the thread that processes
    the reply) with the measured round-trip time.  [payload] bytes of
    pattern data are carried and verified on return. *)

val requests_sent : t -> int
val bad_replies : t -> int
(** Replies whose checksum or payload failed verification. *)
