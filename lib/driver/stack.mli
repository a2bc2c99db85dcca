(** Assembled protocol stack: FDDI / IP / {UDP, TCP} over one platform,
    ready to have an in-memory device driver attached below FDDI.

    This mirrors the paper's test configurations (Figure 1): a throughput
    test sits on top, the protocol stack in the middle, and a simulated
    driver below the media access layer. *)

type t = {
  plat : Pnp_engine.Platform.t;
  pool : Pnp_xkern.Mpool.t;
  wheel : Pnp_xkern.Timewheel.t;
  fddi : Pnp_proto.Fddi.t;
  ip : Pnp_proto.Ip.t;
  udp : Pnp_proto.Udp.t;
  tcp : Pnp_proto.Tcp.t;
  icmp : Pnp_proto.Icmp.t;
  local_addr : int;
}

val create :
  Pnp_engine.Platform.t ->
  ?tcp_config:Pnp_proto.Tcp.config ->
  ?udp_checksum:bool ->
  ?pool_capacity:int ->
  local_addr:int ->
  unit ->
  t
(** Build the full stack.  [tcp_config] defaults to
    {!Pnp_proto.Tcp.default_config}; [udp_checksum] defaults to [true];
    [pool_capacity] bounds the stack's MNode pool (default unbounded).
    A bounded pool gets a soft watermark at half capacity
    ({!Pnp_xkern.Mpool}): TCP senders park and the link/driver layers
    shed accounted [pool_pressure] drops above it, so only code that
    bypasses admission control can still hit the hard bound's
    {!Pnp_xkern.Mpool.Out_of_mnodes}.

    The order in which the protocols register with IP is part of the
    modelled state.  Each registration is an insert into IP's demux
    map, which leaves that binding in the map's one-behind cache; UDP,
    TCP and ICMP register in that order, so ICMP starts in the cache
    and the first UDP or TCP datagram pays a chain walk.  Reordering
    them moves simulated results (registering ICMP first moves
    [repro compare]'s [incast/mutex+tcp2] p50 from 33.34 to
    33.33 ms). *)
