(** A simulated full-duplex point-to-point link between two complete
    stacks.

    Unlike the in-memory drivers of the paper's experiments (which play
    the role of an infinitely fast peer), a link connects two {e real}
    stacks: both ends run the full protocol machinery, the handshake and
    every acknowledgement crosses the wire, and the link itself models
    propagation latency, serialisation at a finite bandwidth, and an
    arbitrary fault pipeline ({!Pnp_faults.Faults.plan}): loss (uniform
    and bursty), duplication, bounded reordering, checksum-detectable
    payload corruption, delay jitter and timed blackouts.  This is the
    configuration a user of the library would deploy.

    Frames are delivered to each end by a per-direction receive thread
    (the "interrupt context"), so protocol input runs in a context that
    may take locks.  When tracing is enabled, every pipeline action is
    emitted as a [Trace.Fault_*] event, so retransmissions seen later in
    the trace are attributable to the injected fault that caused them. *)

type t

val connect :
  Pnp_engine.Platform.t ->
  ?latency:Pnp_util.Units.ns ->
  ?bandwidth_mbps:float ->
  ?plan:Pnp_faults.Faults.plan ->
  a:Stack.t ->
  b:Stack.t ->
  unit ->
  t
(** Wire the two stacks together (replaces both FDDI transmit hooks).
    Defaults: 50 us propagation latency, 100 Mbit/s serialisation, no
    faults ([?plan] is the empty plan; {!Pnp_faults.Faults.bernoulli}
    gives uniform loss).  Each direction instantiates its own pipeline
    with independent PRNG streams split off the simulation's seed, so a
    faulted run replays byte-identically for a fixed seed.  Both stacks
    must share [plat]'s simulation. *)

val frames_ab : t -> int
(** Frames {e offered} to the a->b direction, i.e. counted before the
    fault pipeline — dropped and corrupted frames are included. *)

val frames_ba : t -> int
(** Same for b->a. *)

val dropped : t -> int
(** Frames consumed by the pipeline (both directions, all causes: uniform
    loss + burst loss + blackout windows).  Corrupted frames are {e not}
    counted here: they are delivered damaged and discarded above the MAC
    layer by an Internet checksum, where the protocol's own
    [checksum_failures] counters account for them. *)

val pressure_drops : t -> int
(** Frames shed at the receive side (both directions) because the
    destination stack's mnode pool lacked the headroom to process them —
    the [pool_pressure] cause.  Unlike the pipeline causes these are not
    injected faults: they are the link degrading gracefully instead of
    letting receive processing raise [Out_of_mnodes].  TCP's
    retransmission machinery recovers the shed data. *)

(** Cumulative pipeline accounting summed over both directions.  [offered]
    equals [frames_ab + frames_ba]; [dropped] splits by cause into
    [dropped_loss] (Bernoulli), [dropped_burst] (Gilbert-Elliott) and
    [dropped_blackout]; [duplicated] counts extra copies injected (each
    also adds to [offered]'s deliveries but not to [offered] itself).

    [dropped_pool_pressure] counts rx-side sheds under destination-pool
    pressure; it is {e not} included in [dropped] (those are pipeline
    consumptions on the transmit side).  The full overload drop-cause
    taxonomy a recovery oracle must balance is: link-level
    [loss]/[burst]/[blackout]/[pool_pressure] (here), protocol-level
    [syn_backlog] ({!Pnp_proto.Tcp.syn_backlog_drops}) and
    [sockbuf_full] ({!Pnp_proto.Tcp.total_sockbuf_drops},
    {!Pnp_proto.Udp} send-side pressure sheds), plus checksum discards
    of corrupted-but-delivered frames. *)
type fault_stats = {
  offered : int;
  dropped : int;
  dropped_loss : int;
  dropped_burst : int;
  dropped_blackout : int;
  dropped_pool_pressure : int;
  corrupted : int;
  duplicated : int;
  reordered : int;
  delayed : int;
}

val fault_stats : t -> fault_stats

val plan_name : t -> string
(** Name of the effective fault plan both directions run. *)

val in_flight : t -> int
(** Frames queued or propagating in either direction. *)
