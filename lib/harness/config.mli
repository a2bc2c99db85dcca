(** Experiment configuration: one point of one of the paper's figures.

    The defaults reproduce the Section 3 baseline: the 8-CPU 100 MHz
    Challenge, IRIX mutex locks, a single connection, message caching on,
    LL/SC atomic reference counts, 4 KB packets, checksumming on. *)

type side = Send | Recv
type protocol = Udp | Tcp

type placement =
  | Connection_level
      (** each worker statically owns a subset of the connections (the
          paper's Figure 12 setup and its Section 8 future-work strategy) *)
  | Packet_level
      (** any worker may process any connection's next packet *)

type t = {
  arch : Pnp_engine.Arch.t;
  procs : int;
  side : side;
  protocol : protocol;
  payload : int;                         (** user bytes per packet *)
  checksum : bool;
  lock_disc : Pnp_engine.Lock.discipline; (** connection-state locks *)
  tcp_locking : Pnp_proto.Tcp.locking;
  scr_log_bound : int;
      (** [Scr] only: depth of the per-session packet-history log before
          truncation (see {!Pnp_proto.Tcp.config}); default 4096 *)
  assume_in_order : bool;
  ticketing : bool;
  refcnt_mode : Pnp_engine.Atomic_ctr.mode;
  message_caching : bool;
  map_locking : bool;
  connections : int;                     (** number of simultaneous connections *)
  placement : placement;
  steering : Pnp_driver.Steer.policy option;
      (** NIC packet steering for TCP receive: [None] (default) keeps the
          classic worker feeders; [Some Hash] statically assigns each
          connection's frames to one worker (RSS); [Some Last_sender]
          models Flow-Director-style affinity that follows the migrating
          application thread, reordering in-flight segments.  Steered
          runs use a single shared listen port with per-stream source
          addresses, so [connections] may go far beyond the port space *)
  demux_shards : int;
      (** shards per demux map ({!Pnp_xkern.Xmap}); 1 (default) is the
          classic single-lock map manager *)
  skew : float;
      (** Zipf exponent of the per-connection load (0 = uniform): the
          weight of connection j is 1/(j+1)^skew *)
  driver_jitter_ns : float;              (** mean per-packet driver service jitter *)
  offered_mbps : float option;
      (** receive-side offered load.  [None] (default) saturates: the
          drivers always have the next packet ready.  [Some rate] limits
          arrivals to [rate] Mbit/s in total, split over the connections
          by the Zipf weights — an arrival-limited workload that exposes
          load imbalance under connection-level placement *)
  loss_rate : float;
      (** Bernoulli per-segment loss applied by the in-memory peer on the
          TCP send side (0 = lossless, the default).  Drives the
          [ext-faults] goodput/retransmission figure; end-to-end fault
          plans over a real link use {!Pnp_faults.Faults} instead. *)
  cksum_under_lock : bool;
      (** compute TCP checksums inside the connection-state lock(s) — the
          unrestructured placement Section 5.1 argues against *)
  presentation : bool;
      (** add an XDR-style presentation-conversion pass per packet in the
          application (the Goldberg et al. workload Section 3.2 contrasts
          with plain checksumming) *)
  warmup : Pnp_util.Units.ns;
  measure : Pnp_util.Units.ns;
  seed : int;
}

val v :
  ?arch:Pnp_engine.Arch.t ->
  ?procs:int ->
  ?side:side ->
  ?protocol:protocol ->
  ?payload:int ->
  ?checksum:bool ->
  ?lock_disc:Pnp_engine.Lock.discipline ->
  ?tcp_locking:Pnp_proto.Tcp.locking ->
  ?scr_log_bound:int ->
  ?assume_in_order:bool ->
  ?ticketing:bool ->
  ?refcnt_mode:Pnp_engine.Atomic_ctr.mode ->
  ?message_caching:bool ->
  ?map_locking:bool ->
  ?connections:int ->
  ?placement:placement ->
  ?steering:Pnp_driver.Steer.policy ->
  ?demux_shards:int ->
  ?skew:float ->
  ?driver_jitter_ns:float ->
  ?offered_mbps:float ->
  ?loss_rate:float ->
  ?cksum_under_lock:bool ->
  ?presentation:bool ->
  ?warmup:Pnp_util.Units.ns ->
  ?measure:Pnp_util.Units.ns ->
  ?seed:int ->
  unit ->
  t
(** The Section 3 baseline (1 CPU, TCP send side, 4 KB, checksum on,
    packet-level placement) with overrides. *)

val side_to_string : side -> string

val disc_label : Pnp_engine.Lock.discipline -> string
(** ["mutex"], ["mcs"] or ["barging"], as every report prints a lock
    discipline. *)

val locking_label : Pnp_proto.Tcp.locking -> string
(** ["tcp1"], ["tcp2"], ["tcp6"], ["scr"] or ["rcu"]. *)

val describe : t -> string
