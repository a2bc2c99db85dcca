(** Parallelised TCP, after the paper's Net/2-derived implementation.

    The protocol machinery is real: 32-bit sequence arithmetic, header
    prediction, a reassembly queue for out-of-order segments, the send
    socket buffer doubling as the retransmission queue, slow start and
    congestion avoidance, Jacobson RTT estimation, and BSD-style fast
    (200 ms) and slow (500 ms) timers driven by the timing wheel.  Nagle's
    algorithm is always on (there is no TCP_NODELAY), and the send socket
    buffer is fixed at 1 MB.

    Five per-connection parallelization disciplines are provided — the
    paper's lock ladder (Section 5.1) plus two that step off it:

    - [One]: a single lock protects all connection state (the baseline,
      and the paper's winner).
    - [Two]: one lock for send-side state, one for receive-side state;
      header prediction must take both.
    - [Six]: the SICS MP-TCP style — separate locks for the reassembly
      queue, the retransmission buffer, header prepend, header remove,
      send window and receive window; checksums are computed while the
      header locks are held, as in that implementation.
    - [Scr]: state-compute replication — no connection-state lock at
      all.  Every arriving segment is appended to a per-session
      sequence-stamped packet-history log; entries apply to the
      authoritative state in log order as host-atomic sections whose
      simulated cost ([Costs] charges, lock instructions, bus traffic)
      is measured and charged on the owning thread's clock, and each
      thread's state replica catches up by replaying the log tail at
      {!Pnp_proto.Costs.scr_replay_per_entry} per foreign entry instead
      of blocking.  The log is bounded ([scr_log_bound]); a replica that
      falls behind a truncation pays {!Pnp_proto.Costs.scr_resync}.
      Per-packet work is F + (K-1)·r for K threads, against the locked
      disciplines' serialized F — redundant compute traded for the lock
      wait the paper measures at 85-90% of time at 8 CPUs.
    - [Rcu]: a read-mostly hybrid — mutating segments serialize on a
      writer lock that publishes an immutable snapshot of the
      reader-visible fields at each release, and segments the snapshot
      proves to be no-ops (stale pure acks, fully duplicate data) are
      answered without taking any lock.

    Segment checksums for [One]/[Two] are computed {e outside} any
    connection-state lock, the restructuring Section 5.1 describes.

    When [ticketing] is enabled, a receiving thread takes an up-ticket for
    the layer above before releasing connection state and waits for its
    turn before making the application upcall (Section 4.2), so the
    application sees packets in order at the cost of serialising the
    upcall path.

    [assume_in_order] reproduces the Figure 10 upper bound: every arriving
    data segment is treated as if its sequence number were the expected
    one. *)

type locking = One | Two | Six | Scr | Rcu

type config = {
  locking : locking;
  checksum : bool;
  cksum_under_lock : bool;
      (** ablation: checksum while holding the connection-state lock(s),
          the placement Section 5.1's restructuring removed *)
  assume_in_order : bool;
  ticketing : bool;
  mss : int;            (** maximum segment payload *)
  rcv_wnd : int;        (** advertised receive window (32-bit, Section 2.2) *)
  syn_backlog : int;
      (** maximum half-open (SYN_RCVD) children per listener; a SYN that
          arrives with the backlog full is shed as an accounted drop
          ({!syn_backlog_drops}) and recovered by the peer's SYN
          retransmission.  [0] disables the bound. *)
  sb_policy : Sockbuf.policy;
      (** send-buffer overflow policy: [Block] parks the sender (BSD
          so_snd semantics, plus pool admission control — {!send} waits
          for mnode headroom under pool pressure); [Drop] sheds the
          overflowing message as an accounted [sockbuf_full] drop and
          never blocks. *)
  scr_log_bound : int;
      (** [Scr] only: packet-history log depth.  Older entries truncate
          once the log outgrows this bound; a replica whose high
          watermark predates the truncation must resynchronise from the
          authoritative snapshot instead of replaying.  Must be at
          least 2. *)
}

val default_config : config
(** TCP-1, checksum on, 4096-byte MSS, 1 MB receive window, no
    ticketing, SYN backlog 128, blocking send buffer. *)

type t
type session

type stats = {
  mutable segs_in : int;
  mutable segs_out : int;
  mutable acks_in : int;        (** dataless segments carrying only an ACK *)
  mutable acks_out : int;
  mutable bytes_in : int;       (** payload bytes delivered to the application *)
  mutable bytes_out : int;      (** payload bytes accepted from the application *)
  mutable ooo_segs : int;       (** data segments arriving with seq <> rcv_nxt *)
  mutable pred_hits : int;
  mutable pred_misses : int;
  mutable rexmits : int;
  mutable reass_inserts : int;
  mutable persist_probes : int; (** zero-window probes sent by the persist timer *)
}

val create :
  Pnp_engine.Platform.t ->
  Pnp_xkern.Mpool.t ->
  wheel:Pnp_xkern.Timewheel.t ->
  ip:Ip.t ->
  config ->
  name:string ->
  t

val shutdown : t -> unit
(** Stop rescheduling the protocol timers (lets a simulation drain). *)

val fasttimo : t -> unit
(** One 200 ms tick: send every pending delayed ACK, newest session
    first.  The timing wheel runs it.  {!shutdown} before the first open
    keeps the wheel from ever scheduling a tick, and a test can then
    drive ticks by hand from a simulated thread. *)

val slowtimo : t -> unit
(** One 500 ms tick: count down the retransmit, persist and 2MSL timers
    of every session with one armed, newest session first, firing those
    that expire.  Driven like {!fasttimo}. *)

val msl_ticks : int
(** Slow-timeout ticks a [TIME_WAIT] session waits before [CLOSED]. *)

val connect :
  ?iss:int -> t -> local_port:int -> remote_addr:int -> remote_port:int -> session
(** Active open.  Blocks the calling thread until the connection is
    established.  Must be called from a simulated thread.  [iss] overrides
    the initial send sequence number (tests use it to exercise 32-bit
    wraparound). *)

val listen : t -> local_port:int -> accept:(session -> unit) -> unit
(** Passive open.  [accept] is called (from the thread processing the SYN,
    with no connection locks held... before the SYN-ACK is sent) for each
    new connection, so the receiver can be attached before data arrives. *)

val close_listener : t -> local_port:int -> bool
(** Stop listening on [local_port]: removes the accept callback and the
    wildcard demux entry (established children are untouched).  Further
    SYNs to the port are dropped.  [false] if nothing was listening. *)

val remote_endpoint : session -> int * int
(** (remote address, remote port) of the session's connection key — lets
    a shared-listen-port accept callback recover which simulated peer
    stream the child belongs to. *)

val set_receiver : session -> (Pnp_xkern.Msg.t -> unit) -> unit
(** Attach the application upcall for payload delivery.  The upcall owns
    the message.  With [ticketing] the upcall runs inside the session's
    ordering gate. *)

val set_fin_handler : session -> (unit -> unit) -> unit
(** Upcall invoked (outside connection locks) when the peer's FIN has been
    received in order — i.e. end of the inbound stream.  May fire more
    than once if the FIN is retransmitted. *)

val ticket_gate : session -> Pnp_engine.Gate.t option
(** The session's ordering gate (wait statistics, tickets issued) under
    [ticketing]; [None] without it, which never creates one. *)

val send : session -> Pnp_xkern.Msg.t -> unit
(** Queue payload and transmit as the window allows.  Takes ownership of
    the message.  Under the [Block] policy it blocks while the send
    buffer is full and, as admission control, while the mnode pool is
    above its soft watermark; under [Drop] it never blocks — an
    overflowing message is destroyed and counted ({!total_sockbuf_drops}). *)

val close : session -> unit
(** Send FIN.  Does not block for the full close handshake. *)

val state_name : session -> string
val stats : session -> stats
val sessions : t -> session list
(** Every session ever registered (active opens and accepted children),
    newest first. *)

val checksum_failures : t -> int
(** Segments discarded because checksum verification failed (any locking
    discipline).  The fault-injection recovery oracle balances this
    against the corruptions the link pipeline injected. *)

val syn_backlog_drops : t -> int
(** SYNs shed because a listener's half-open backlog was full
    ([syn_backlog] cause in the overload taxonomy). *)

val total_sockbuf_drops : t -> int
(** Messages shed by the [Drop]-policy send buffers of every session of
    this protocol ([sockbuf_full] cause). *)

val lock_wait_ns : session -> Pnp_util.Units.ns
(** Total time threads spent waiting on this session's state lock(s) — the
    paper's Pixie observation (85-90% of time at 8 CPUs). *)

val snd_nxt : session -> int

type scr_counters = {
  scr_appends : int;       (** log entries appended (= segments logged) *)
  scr_replayed : int;      (** redundant entries replicas replayed *)
  scr_resyncs : int;       (** replica bootstraps + post-truncation resyncs *)
  scr_truncations : int;   (** times the bounded log discarded history *)
  scr_max_depth : int;     (** deepest live log observed *)
}

val scr_counters : session -> scr_counters option
(** The session's SCR log counters; [None] unless [locking = Scr]. *)

val rcu_reads : session -> int option
(** Segments answered without the writer lock; [None] unless
    [locking = Rcu]. *)
