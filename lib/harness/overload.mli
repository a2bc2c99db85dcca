(** Heavy-traffic overload scenarios over a real link: incast fan-in and
    a shared-bottleneck fairness workload, watched for liveness and
    checked against the {!Pnp_analysis.Recovery.check_overload} oracle.

    Both scenarios use one client stack and one server stack joined by a
    single {!Pnp_driver.Link} — the link {e is} the shared bottleneck, as
    in the classic incast topology (N sources funnelling into one
    receiver port).  Each of the N flows is a full TCP connection from
    its own client port to the server's port 80, so the server's sharded
    demux map carries N+1 entries and every handshake, segment and FIN
    crosses the (optionally faulted) wire.

    A {!Pnp_engine.Watchdog} is armed for the whole run: progress is
    bytes delivered + connections established + accounted drops +
    retransmissions, so a world that is shedding load or retransmitting
    is {e live}; only a world doing none of these stalls, which stops
    the run and becomes a finding instead of a hang.  Completion of
    every flow stops the run early (termination detection), so generous
    horizons cost nothing on healthy runs.

    An outcome with [findings = []] means the run degraded gracefully:
    every delivered byte prefix was byte-exact against the flow's golden
    pattern, every completed flow delivered everything, and any
    incomplete flow is covered by a named drop cause. *)

type flow = {
  id : int;
  mutable established : bool;
  mutable completed : bool;
  mutable received : int;
  mutable digest : int;
  mutable start_ns : int;   (** when the client began its connect, -1 if never *)
  mutable done_ns : int;    (** when the stream finished at the server, -1 *)
}

type outcome = {
  scenario : string;
  senders : int;
  bytes_per_flow : int;
  plan_name : string;        (** fault plan on the link *)
  accepted : int;            (** connections that reached ESTABLISHED *)
  completed : int;           (** flows fully delivered (FIN in order) *)
  elapsed_ns : int;          (** simulated time when the run ended *)
  goodput_mbps : float;      (** delivered application bytes over [elapsed_ns] *)
  fairness : float;          (** {!Report.jain} over per-flow delivered bytes *)
  completion_ns : (int * int) list;
      (** (flow id, connect-to-done latency) for completed flows, id order *)
  drops : Pnp_analysis.Recovery.overload_drops;  (** the named-cause taxonomy *)
  rexmits : int;             (** client-side TCP retransmissions *)
  pool_pressure_entries : int;
      (** times either stack's pool crossed its soft watermark *)
  stalls : Pnp_engine.Watchdog.stall list;
  findings : Pnp_analysis.Finding.t list;
      (** oracle + watchdog findings; [] = degraded gracefully *)
}

val golden : seed:int -> flow:int -> bytes:int -> string
(** The first [bytes] bytes of flow [flow]'s golden stream: printable
    (32..126), a pure function of its arguments, and different for
    different flows and seeds. *)

val send_chunked : Pnp_proto.Socket.t -> string -> unit
(** Write a stream to a connected socket as 1000-byte
    {!Pnp_proto.Socket.send_string} chunks (the last one shorter). *)

val caught_checksums : Pnp_driver.Stack.t -> Pnp_driver.Stack.t -> int
(** Frames the two stacks rejected on a bad IP header, TCP or UDP
    checksum: the corruption a faulted link injected and the stacks
    caught. *)

val max_senders : int
(** Largest fan-in a world accepts: every sender needs its own client
    port. *)

val incast :
  ?plan:Pnp_faults.Faults.plan ->
  ?senders:int ->
  ?bytes_per_flow:int ->
  ?seed:int ->
  ?sb_policy:Pnp_proto.Sockbuf.policy ->
  ?pool_capacity:int ->
  ?lock_disc:Pnp_engine.Lock.discipline ->
  ?tcp_locking:Pnp_proto.Tcp.locking ->
  ?horizon:Pnp_util.Units.ns ->
  unit ->
  outcome
(** Synchronized fan-in: all [senders] (default 32, tested to 10^3)
    connect at the same instant — the listener's SYN backlog is 16, so
    a burst of more senders overruns it and is recovered by SYN
    retransmission — then each pushes [bytes_per_flow] (default 2048)
    over the shared 100 Mbit/s link.  The server's demux map has 8
    shards; [pool_capacity] (default unbounded) turns on mnode admission
    control; [horizon] (default 600 s) caps the simulated run.  [lock_disc] (default unfair
    mutex) and [tcp_locking] (default TCP-1) pick the lock discipline
    and the per-connection parallelization for both stacks, so the
    overload matrix can sweep the lock ladder and the SCR/RCU
    disciplines ({!Compare}). *)

val shared_bottleneck :
  ?plan:Pnp_faults.Faults.plan ->
  ?senders:int ->
  ?seed:int ->
  ?sb_policy:Pnp_proto.Sockbuf.policy ->
  ?pool_capacity:int ->
  ?lock_disc:Pnp_engine.Lock.discipline ->
  ?tcp_locking:Pnp_proto.Tcp.locking ->
  unit ->
  outcome
(** Steady fairness workload: [senders] (default 8) long flows of
    40 kB each join 2 ms apart (under a SYN backlog of 128) and share a
    40 Mbit/s link, so the interesting number is [fairness] — how evenly TCP divides the
    bottleneck — and the completion-latency spread, not raw goodput. *)

val completion_ms : float -> outcome -> float
(** [completion_ms p o] is the nearest-rank [p]-th percentile
    ({!Report.percentile}) of the completed flows' connect-to-done
    latency, in ms; 0 when no flow completed. *)

val passed : outcome -> bool
(** [findings = []]. *)

val to_line : outcome -> string
(** One fixed-width summary line (deterministic; safe to diff across
    [-j]). *)
