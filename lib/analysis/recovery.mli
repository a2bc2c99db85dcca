(** End-to-end recovery oracle for fault-injected runs.

    The fault pipeline ({!Pnp_faults.Faults}) damages the wire on
    purpose; this checker decides whether the protocols above it
    {e recovered}.  Four families of verdicts, from the chaos harness's
    observations of one run:

    - {b Stream integrity}: every TCP byte stream delivered to a
      receiving application must equal the stream the sender wrote —
      same length, same {!digest} — and the connection must have reached
      a drained terminal state (no retransmission left unresolved, no
      frame still in flight).
    - {b Zero silent corruption}: every payload bit flip the pipeline
      injected must have been caught by an Internet checksum (IP header,
      TCP or UDP) before reaching the socket layer.  Checksum failures
      [>=] injections is required; an excess is legal (a corrupt frame
      can be counted once per fragment), a deficit means a damaged byte
      may have been delivered as data.
    - {b UDP accounting}: datagrams have no recovery, so every injected
      datagram must be accounted for exactly:
      [injected + duplicated = delivered + dropped_link + dropped_proto].
    - {b Liveness}: a run that hits its horizon without draining fails
      ([drained = false] in the stream observation).

    The oracle is pure: it inspects an {!obs} record assembled by the
    caller (the chaos harness or a test) and returns findings — an empty
    list is a clean bill of health. *)

type tcp_stream = {
  label : string;  (** e.g. ["chaos/loss/tcp"] — names the finding subject *)
  sent_bytes : int;
  received_bytes : int;
  sent_digest : int;
  received_digest : int;
  established : bool;  (** handshake completed *)
  drained : bool;
      (** terminal: sender closed, receiver saw EOF, nothing in flight *)
  rexmits : int;  (** informational, echoed into the liveness message *)
}

type corruption = {
  injected : int;  (** bit flips the pipeline applied *)
  caught : int;
      (** checksum rejections observed above the MAC layer, summed over
          IP header failures and TCP/UDP checksum failures at both ends *)
}

type udp_account = {
  injected : int;  (** datagrams offered to the link *)
  duplicated : int;  (** extra copies the pipeline created *)
  delivered : int;  (** datagrams handed to the receiving application *)
  dropped_link : int;  (** consumed by the fault pipeline *)
  dropped_proto : int;
      (** discarded above the wire: MAC filter, IP header/reassembly,
          UDP checksum or no-listener drops *)
  dropped_pressure : int;
      (** shed under resource pressure: rx-side [pool_pressure] drops at
          the link boundary ({!Pnp_driver.Link.pressure_drops}) *)
}

type obs = {
  run : string;  (** subject prefix, e.g. the plan name *)
  streams : tcp_stream list;
  corruption : corruption option;
  udp : udp_account option;
}

val digest : string -> int
(** Order-sensitive 64-bit FNV-1a digest of a byte stream, for comparing
    sent and received streams without retaining either. *)

val digest_add : int -> [> `R ] Pnp_util.Buf.t -> int -> int -> int
(** [digest_add h b off len] extends a running {!digest} [h] with the
    [len] bytes of [b] from [off]: feeding a stream's slices in delivery
    order gives the digest of the whole stream. *)

val check : obs -> Finding.t list
(** All recovery violations in the observation, sorted; [] = recovered. *)

(** {2 Overload oracle}

    Under deliberate resource exhaustion (incast fan-in, SYN floods,
    bounded mnode pools) flows are {e allowed} to end incomplete — the
    whole point of graceful degradation is shedding load instead of
    wedging.  What is never allowed is silent loss or corruption: every
    byte that reaches an application must be exactly the sender's byte,
    and every missing byte must be attributable to a named drop cause. *)

type overload_flow = {
  flow : string;       (** names the finding subject, e.g. ["flow/042"] *)
  accepted : bool;     (** connection reached ESTABLISHED *)
  completed : bool;    (** full stream delivered (FIN seen in order) *)
  sent_bytes : int;    (** bytes the sender committed to this flow *)
  received_bytes : int;
  received_digest : int;  (** {!digest} of the bytes as delivered *)
  expected_digest : int;
      (** {!digest} of the first [received_bytes] bytes of the flow's
          golden pattern — prefix exactness is checkable even for flows
          the overload cut short *)
}

(** Named drop causes summed over the run — the overload taxonomy
    ({!Pnp_driver.Link.fault_stats} for [link] and [pool_pressure],
    {!Pnp_proto.Tcp.syn_backlog_drops}, {!Pnp_proto.Tcp.total_sockbuf_drops},
    checksum discards of corrupted frames). *)
type overload_drops = {
  link : int;
  pool_pressure : int;
  syn_backlog : int;
  sockbuf_full : int;
  checksum : int;
}

type overload = {
  scenario : string;
  flows : overload_flow list;
  drops : overload_drops;
}

val total_drops : overload_drops -> int

val check_overload : overload -> Finding.t list
(** Violations, sorted; [] = degraded gracefully.  Checks per flow:
    delivered prefix is byte-exact against the golden pattern; a
    [completed] flow delivered every byte.  Globally: if any flow is
    incomplete, at least one named drop cause fired — zero silent loss. *)
