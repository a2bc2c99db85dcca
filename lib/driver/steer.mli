(** NIC packet steering: picks the receive worker that carries each
    arriving frame up the stack.

    [Hash] is RSS-style static assignment (a connection's frames always
    land on the same worker, so they climb the stack serially and in
    order).  [Last_sender] is Flow-Director-style affinity: a flow
    follows the core its application thread last ran on, and because the
    affinity flaps while earlier frames are still queued on the old
    core, two workers end up holding consecutive segments of one
    connection concurrently — the reordering mechanism of "Why Does Flow
    Director Cause Packet Reordering?" (see PAPERS.md).

    Each arrival is handed to a caller-supplied reservation function the
    moment the NIC generates it, under the NIC's demux lock, so segment
    identities (sequence numbers) are pinned strictly in arrival order;
    what a queue holds is the reservation token ['a].  Delivery order is
    whatever order the workers drain their queues — under [Last_sender]
    that is where the reordering comes from.

    The arrival stream is deterministic: traffic walks a sliding hot
    window of connections in short bursts, and arrivals are generated
    lazily as workers poll.  No wall clock, no unseeded randomness. *)

type policy = Hash | Last_sender

val policy_to_string : policy -> string

type 'a t

val create :
  Pnp_engine.Platform.t -> policy:policy -> workers:int -> conns:int -> unit -> 'a t
(** 64 connections (or [conns], if fewer) are hot at a time; each gets 4
    consecutive frames; under [Last_sender] every second burst migrates
    its connection's affinity mid-burst.  Each worker's ring holds at
    most 16 reserved frames: arrivals steered to a full ring are dropped
    {e before} reserving, so no sequence number is pinned for them and
    the stream stays hole-free — the finite ring is what bounds both the
    backlog and the reorder window.  Raises [Invalid_argument] unless
    [workers] and [conns] are positive. *)

val next : 'a t -> worker:int -> reserve:(conn:int -> 'a option) -> 'a option
(** The next reserved frame steered to [worker].  An empty queue pulls
    the global arrival stream forward under the demux lock, calling
    [reserve] once per generated arrival (in arrival order) and routing
    each token to its policy-assigned worker's queue; [reserve]
    returning [None] (closed window, unestablished stream) drops that
    arrival.  [None] overall when the bounded pull produced nothing for
    this worker — it should idle briefly and retry. *)
