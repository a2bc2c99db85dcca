(** The x-kernel map manager.

    Maps translate external identifiers (port numbers, protocol numbers)
    to internal ones (sessions, protocols) and are primarily used for
    demultiplexing.  Implementation follows the paper: chained-bucket hash
    tables with a 1-behind cache, each guarded by a lock.  The x-kernel
    takes a counting lock there so that its map iterator may call back
    into the same map (Section 2.1); no protocol here iterates or
    re-enters a map, so there is no iterator and the lock is a plain
    {!Pnp_engine.Lock.t} (a raw mutex, as in the paper).

    Beyond the paper's fixed 32-bucket table, the map is sharded and
    growable so the demux layer scales into the 10^5..10^6-connection
    range: keys are spread over a power-of-two number of shards (low hash
    bits), each with its own lock, bucket array and 1-behind
    cache, and a shard doubles its buckets whenever its mean chain length
    would exceed a small constant.  A single-shard map (the default) is
    behaviourally identical to the classic layout, including its lock
    name and simulated costs.

    When the platform disables map locking, [lookup] skips the lock — the
    Section 3.1 experiment that measured the cost of demultiplexing
    serialisation (about 10% of receive-side throughput).  On that path
    the 1-behind cache and statistics are kept per thread, so the
    unlocked read writes no shared state. *)

module type KEY = sig
  type t

  val hash : t -> int
  val equal : t -> t -> bool
end

module Make (K : KEY) : sig
  type 'v t

  val create : Pnp_engine.Platform.t -> ?shards:int -> name:string -> unit -> 'v t
  (** [shards] (default 1) is rounded up to a power of two.  Each shard
      starts with the paper's 32 buckets and doubles them as it grows, so
      both the shard and the bucket index are mask extractions of the key
      hash. *)

  val insert : 'v t -> K.t -> 'v -> unit
  (** Bind (replacing any existing binding). *)

  val lookup : 'v t -> K.t -> 'v option
  (** Demultiplex through the 1-behind cache, then the chain. *)

  val remove : 'v t -> K.t -> bool

  val length : 'v t -> int

  (** {2 Statistics} *)

  val cache_hits : 'v t -> int

  val bucket_count : 'v t -> int
  (** Total buckets across all shards (grows as shards resize). *)

  val resizes : 'v t -> int
  (** Number of shard bucket-array doublings so far. *)
end
