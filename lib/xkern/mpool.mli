(** MNode allocator: the memory behind the x-kernel message tool.

    MNodes are reference-counted buffers (the x-kernel analogue of mbuf
    clusters).  Reference counts are manipulated with the platform's
    counter mode — LL/SC atomics or lock-inc-unlock (Section 5.2).

    Allocation either goes to the global allocator, whose internal lock
    serialises all CPUs (malloc's lock in the paper), or — when the
    platform enables message caching (Section 6) — hits a per-thread LIFO
    free cache, which costs no locking and reuses memory last touched by
    the same processor.

    The per-thread caches are held in a tid-indexed array, so the alloc
    and free fast paths do a bounds check plus two array loads and never
    a hash-table lookup; the only non-O(1) step is the table growth the
    first time a new tid touches the pool ({!cache_table_growths} counts
    those, so tests can pin the fast path to zero table traffic). *)

type t
(** The allocator. *)

type mnode
(** A reference-counted buffer. *)

exception Out_of_mnodes of { requested : int; live : int; capacity : int }
(** Raised by {!alloc} when the pool is exhausted: [live] nodes are
    already out (per-thread caches hold only dead nodes, so they cannot
    help) and the pool was created with a bound of [capacity].  A real
    x-kernel returns [MSG_ERROR] here; in the simulator the exception
    propagates out of [Sim.run] so tests can assert on exhaustion
    instead of silently growing the heap without bound. *)

val create : ?capacity:int -> Pnp_engine.Platform.t -> t
(** [capacity] bounds the number of simultaneously live MNodes
    (default: unbounded).  Must be positive.

    A bounded pool's graceful-degradation threshold (see
    {!under_pressure}) is its soft watermark, [capacity / 2]; an
    unbounded pool never presses.  The gap between the watermark and the
    hard capacity is the protocol headroom budget: admission-controlled
    producers ({!await_headroom}) stop at the watermark, leaving room for
    protocol-internal transients (header pushes, ACK emission,
    retransmission) that must not block. *)

val alloc : t -> int -> mnode
(** [alloc t n] returns an MNode with capacity at least [n] and reference
    count 1.

    @raise Out_of_mnodes when [capacity] live nodes are already out. *)

(** {2 Graceful degradation} *)

val under_pressure : t -> bool
(** The pool is at or above its soft watermark.  Producers that can shed
    or defer load should do so while this holds. *)

val headroom : t -> int
(** Nodes left before hard capacity ([max_int] when unbounded). *)

val await_headroom : t -> unit
(** Admission control: block the calling simulated thread until the pool
    is below its soft watermark.  Returns immediately when not under
    pressure or when called outside a simulated thread.  Waiters are
    woken (in registration order) by the {!decref} that takes the pool
    back below the watermark; a waiter on a pool that never drains is a
    liveness stall, which the watchdog reports as a finding. *)

val pressure_entries : t -> int
(** Times the pool crossed the soft watermark upward. *)

val incref : t -> mnode -> unit
val decref : t -> mnode -> unit
(** Drop a reference; at zero the node returns to the caller's LIFO cache
    (if caching is on and the cache has room) or to the global allocator. *)

val data : mnode -> [ `R ] Pnp_util.Buf.t
(** The node's bytes, read-only. *)

val write : t -> mnode -> [ `R | `W ] Pnp_util.Buf.t
(** The node's bytes, writable: the only way to get them.  One call is
    one write: it moves the node's write generation (retiring its cached
    sum, below) and, under an enabled tracer, emits an [Mnode_write]
    event, which lets the arena lifetime sanitizer catch writes to dead
    or recycled nodes.

    Not covered by the type: a holder that keeps the buffer and stores
    into it after a sum of the node was cached leaves that sum stale.
    No code keeps one; each later write calls [write] again. *)

val capacity : mnode -> int
val refs : mnode -> int

(** {2 Checksum-sum memo}

    A one-slot per-node cache of the 16-bit one's-complement sum over a
    byte range of the node, validated by the write generation that
    {!write} moves.  Payloads shared via [Msg.dup] (driver templates,
    the TCP retransmission queue) are summed once, pattern fills at fill
    time, and then checksummed in O(1) — the host-side analogue of
    checksum offload.

    Purely a host-cost cache, and the only path: a hit returns exactly
    the sum a fresh scan would.  Goldens pin absolute outputs; memoised
    sums are checked against the scan ([Inet_cksum.sum_bytes] of
    [Msg.to_string]) in the codec tests. *)

val cached_sum : mnode -> off:int -> len:int -> int
(** The cached sum for exactly this range at the current generation, or
    [-1] (sums are 16-bit, so negative is free) on a miss. *)

val cache_sum : mnode -> off:int -> len:int -> int -> unit
(** Store the sum for this range at the current generation. *)

(** {2 Buffer arena}

    Host allocation policy for the bytes behind cached-class nodes: the
    pool draws buffers from per-class free lists and recycles them when a
    node's reference count reaches zero outside the simulated per-thread
    caches, instead of handing every global allocation a fresh
    [Bytes.create].  Every cached-class node draws from the arena and
    returns there; larger nodes are allocated exactly.  The simulated
    malloc/cache charges are untouched, so no output depends on the
    arena, and the goldens pin those outputs absolutely.

    Safety with retransmission-queue sharing: a buffer re-enters the free
    lists only at reference count zero, so a node still held anywhere —
    the rexmt queue's [Msg.dup], a reassembly queue, an in-flight frame —
    keeps its buffer; [Msg.unshare]'s copy-out escape hatch composes
    unchanged (the aliasing regression test pins this). *)

val quiesce : t -> unit
(** Reset-at-quiescence: drop recycled buffers beyond 64 per class back
    to the GC.  Call only when no simulated thread is
    running (between run phases, teardown); live nodes are unaffected. *)

val arena_hwm : t -> int
(** Peak bytes simultaneously inside live arena-drawn nodes — the arena
    high-water mark reported by the host profile. *)

val arena_out : t -> int
(** Bytes currently inside live arena-drawn nodes. *)

(** {2 Statistics (for the Section 6 experiment and tests)} *)

val allocations : t -> int
val cache_hits : t -> int
val global_allocations : t -> int
val live_nodes : t -> int
(** Nodes currently allocated (refcount > 0); zero after clean teardown. *)

val pool_capacity : t -> int
(** The bound given at creation ([max_int] when unbounded). *)

val cache_table_growths : t -> int
(** Times the tid-indexed cache table had to grow (a new tid beyond the
    table's capacity touched the pool).  Steady-state allocation and
    free must not move this counter: the hot path is array indexing
    only.  Regression tests assert it stays flat across alloc/free
    bursts once every thread has touched the pool. *)

val thread_caches : t -> int
(** Threads with a cache: a thread's cache is made when it first uses the pool. *)
