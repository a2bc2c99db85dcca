(** Simulated locks with the two grant disciplines the paper compares.

    [Unfair] models the raw IRIX mutex of Section 4.1: uncontended acquire
    costs 0.7 us (on the Challenge), and when the holder releases, the lock
    is granted to an {e arbitrary} waiter — the paper observes that these
    locks are not FIFO, which is exactly what reorders packets inside TCP.

    [Fifo] models the MCS queue lock (Mellor-Crummey & Scott): more
    expensive uncontended (1.5 us) but contended grants happen in arrival
    order, preserving packet order.

    On [Coherency]-synchronised architectures (the Challenge), moving a
    lock between CPUs additionally pays the cache-line migration penalty
    [arch.coherency_ns]; the Power Series' synchronisation bus does not.

    Inside a deferred-charge section ({!Sim.defer_begin}, the SCR replay)
    [acquire] only charges its cost and [release] does nothing: a
    replica's lock operations are local, so they never touch the owner.

    The paper's map manager takes counting locks so that its map
    iterator may call back into the same map (Section 2.1).  No protocol here
    iterates or re-enters a map, so the counting semantics cannot be
    observed, and map shards take these plain locks. *)

type discipline =
  | Unfair  (** IRIX mutex: grant to a random waiter *)
  | Fifo    (** MCS queue lock: grant in arrival order *)
  | Barging (** test-and-set spinlock where the most recent arrival wins
                (LIFO) — an ablation point between Unfair and Fifo *)

val discipline_name : discipline -> string
(** ["unfair"], ["fifo"] or ["barging"]: the trace's lock-table spelling. *)

type t

val create : Sim.t -> Arch.t -> discipline -> name:string -> t

val acquire : t -> unit
(** Block until the lock is held by the calling thread, charging the
    discipline's acquire cost (plus handoff and coherency costs when
    contended or migrating between CPUs). *)

val release : t -> unit
(** Release; if waiters exist, grant per the discipline.  Must be called by
    the owner.
    @raise Invalid_argument when the caller does not own the lock; the
    message names the lock, the caller's tid and thread name and the
    owner's (or says "not held"). *)

val with_lock : t -> (unit -> 'a) -> 'a
(** [with_lock t f] = acquire; run [f]; release — releasing on exceptions. *)

val name : t -> string
(** The name given to {!create}. *)

val owner : t -> int
(** The owning thread's tid; -1 while free.  Inside a deferred-charge
    section [acquire] takes no ownership, so this does not change. *)

(** {2 Statistics} *)

val acquisitions : t -> int
val contended_acquisitions : t -> int
val total_wait_ns : t -> Pnp_util.Units.ns
val total_hold_ns : t -> Pnp_util.Units.ns
