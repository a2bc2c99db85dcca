(** Deterministic discrete-event simulator with direct-style threads.

    The simulator stands in for the paper's shared-memory multiprocessor:
    each simulated thread is wired to a processor (exactly the paper's
    one-thread-per-CPU configuration), and protocol code runs as ordinary
    OCaml inside those threads, suspending on OCaml 5 effects whenever it
    blocks on a synchronisation object.  Consuming simulated time mostly
    does not suspend: the delaying thread runs the events due before its
    wake-up itself (see {!delay}).

    The event loop is single-threaded at the host level; all concurrency is
    simulated, which is what makes lock-grant order, packet misordering and
    contention measurable and reproducible. *)

type t
(** A simulation world. *)

type thread
(** A simulated thread. *)

val create : ?seed:int -> unit -> t
(** Fresh world at time 0.  [seed] initialises the world's PRNG (used by
    unfair lock grants and workload jitter). *)

val now : t -> Pnp_util.Units.ns
(** Current simulated time. *)

val prng : t -> Pnp_util.Prng.t
(** The world's deterministic random stream. *)

val tracer : t -> Trace.t
(** The world's event tracer (disabled by default).  The simulator emits
    thread spawn, fork, exit and join events; synchronisation objects
    and the protocol layers add theirs.  Enabling it never consumes
    simulated time, so traced and untraced runs of the same seed are
    identical. *)

val trace : t -> Trace.ev -> unit
(** [trace t ev] emits [ev] as the running thread, at the current time.
    A no-op when tracing is off or no thread is running.  Callers whose
    event costs an allocation to build test {!Trace.enabled} first. *)

val spawn : t -> ?cpu:int -> name:string -> (unit -> unit) -> thread
(** [spawn t ~cpu ~name body] creates a thread wired to processor [cpu]
    (default: a fresh CPU number) that starts running at the current time.
    The body may call {!delay}, {!suspend} and the blocking operations of
    {!Lock}, {!Gate} and {!Membus}. *)

val at : t -> Pnp_util.Units.ns -> (unit -> unit) -> unit
(** [at t time f] schedules the callback [f] at absolute [time].  Callbacks
    run outside any thread and must not block. *)

val after : t -> Pnp_util.Units.ns -> (unit -> unit) -> unit
(** Relative variant of {!at}. *)

val run : ?until:Pnp_util.Units.ns -> t -> unit
(** Process events in time order.  With [until], stop as soon as the next
    event would fire strictly after that time (the clock is then set to
    [until]); without it, run until the event queue drains. *)

val stop : t -> unit
(** Ask {!run} to return after the current event. *)

(** {2 Operations usable only inside a spawned thread} *)

val self : t -> thread
(** The currently running thread.  @raise Failure outside a thread. *)

val in_thread : t -> bool
(** Whether the caller is executing inside a simulated thread.  Setup code
    (building packet templates, initialising state) runs outside and must
    not be charged simulated time. *)

val delay : t -> Pnp_util.Units.ns -> unit
(** Consume simulated time: the calling thread resumes [d] later.  It
    does not suspend to let the events due before its wake-up run: it
    takes the (time, seq) place its resume event would have had, runs
    every queued event ordered before that place itself (as the event
    loop would, outside any thread), and then advances the clock in
    place.  With nothing due, that is just the clock advance.  It
    suspends only outside a thread, after {!stop}, when the wake-up lies
    past [run]'s [until], or, when it was itself resumed inside another
    thread's wait, when its wake-up is not strictly before that
    thread's.  The event order, {!events_processed} and the trace
    records are the same either way.  An exception raised by an event
    run inside the wait escapes {!run} with the waiting thread still
    suspended, its frames intact. *)

val suspend : t -> ((Pnp_util.Units.ns -> unit) -> unit) -> unit
(** [suspend t register] blocks the calling thread.  [register] receives a
    one-shot [resume] function; whoever holds it may later call
    [resume time] to schedule the thread to continue at absolute [time]. *)

val yield : t -> unit
(** Reschedule the calling thread at the current time, letting other
    pending events at this instant run first: a {!delay} of zero that
    counts as an event, with the same wait in place. *)

(** {2 Deferred charging}

    State-compute replication replays logged protocol work in place: the
    applying thread must run a whole processing section host-atomically
    (no interleaving with other simulated threads) while still learning
    what the section {e would} have cost in simulated time.  Between
    {!defer_begin} and {!defer_end}, {!delay} accumulates its durations
    into a counter instead of advancing the clock (and {!yield} is a
    no-op); {!defer_end} returns the accumulated nanoseconds so the
    caller can charge them explicitly — on its own clock, or on another
    thread's, or never (a replica replaying an entry a peer already paid
    for).  Blocking is a programming error inside a deferred section:
    {!suspend} raises.  Sections do not nest. *)

val defer_begin : t -> unit
(** Start accumulating {!delay} charges instead of consuming time.
    @raise Invalid_argument if a deferred section is already active. *)

val defer_end : t -> Pnp_util.Units.ns
(** End the deferred section and return the accumulated simulated cost.
    @raise Invalid_argument if no deferred section is active. *)

val defer_active : t -> bool

(** {2 Thread accessors} *)

val tid : thread -> int

val thread_of_tid : t -> int -> thread
(** The thread with the given {!tid}.  @raise Invalid_argument when no
    thread of the world has it. *)

val cpu : thread -> int
val thread_name : thread -> string
val is_finished : thread -> bool

val note_wait : thread -> Pnp_util.Units.ns -> unit
(** Attribute [d] of blocked time to the thread (locks call this; the
    harness reads it back for the Section 3 lock-wait profile). *)

val wait_ns : thread -> Pnp_util.Units.ns
(** Total blocked time recorded with {!note_wait}. *)

val events_processed : t -> int
(** Number of events executed so far (observability / debugging). *)

(** {2 Diagnostics}

    When [run] returns with the event queue drained but threads still
    blocked, something is deadlocked (or waiting on a resume that will
    never come); these report the suspects. *)

val blocked_threads : t -> thread list
(** Threads that are suspended with no scheduled resumption, in spawn
    (tid) order. *)

val pp_blocked : Format.formatter -> t -> unit
