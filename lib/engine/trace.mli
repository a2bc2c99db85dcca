(** Low-overhead typed event tracing for the simulator.

    The paper's evidence is *attribution*: knowing that threads wait is
    not enough, one must see which lock they wait on, in what order
    grants happen, and how a particular packet travelled the stack.
    Every synchronisation object in the engine (and the message pool and
    TCP above it) emits typed events here when tracing is enabled.

    Tracing is {e off by default} and must stay near-zero cost when off:
    every emitter guards on {!enabled} before even constructing its
    event, so a disabled tracer costs one mutable-field read per
    potential event.  Events never consume simulated time, so enabling
    tracing cannot perturb the simulation — traces are deterministic
    under a fixed seed.

    Timestamps are simulated nanoseconds; [tid]/[cpu] identify the
    simulated thread that emitted the event ([-1] outside any thread). *)

(** Phases of a packet's journey through the receive path, keyed by TCP
    sequence number so a misordered segment is visible end to end. *)
type pkt_phase =
  | Enqueue   (** driver handed the segment to a worker (in seq order) *)
  | Ip        (** entered TCP input demultiplexing from IP *)
  | Lock_wait (** waiting on the connection-state lock(s) *)
  | Tcp_input (** TCP segment processing under the state lock *)
  | Upcall    (** delivery to the application above TCP *)

type ev =
  | Thread_spawn of { name : string }
      (** recorded with the {e child}'s tid at spawn time *)
  | Thread_fork of { child : int }
      (** recorded with the {e parent}'s tid when the spawn happened from
          inside a simulated thread: the happens-before edge from the
          parent's past to everything the child does *)
  | Thread_exit
      (** the thread's body returned; its last event.  Only the Chrome
          export reads it: no simulated thread waits for another's
          completion, so fork is the checkers' only thread edge. *)
  | Lock_request of { lock : string; waiters : int }
      (** [waiters] = queue depth seen at request time *)
  | Lock_grant of { lock : string; waiters : int; wait_ns : int }
      (** emitted by the grantee; [wait_ns] = 0 when uncontended *)
  | Lock_handoff of { lock : string; to_tid : int; handoff_ns : int }
      (** emitted by the releaser when passing to a waiter *)
  | Lock_release of { lock : string; hold_ns : int }
  | Gate_take of { gate : string; ticket : int }
  | Gate_pass of { gate : string; ticket : int; wait_ns : int }
  | Gate_advance of { gate : string; serving : int }
      (** emitted by the advancing thread {e before} the next ticket
          holder resumes: the signal half of the gate's signal→wait
          happens-before edge ({!Gate_pass} is the wait half) *)
  | Membus_charge of { bytes : int; dur_ns : int }
  | Mpool_alloc of { hit : bool }
  | Mnode_alloc of { node : int }
      (** an MNode left the allocator (fresh or re-armed from a
          per-thread cache) with reference count 1 *)
  | Mnode_ref of { node : int; refs : int }
      (** reference count incremented; [refs] is the new count *)
  | Mnode_unref of { node : int; refs : int }
      (** reference count decremented; [refs] is the new count — 0 means
          the node died here *)
  | Mnode_recycle of { node : int }
      (** the dead node's arena buffer returned to the free lists; any
          later touch of the node is a write-after-recycle *)
  | Mnode_write of { node : int }
      (** the node's bytes were handed out writable ([Mpool.write]); the
          arena lifetime sanitizer flags writes to dead or recycled
          nodes *)
  | Span_begin of { seq : int; phase : pkt_phase }
  | Span_end of { seq : int; phase : pkt_phase }
  | Access of { state : string; write : bool }
      (** A read or write of a named piece of shared state, annotated by
          the engine/protocol layers at the access site.  The lockset
          checker ({!Pnp_analysis.Lockset}) intersects the locks held at
          each access; identifiers use a ["owner#field"] convention to
          keep them distinct from lock names. *)
  | Fault_drop of { cause : string }
      (** the link's fault pipeline consumed a frame; [cause] is the
          stage's label (["loss"], ["burst"], ["blackout"]) *)
  | Fault_dup of { copies : int }
      (** the pipeline injected [copies] extra copies of a frame *)
  | Fault_corrupt of { off : int; bit : int }
      (** bit [bit] of frame byte [off] was flipped on the wire; the
          recovery oracle demands a checksum failure accounts for it *)
  | Fault_reorder of { delay_ns : int }
      (** a frame was held back [delay_ns] so later traffic overtakes it *)
  | Scr_append of { log : string; idx : int }
      (** entry [idx] was appended to the SCR packet-history log — the
          release half of the log's append→replay happens-before edge *)
  | Scr_apply of { log : string; idx : int }
      (** a thread began applying entry [idx] to the replicated state;
          the acquire half of the append→replay edge.  Applying an index
          beyond the appended tail is a replication-protocol defect the
          happens-before checker flags directly. *)
  | Scr_apply_end of { log : string; idx : int }
      (** the apply section for entry [idx] finished; apply sections are
          host-atomic, so lockset analysis treats [log] as a lock held
          between {!Scr_apply} and {!Scr_apply_end} *)
  | Scr_replay of { log : string; upto : int }
      (** a replica caught its high watermark up to [upto], paying the
          per-entry redundant-replay cost *)
  | Rcu_read of { state : string }
      (** a lock-free reader classified a segment as a no-op against the
          published snapshot and answered it without the writer lock *)
  | Rcu_publish of { state : string }
      (** the writer published a fresh state snapshot at lock release *)

type record = { ts : int; tid : int; cpu : int; ev : ev }

type t

val create : unit -> t
(** A fresh, disabled tracer. *)

val enabled : t -> bool
(** Emitters must check this before building an event. *)

val enable : t -> unit
val disable : t -> unit
val clear : t -> unit

val emit : t -> ts:int -> tid:int -> cpu:int -> ev -> unit
(** Record an event; a no-op when disabled.  A record keeps [tid] in 26
    bits and [cpu] in 31, both signed: any simulated thread or CPU
    number, or [-1]. *)

val set_threads : t -> ((int -> string -> int -> unit) -> unit) -> unit
(** [set_threads t each] names the threads of the Chrome export: [each f]
    calls [f tid name cpu] for every thread, in tid order.  {!Sim} passes
    its own thread table, so threads spawned before tracing starts are
    named too. *)

val register_lock : t -> name:string -> discipline:string -> unit
(** Remember a lock's grant discipline (["fifo"], ["unfair"], ["barging"])
    for trace consumers.  A {!Lock} registers on its first traced record,
    not at creation: locks are usually created during setup, before
    tracing is enabled, and the order checkers need to know which traced
    locks promise FIFO grants.  Registrations survive {!clear}. *)

val lock_discipline : t -> string -> string option
(** The discipline registered for a lock name, if any: [None] for a lock
    that has never appeared in a trace. *)

val name : t -> int -> string
(** The name with this id.  A tracer numbers the names of the records it
    is given (locks, gates, SCR logs, states, spawned threads, fault
    causes) densely from 0, in the order they are first emitted, with
    one numbering for all of them; {!clear} keeps the numbering.
    Raises [Invalid_argument] for an id outside [0 .. name_count t - 1]. *)

val name_count : t -> int
(** How many names the tracer has numbered: their ids run from 0 to
    [name_count t - 1]. *)

val name_misses : t -> int
(** How many of the tracer's named records, since it was created, found
    their name by hashing the whole string.  The others were answered by
    string identity: an emitter that passes the same string for a name
    every time misses on its first record and after another name took
    its cache slot, one that builds the string anew on every record. *)

val events : t -> record list
(** All recorded events in emission (= time) order. *)

val count : t -> int

(** {2 Structured consumption}

    A recorded trace is re-delivered as the same typed records, in
    emission order, without building an intermediate list.  The
    trace-driven analyses ({!Pnp_analysis}) read it through the row view
    below instead, which builds no record at all. *)

val iter : t -> (record -> unit) -> unit
(** [iter t f] applies [f] to every record in emission order. *)

type kinds
(** A set of {!ev} constructors. *)

val kinds : (ev -> bool) -> kinds
(** The constructors [p] accepts, judged on one sample value of each:
    [p] must look at the constructor only, never at its fields. *)

(** {2 Rows in place}

    The same records without a [record] or an [ev] built per record:
    {!iter_rows} moves one cursor over the stored rows, and its
    accessors read the current row's fields where they are stored.  A
    row is a few ints: the timestamp, a word packing tid, cpu and
    {!Kind.t}, the constructor's int fields and, for a named
    constructor, its name's id (see {!name}).  A consumer that keeps a
    record for later keeps its {!pos} and rebuilds it with {!record_at}
    only if it needs it. *)

(** An {!ev} constructor without its fields. *)
module Kind : sig
  type t =
    | Thread_spawn | Thread_fork | Thread_exit
    | Lock_request | Lock_grant | Lock_handoff | Lock_release
    | Gate_take | Gate_pass | Gate_advance
    | Membus_charge | Mpool_alloc
    | Mnode_alloc | Mnode_ref | Mnode_unref | Mnode_recycle | Mnode_write
    | Span_begin | Span_end | Access
    | Fault_drop | Fault_dup | Fault_corrupt | Fault_reorder
    | Scr_append | Scr_apply | Scr_apply_end | Scr_replay
    | Rcu_read | Rcu_publish
end

type tracer = t

type pos = int
(** Where a record is stored: its chunk and its row's first word.
    Positions grow in emission order.  A plain int, so consumers can
    keep positions in int arrays; it is valid until the next {!clear}. *)

module Row : sig
  type t
  (** The cursor {!iter_rows} passes: it names the current row only
      during that call. *)

  val kind : t -> Kind.t
  val ts : t -> int
  val tid : t -> int

  val int0 : t -> int
  (** The constructor's first int field, in declaration order: [child],
      [waiters], [to_tid], [hold_ns], [ticket], [serving], [bytes],
      [hit] (0 or 1), [node], [seq], [write] (0 or 1), [copies], [off],
      [delay_ns], [idx] or [upto].  Unspecified for a constructor
      without one. *)

  val int1 : t -> int
  (** Its second: [wait_ns], [handoff_ns], [wait_ns], [dur_ns], [refs],
      the phase's index in declaration order, or [bit].  Unspecified for
      a constructor without one. *)

  val id : t -> int
  (** The id of a named constructor's lock, gate, log, state, thread or
      fault-cause name, as stored in the row; unspecified for the
      others. *)

  val name : t -> string
  (** That name: [name tracer (id r)].  Unspecified for a constructor
      without one. *)

  val pos : t -> pos

  val cursor : unit -> t
  (** A cursor of one's own, on no row until {!seek} moves it. *)

  val seek : tracer -> t -> pos -> unit
  (** [seek t r p] moves [r] to the row at [p], a position {!pos}
      returned for [t]. *)

  val record : t -> record
  (** The row as a record, as {!iter} delivers it. *)
end

val iter_rows : t -> kinds -> (Row.t -> unit) -> unit
(** [iter_rows t ks f] calls [f] on the rows of the records {!iter}
    delivers whose constructor is in [ks], in the same order, and
    allocates nothing per row: a row outside [ks] is skipped on its
    stored kind. *)

val record_at : t -> pos -> record
(** The record stored at a position {!Row.pos} returned. *)

(** {2 Contention attribution}

    Aggregated per-lock accounting derived from the event stream — the
    "where the time goes" breakdown of the paper's Table 1. *)

type lock_stats = {
  lock : string;
  acquisitions : int;
  contended : int;
  wait_ns : int;     (** total time grantees spent blocked *)
  hold_ns : int;     (** total time the lock was held *)
  handoff_ns : int;  (** total release-to-grant transfer cost *)
  max_queue : int;   (** deepest waiter queue observed at request time *)
}

val lock_table : t -> lock_stats list
(** One row per lock name, sorted by total wait descending. *)

val pp_phase : pkt_phase -> string

(** {2 Chrome trace_event export}

    The JSON object format loadable by [chrome://tracing] and Perfetto:
    lock waits/holds, gate waits and bus transfers become duration
    events on each simulated thread's track; packet journeys become
    async event spans keyed by sequence number. *)

val to_chrome_string : t -> string

val json_escape : string -> string
(** JSON string-content escaping (quotes, backslashes, control
    characters; other bytes pass through) — shared by every hand-rolled
    JSON emitter in the tree. *)

val write_chrome : t -> string -> unit
(** [write_chrome t file] writes {!to_chrome_string} to [file]. *)
