(** Deterministic, seeded fault injection for the link/driver boundary.

    A {e plan} is a declarative pipeline of fault stages; instantiating it
    ({!instantiate}) splits an independent {!Pnp_util.Prng} stream per
    stage, so a plan replays byte-identically for a given seed no matter
    how many worker domains run other simulations concurrently — all
    randomness is drawn in frame-offer order inside one single-threaded
    simulation world.

    Stages compose left to right.  Each offered frame runs through every
    stage in plan order; a stage may consume it (loss, blackout), damage
    it (bit-flip corruption), clone it (duplication) or hold it back by
    an extra delay (reordering, jitter).  Corruption flips exactly one
    bit at an offset at or beyond [skip_bytes], i.e. inside the
    encapsulated IP datagram, so every injected corruption is detectable
    by the Internet checksums above the MAC layer (a one's-complement sum
    catches all single-bit errors); the link-layer header itself carries
    no checksum and is never touched.  The flip is applied through
    {!Pnp_xkern.Msg.unshare}, i.e. to a private copy of the damaged node:
    transmitted frames share MNodes with the sender's retransmission
    queue and with any duplicates, and wire damage must never reach
    either — flipping in place would make later retransmissions carry the
    corrupted bytes under a freshly computed, valid checksum.

    {!instantiate} normalises the pipeline so consuming stages (loss,
    blackout) run before damaging and cloning ones, preserving relative
    order within each group.  This is what keeps the recovery oracle's
    books exact for {e every} plan, not just well-ordered ones: a counted
    bit flip or duplicate always reaches the wire, where a checksum (or
    the sequence space) can account for it, instead of being silently
    swallowed by a later drop. *)

(** One stage of a fault pipeline.  Probabilities are per offered frame. *)
type stage =
  | Bernoulli_loss of { p : float }  (** uniform random loss *)
  | Gilbert_elliott of { p_gb : float; p_bg : float; loss_good : float; loss_bad : float }
      (** two-state Markov burst loss: the chain moves good->bad with
          probability [p_gb] and bad->good with [p_bg] after each offered
          frame, dropping with [loss_good] / [loss_bad] in each state *)
  | Duplicate of { p : float }  (** clone the frame (one extra copy) *)
  | Reorder of { p : float; hold_ns : int }
      (** hold the frame back by [hold_ns] so later frames overtake it — a
          bounded reordering window (nothing is held indefinitely) *)
  | Corrupt of { p : float }  (** flip one payload bit (checksum-detectable) *)
  | Jitter of { p : float; spike_ns : int }
      (** delay spike: add a uniform extra delay in [0, spike_ns) *)
  | Wan_rtt of { base_ns : int; spread_ns : int }
      (** WAN RTT distribution: every frame of a given flow is stretched
          by the same seeded extra one-way delay in
          [\[base_ns, base_ns + spread_ns)], drawn per connection from a
          hash of the flow's stable header bytes (protocol, addresses,
          ports).  Models a population of paths of different lengths —
          per-flow base RTTs differ but each flow's delay is constant, so
          the stage introduces no intra-flow reordering by itself; compose
          with {!Jitter} for variance on top *)
  | Blackout of { start_ns : int; duration_ns : int; period_ns : int }
      (** drop every frame offered inside the window
          [\[start + k*period, start + k*period + duration)]; [period_ns = 0]
          means a single one-shot window *)

type plan = { name : string; stages : stage list }

val plan : ?name:string -> stage list -> plan
val none : plan
(** The empty plan: every frame passes untouched. *)

val bernoulli : float -> plan
(** [bernoulli p] is the single-stage uniform-loss plan. *)

val burst : plan
(** The built-in ["burst"] plan: Gilbert-Elliott two-state loss (good->bad
    2%, bad->good 25%, half the frames lost in the bad state). *)

val builtin : (string * plan) list
(** The named plans behind [repro chaos --plan NAME] and the chaos
    matrix, in a fixed presentation order. *)

val find : string -> plan option

(** {2 Instantiation and per-frame processing} *)

type t
(** An instantiated pipeline: per-stage PRNG streams, Markov/burst state
    and fault counters.  One instance serves one link direction. *)

val instantiate : plan -> prng:Pnp_util.Prng.t -> skip_bytes:int -> t
(** [instantiate plan ~prng ~skip_bytes] splits one PRNG stream per stage
    off [prng].  [skip_bytes] is the link-header size corruption must
    never touch (no checksum covers it). *)

val plan_of : t -> plan

(** What the pipeline did to an offered frame, reported through
    {!feed}'s [on_event] callback (the link turns these into trace
    events and per-cause drop accounting). *)
type event =
  | Ev_drop of drop_cause
  | Ev_dup
  | Ev_corrupt of { off : int; bit : int }
  | Ev_reorder of { delay_ns : int }
  | Ev_delay of { delay_ns : int }

and drop_cause = Random_loss | Burst_loss | Blackout_window

val drop_cause_label : drop_cause -> string
(** ["loss"], ["burst"] or ["blackout"]. *)

val feed :
  t -> now:int -> on_event:(event -> unit) -> Pnp_xkern.Msg.t -> (Pnp_xkern.Msg.t * int) list
(** Run one offered frame through the pipeline.  Returns the frames to
    put on the wire, each with the extra delay (ns) the fault stages
    added on top of serialisation + propagation; the empty list means the
    frame was consumed (it has already been destroyed).  Must be called
    in frame-offer order for determinism. *)

(** {2 Accounting}

    All counters are cumulative since instantiation. *)

val offered : t -> int
(** Frames fed in. *)

val dropped : t -> int
(** Consumed frames, all causes. *)

val dropped_loss : t -> int
val dropped_burst : t -> int
val dropped_blackout : t -> int

val corrupted : t -> int
(** Frames damaged (and delivered). *)

val duplicated : t -> int
(** Extra copies injected. *)

val reordered : t -> int
(** Frames held back past later traffic. *)

val delayed : t -> int
(** Jitter spikes applied. *)

val wan_stretched : t -> int
(** Frames stretched by a {!Wan_rtt} per-flow base delay. *)
