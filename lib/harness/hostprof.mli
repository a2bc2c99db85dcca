(** Host-side performance profile: how fast the simulator itself runs.

    Every figure is bottlenecked on the host cost of the discrete-event
    engine (events retired per host second), not on the modeled
    hardware.  This module snapshots process-wide counters — simulated
    events executed (fed by {!Run}, {!Overload} and {!Chaos}), GC
    minor/major allocation, and the sweep-cell memo's hit/miss counts —
    and reports deltas.  [repro perf] and [repro gate] print them; {!Json_out} embeds them in
    [BENCH_*.json].

    Counters are atomics (sweep cells run on {!Pool} worker domains).
    GC words are read with [Gc.quick_stat] on the calling domain;
    terminated worker domains fold their counts into the totals when
    the pool joins them, so snapshots taken around a whole sweep see the
    whole run. *)

type snapshot

val snapshot : unit -> snapshot
(** Current wall clock, cumulative event / memo counters and GC words. *)

type delta = {
  elapsed_s : float;
  sim_events : int;          (** events the engine retired in the window *)
  gc_minor_words : float;
  gc_major_words : float;
  cell_hits : int;           (** sweep-cell memo hits in the window *)
  cell_misses : int;
  arena_hwm : int;           (** largest Mpool buffer-arena footprint any
                                 cell reached, bytes (process max at the
                                 window's end, not a per-window delta) *)
}

val delta : snapshot -> snapshot -> delta

val measure : (unit -> 'a) -> 'a * delta
(** [measure f] runs [f] between two snapshots. *)

val events_per_sec : delta -> float
(** Simulated events per host second — the headline engine metric (0 on
    an empty window). *)

val cell_hit_pct : delta -> float
(** Share of sweep cells served from the memo, % (0 when no cells ran). *)

(** {2 Counter feeds (called by the harness, not by users)} *)

val note_sim_events : int -> unit
(** Add a finished simulation's event count to the process total
    ({!Run}, {!Overload} and {!Chaos} call this after every world). *)

val note_cell_hit : unit -> unit
val note_cell_miss : unit -> unit

val note_arena_hwm : int -> unit
(** Fold one pool's arena high-water mark ({!Mpool.arena_hwm}) into the
    process-wide max. *)
