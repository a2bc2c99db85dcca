(** Paper-style result tables.

    Each figure in the paper is a set of series over processor counts;
    this module runs the sweeps, attaches 90% confidence intervals (the
    paper's error bars) and prints fixed-width tables.

    The sweep functions ({!metric_series}, {!throughput_series}) are the
    *data* phase of figure generation: they build one independent
    simulation per (processor count, seed) cell, fan the cells out over
    {!Pool}, and perform no I/O, so they are safe to run on worker
    domains.  Printing ({!print}, {!print_table}) is the *present* phase
    and writes to stdout on the calling domain. *)

type point = { procs : int; mean : float; ci90 : float }
type series = { label : string; points : point list }

type table = { title : string; unit_label : string; axis : string; series : series list }
(** One printed/exported table: a titled set of series with a unit.
    [axis] names the x-axis in the printed header; the JSON export keeps
    the [procs] field name whatever it is. *)

val table : title:string -> unit_label:string -> ?axis:string -> series list -> table
(** [axis] defaults to ["procs"]. *)

val throughput_series :
  label:string -> procs:int list -> seeds:int -> (int -> Config.t) -> series
(** [throughput_series ~label ~procs ~seeds cfg_of_procs] measures
    throughput at each processor count, running the (procs x seeds)
    sweep cells on the {!Pool} workers.  The result is independent of
    the worker count. *)

val metric_series :
  label:string ->
  procs:int list ->
  seeds:int ->
  metric:(Run.result -> float) ->
  (int -> Config.t) ->
  series
(** Like {!throughput_series} for any [Run.result] field. *)

val speedup : series -> series
(** Normalise to the 1-processor mean, as the paper's speedup figures do
    (each curve relative to its own uniprocessor throughput). *)

val print : table -> unit
(** Print one table (see {!print_table}). *)

val print_table :
  title:string -> unit_label:string -> ?axis:string -> series list -> unit
(** Aligned table: one row per x-axis value (processor count unless
    [axis] names another, default ["procs"]), one column per series.
    Pure printing — JSON export happens from the table values in
    {!Json_out}, not here. *)

val value_at : series -> int -> float
(** Mean at the given processor count.  @raise Not_found if absent. *)

val jain : float list -> float
(** Jain's fairness index [(sum x)^2 / (n * sum x^2)] of a set of
    per-flow allocations: 1.0 = perfectly even, [1/n] = one flow has
    everything.  [[]] and all-zero lists give 1.0. *)

val percentile : float -> float list -> float
(** [percentile p xs] is the nearest-rank [p]-th percentile ([p] in
    [0, 100]); [percentile 50.0] is the median, [percentile 100.0] the
    maximum.  @raise Invalid_argument on an empty list. *)

val print_host_profile : ?title:string -> Hostprof.delta -> unit
(** Human-readable host-side profile (wall clock, simulated events per
    host second, GC words, sweep-cell memo hit rate) for [repro perf]
    and [repro gate].  Presentation only — these numbers describe
    the host machine, never the modeled system, so callers must keep
    them out of figure output that determinism checks diff. *)

val print_lock_table : Pnp_engine.Trace.t -> unit
(** Contention attribution from a trace (see {!Run.run_traced}): one row
    per lock, sorted by total wait time and cut after 20 rows, with
    acquisition counts, wait / hold / handoff breakdown in milliseconds,
    the deepest waiter queue observed, and each lock's share of all
    blocked time.  The paper's
    Table 1 asks "where does the time go?"; this answers it per lock. *)
