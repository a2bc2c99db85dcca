(** Machine-readable export of figure tables.

    Figure runners print fixed-width tables for humans; this module
    mirrors each figure's {!Report.table} list into a JSON document so
    benchmark runs can be diffed and plotted without scraping stdout.

    The export destination is an explicit context threaded through the
    presentation path (the registry and the CLIs) rather than global
    state: the *data* phase of figure generation runs on worker domains
    and never touches this module, and the *present* phase on the main
    domain serialises whatever tables the data phase returned.

    Each [BENCH_<id>.json] document also records the harness's own
    performance trajectory: the [-j] worker count the figure was
    generated with and the wall-clock seconds its data phase took.
    Diffing tools should ignore those two fields (the CI determinism job
    normalises them) — everything else is a pure function of the sweep
    configuration and seeds. *)

type ctx

val make : ?dir:string -> unit -> ctx
(** [make ~dir ()] exports into [dir] (which must already exist);
    [make ()] is a disabled context whose writes are no-ops. *)

val disabled : ctx
(** A context that never writes — what plain CLI runs use. *)

val figure_json :
  id:string ->
  jobs:int ->
  elapsed_s:float ->
  ?host:Hostprof.delta ->
  Report.table list ->
  string
(** The JSON document for one figure, as written by {!write_figure}.
    Pure — useful for determinism tests that compare payloads without
    touching the filesystem.  When [host] is given, a ["host"] object
    (events retired, events/sec, GC words, sweep-cell memo hits/misses
    over the figure's data phase) is emitted after ["elapsed_s"]; like
    [jobs] and [elapsed_s] it describes the harness, not the modeled
    system, and diffing tools should normalise it away. *)

val write_figure :
  ctx ->
  id:string ->
  jobs:int ->
  elapsed_s:float ->
  ?host:Hostprof.delta ->
  Report.table list ->
  unit
(** Write [BENCH_<id>.json] into the context's directory; a no-op when
    the context is disabled. *)
