(** Index of every reproducible figure and table.

    Each entry is split into a pure [data] phase that runs the sweeps
    (on the {!Pnp_harness.Pool} worker domains) and returns its result
    tables, and a [present] phase that formats them on the calling
    domain.  Most entries use the default presenter (aligned tables via
    {!Pnp_harness.Report.print}); the micro-benchmarks and the
    CLP-vs-PLP extension keep their prose-style output via custom
    presenters. *)

type entry = {
  id : string;          (** e.g. "fig8", "table1", "micro-cksum" *)
  title : string;
  data : Opts.t -> Pnp_harness.Report.table list;
      (** Pure sweep: no printing, no global state. *)
  present : Opts.t -> Pnp_harness.Report.table list -> unit;
      (** Print the tables on stdout; main domain only. *)
}

val all : entry list

val find : string -> entry option

val run_entry : ?json:Pnp_harness.Json_out.ctx -> entry -> Opts.t -> unit
(** Time the data phase (wall clock), present the tables, and mirror
    them to [BENCH_<id>.json] — stamped with the [-j] level and the data
    phase's elapsed seconds — when [json] is an enabled context. *)

val run_all : ?json:Pnp_harness.Json_out.ctx -> Opts.t -> unit
(** Regenerate every figure and table in order (via {!run_entry}). *)
