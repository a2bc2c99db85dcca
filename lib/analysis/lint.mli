(** Source-invariant lint over the repo's OCaml sources.

    Complementing the trace-driven checkers, this enforces conventions
    that keep figure output deterministic and the tracer cheap:

    - {b no-print / no-wallclock / no-global-mutable} (figure data
      phases): in [fig_*.ml], top-level bindings that are not
      presentation helpers (name ending in [_present]) compute figure
      data and must stay pure — no [Printf.printf]-style console
      output, no [Unix.gettimeofday] / [Sys.time] / [Random.self_init]
      (wall-clock or ambient nondeterminism), and the file must not
      define top-level mutable state ([let x = ref ...]).

    - {b lock-pairing} (lib/ and bin/): a file with more textual
      [Lock.acquire] than [Lock.release] call sites almost certainly
      leaks a lock on some path; prefer [Lock.with_lock].  Extra
      releases are fine (early-exit branches share one acquire).

    - {b no-env} (lib/): no [Sys.getenv] / [Sys.getenv_opt].  Host
      policy chosen by an environment variable is a second program
      that no golden output selects; a reviewed exception carries
      [lint:allow].

    - {b trace-guard}: every [Trace.emit] call site, and every site
      that builds a [Trace] record for [Sim.trace] or a wrapper named
      after it ([trace], [trace_*], [*_trace]), must test
      [Trace.enabled] (or a [tracing] wrapper of it) within the few
      preceding lines, so tracing stays zero-cost when disabled.
      [trace.ml] itself is exempt.

    The scanner understands OCaml lexical structure well enough not to
    be fooled: nested [(* *)] comments, string literals (including
    strings inside comments) and char literals are blanked before rules
    run.  A line containing [lint:allow] (inside a comment) is skipped
    by all line-based rules. *)

type finding = {
  file : string;
  line : int;  (** 1-based; 0 for whole-file findings *)
  rule : string;
  message : string;
}

val pp_finding : Format.formatter -> finding -> unit

val scrub : string -> string
(** Blank out comments, string literals and char literals, preserving
    line structure (every other character, including newlines, is kept
    in place).  Exposed for tests. *)

val check_source : file:string -> string -> finding list
(** Lint one file's contents.  [file] is the (relative) path used both
    for reporting and for deciding which rules apply. *)

val check_tree : roots:string list -> finding list
(** Recursively lint every [.ml] file under the given root
    directories, skipping [_build] and dot-directories.  Findings are
    sorted by (file, line).
    @raise Invalid_argument if a root is not a directory. *)
