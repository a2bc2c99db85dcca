(** Source-invariant lint over the repo's OCaml sources.

    Complementing the trace-driven checkers, this enforces conventions
    that keep figure output deterministic and the tracer cheap.  Each
    file is parsed with the compiler's own parser ([compiler-libs]) and
    the rules read the syntax tree, so a name in a comment, a string or
    a char literal is never code, and a binding or a guard is what the
    compiler sees, not a guess from line layout:

    - {b no-print / no-wallclock / no-global-mutable} (figure data
      phases): in [fig_*.ml], top-level bindings that are not
      presentation helpers (name ending in [_present]) compute figure
      data and must stay pure — no [Printf.printf]-style console
      output, no [Unix.gettimeofday] / [Sys.time] / [Random.self_init]
      (wall-clock or ambient nondeterminism), and the file must not
      bind top-level mutable state ([let x = ref ...]).

    - {b lock-pairing} (outside [test/]): a file that names
      [Lock.acquire] more often than [Lock.release] almost certainly
      leaks a lock on some path; prefer [Lock.with_lock].  Extra
      releases are fine (early-exit branches share one acquire).

    - {b no-env} ([lib/]): no [Sys.getenv] / [Sys.getenv_opt].  Host
      policy chosen by an environment variable is a second program
      that no golden output selects; a reviewed exception carries
      [lint:allow].

    - {b trace-guard}: every [Trace.emit], and every [Trace.<Ctor> {...}]
      record passed to [Sim.trace] or a wrapper named after it
      ([trace], [trace_*], [*_trace]), must sit in the then-branch of
      an [if] whose condition holds only while tracing is on: a call of
      [Trace.enabled] or of a [tracing] wrapper of it, or a conjunction
      with one.  Tracing then stays zero-cost when disabled.
      [trace.ml] itself is exempt.

    A file that does not parse yields one {b parse} finding at the
    parser's error line and no other.  A finding whose source line
    contains [lint:allow] (in a comment) is dropped; an acquire or
    release on such a line is not counted. *)

type finding = {
  file : string;
  line : int;  (** 1-based; 0 for whole-file findings *)
  rule : string;
  message : string;
}

val pp_finding : Format.formatter -> finding -> unit

val roots : string list
(** The source roots the repo lints, relative to its top: [lib], [bin],
    [test] and [examples].  [lint.exe] without arguments, [dune build
    @lint] and the test suite's clean-tree check all use it. *)

val check_source : file:string -> string -> finding list
(** Lint one file's contents.  [file] is the (relative) path used both
    for reporting and for deciding which rules apply.  Never raises. *)

val check_tree : roots:string list -> finding list
(** Recursively lint every [.ml] file under the given root
    directories, skipping [_build] and dot-directories.  Findings are
    sorted by (file, line).
    @raise Invalid_argument if a root is not a directory. *)
