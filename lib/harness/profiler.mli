(** SIGPROF sampling profiler emitting collapsed-stacks output.

    Backs [repro gate --profile FILE] and [repro perf --profile FILE]: while
    a workload runs, [Unix.setitimer ITIMER_PROF] fires SIGPROF per
    quantum of consumed CPU time and the handler records the current
    OCaml call stack ([Printexc.get_callstack]).  Stacks are collapsed
    to ["frameA;frameB;frameC count"] lines — the format flamegraph.pl
    and speedscope read directly — written heaviest-first.

    Sampling is process-wide (SIGPROF has one handler), so only one
    profile may run at a time; a nested [profile] raises
    [Invalid_argument].  Samples land on OCaml safe points, which biases
    tight allocation-free loops toward their callers — good enough to
    rank subsystems, not to time individual instructions. *)

val collapse : string list -> string
(** One sample's collapsed line from its frame names, outermost first:
    unnamed ["?"] frames fold into their nearest named caller and the
    profiler's own frames are dropped (["(unknown)"] if none is left). *)

val profile : file:string -> (unit -> 'a) -> 'a * int
(** [profile ~file f] runs [f] under the profiler, sampling 997 times
    per CPU-second, and writes the collapsed-stacks
    profile to [file], heaviest stack first (also on exception).  Returns
    [f ()]'s result and the sample count. *)
