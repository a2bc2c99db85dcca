(** SIGPROF sampling profiler emitting collapsed-stacks output.

    Backs [repro gate --profile FILE] and [repro perf --profile FILE]: while
    a workload runs, [Unix.setitimer ITIMER_PROF] fires SIGPROF per
    quantum of consumed CPU time and the handler records the current
    OCaml call stack ([Printexc.get_callstack]).  Stacks are collapsed
    to ["frameA;frameB;frameC count"] lines — the format flamegraph.pl
    and speedscope read directly — written heaviest-first.

    Sampling is process-wide (SIGPROF has one handler), so only one
    profiler may run at a time; [start] raises [Invalid_argument] if one
    is active.  Samples land on OCaml safe points, which biases tight
    allocation-free loops toward their callers — good enough to rank
    subsystems, not to time individual instructions. *)

type t

val start : ?hz:int -> unit -> t
(** Begin sampling at [hz] samples per CPU-second (default 997). *)

val stop : t -> int
(** Disarm the timer and restore the default SIGPROF disposition.
    Returns the number of samples collected. *)

val samples : t -> int

val write : t -> string -> unit
(** Write collapsed-stacks lines to a file, heaviest stack first. *)

val profile : ?hz:int -> file:string -> (unit -> 'a) -> 'a * int
(** [profile ~file f] runs [f] under the profiler and writes the
    collapsed-stacks profile to [file] (also on exception).  Returns
    [f ()]'s result and the sample count. *)
