(** FastTrack-style happens-before race detection over trace replay.

    Builds per-thread vector clocks from the ordering edges the engine
    traces — thread fork ([Thread_fork]; no simulated thread waits for
    another to finish, so there is no join edge),
    lock release→acquire ([Lock_release]/[Lock_grant]), gate signal→wait
    ([Gate_advance]/[Gate_pass]), membus replies ([Membus_charge]) and
    SCR log append→apply→apply chains
    ([Scr_append]/[Scr_apply]/[Scr_apply_end]) —
    and reports two accesses to the same state as a race when neither
    happens-before the other.

    Complements {!Lockset}: the lockset abstraction cannot see
    lock-free ordering, so findings present there but absent here are
    false-positive candidates, and findings present here but absent
    there are real races the lockset analysis missed (e.g. an unlocked
    write against reads Eraser's read-shared state never reports).
    `repro check` prints the two checkers' verdicts side by side.

    {!Check.run} calls {!access} on every [Access] row and {!sync} on
    every row of an ordering edge, then reads {!races} and
    {!findings}. *)

type t

val create : Replay.ctx -> t

val access : t -> Pnp_engine.Trace.Row.t -> unit
(** An [Access] row. *)

val sync : t -> Pnp_engine.Trace.Row.t -> unit
(** A row of an ordering edge: [Thread_fork], [Lock_grant],
    [Lock_release], [Gate_pass], [Gate_advance], [Membus_charge],
    [Scr_append], [Scr_apply] or [Scr_apply_end]. *)

val races : t -> string list
(** The racy state ids ([owner#field]) of the rows stepped so far, at
    most one per state, in order of detection. *)

val findings : t -> Finding.t list
(** The races as findings (checker ["hb-race"]), with both access
    witnesses, plus one finding per SCR log-replay violation: a
    [Scr_apply] whose index exceeds every index the trace saw appended
    consumed an entry that did not exist yet (replay read ahead of the
    appended tail). *)
