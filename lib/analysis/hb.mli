(** FastTrack-style happens-before race detection over trace replay.

    Builds per-thread vector clocks from the ordering edges the engine
    traces — thread fork/join ([Thread_fork]/[Thread_exit]/[Thread_join]),
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
    `repro check` prints the two checkers' verdicts side by side. *)

type race = {
  state : string;                 (** the ["owner#field"] state id *)
  first : Pnp_engine.Trace.record;  (** earlier access of the pair *)
  second : Pnp_engine.Trace.record; (** the access that exposed the race *)
  write_write : bool;             (** both accesses are writes *)
}

val run : ?bus_sync:bool -> Pnp_engine.Trace.t -> race list
(** At most one race per state id, in order of detection.  [bus_sync]
    (default [true]) treats every [Membus_charge] as an
    acquire+release on a single bus channel — the membus-reply edge;
    pass [false] to drop that edge and check lock/gate/fork ordering
    alone. *)

val races : ?bus_sync:bool -> Pnp_engine.Trace.t -> string list
(** Just the racy state ids, for cross-checking against {!Lockset}. *)

val check : ?bus_sync:bool -> Pnp_engine.Trace.t -> Finding.t list
(** {!run} as findings (checker ["hb-race"]), with both access
    witnesses — plus one finding per SCR log-replay violation: a
    [Scr_apply] whose index exceeds every index the trace saw appended
    consumed an entry that did not exist yet (replay read ahead of the
    appended tail). *)

(** {2 As one step of a shared replay} *)

type t

val create : ?bus_sync:bool -> Replay.ctx -> t

val access : t -> Pnp_engine.Trace.Row.t -> unit
(** An [Access] row. *)

val sync : t -> Pnp_engine.Trace.Row.t -> unit
(** A row of an ordering edge: [Thread_fork], [Thread_exit],
    [Thread_join], [Lock_grant], [Lock_release], [Gate_pass],
    [Gate_advance], [Membus_charge], [Scr_append], [Scr_apply] or
    [Scr_apply_end]. *)

val races_of : t -> race list
(** {!run} over the records stepped so far. *)

val findings : t -> Finding.t list
(** {!check} over the records stepped so far. *)
