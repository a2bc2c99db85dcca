(** Trace replay with reconstructed per-thread lock context.

    The trace-driven checkers all need the same derived fact: which
    locks each simulated thread held at a given event.  [replay] walks a
    recorded trace in emission order, maintains that state from the
    [Lock_grant]/[Lock_release] stream, and hands every record to the
    callback together with the context.

    The context passed to the callback reflects the state {e before} the
    current record is applied: on a [Lock_grant] the granted lock is not
    yet in the thread's held list (which is exactly the held-before set
    the lock-order checker wants), and on a [Lock_release] it still is. *)

type ctx

val held : ctx -> tid:int -> string list
(** Locks currently held by the thread, oldest acquisition first. *)

val grant_record : ctx -> tid:int -> lock:string -> Pnp_engine.Trace.record option
(** The [Lock_grant] record under which the thread still holds [lock]. *)

val current_seq : ctx -> tid:int -> int option
(** The packet sequence number the thread is currently carrying: the seq
    of its most recent [Span_begin Enqueue]. *)

val replay : Pnp_engine.Trace.t -> (ctx -> Pnp_engine.Trace.record -> unit) -> unit
(** Replay every record in emission order through the callback. *)

val run : Pnp_engine.Trace.t -> 'a -> ('a -> ctx -> Pnp_engine.Trace.record -> unit) -> 'a
(** [run tracer t step] replays the trace through [step t] and returns
    [t]: how each checker runs its own per-record step alone. *)
