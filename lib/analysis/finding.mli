(** A reported violation from one of the concurrency checkers or the
    source lint.

    Findings are the common currency of the analysis subsystem: every
    checker returns a list of them, `repro check` and `bin/lint` print
    them and exit non-zero when any exist, and the seeded-defect tests
    assert on their contents. *)

type t = {
  checker : string;  (** which analysis produced it: "lockset", "lock-order", ... *)
  subject : string;  (** the state id, lock name or [file:line] concerned *)
  message : string;
  witnesses : Pnp_engine.Trace.record list;
      (** the trace events that prove the violation, in time order *)
}

val v :
  ?witnesses:Pnp_engine.Trace.record list ->
  checker:string ->
  subject:string ->
  string ->
  t

val pp : Format.formatter -> t -> unit
(** Multi-line rendering: an [\[error\] checker: subject: message]
    headline plus one indented line per witness. *)

val to_string : t -> string

val sort : t list -> t list
(** By checker, then subject. *)

val dedupe : t list -> t list
(** Collapse findings with identical (checker, subject, message) to the
    first occurrence, preserving order.  Witnesses are not part of the
    key: the same defect observed at several points in the trace is one
    finding. *)

(** {2 Exit-code families}

    Each checker family owns a stable exit-code bit so CI can
    distinguish failure kinds without parsing output: races (lockset and
    happens-before) = 1, arena lifetime = 2, everything else (lock
    order, grant order) = 4. *)

val exit_code : t list -> int
(** OR of the family bits present in the list; 0 when empty. *)
