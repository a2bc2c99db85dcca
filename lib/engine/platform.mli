(** A configured simulated machine: world, architecture, bus, and the
    implementation toggles the paper's experiments vary. *)

type t = {
  sim : Sim.t;
  arch : Arch.t;
  bus : Membus.t;
  lock_disc : Lock.discipline;
      (** discipline used for connection/protocol-state locks (Section
          4/5); map-manager locks stay raw mutexes even in the MCS
          experiments (Section 4.1) *)
  refcnt_mode : Atomic_ctr.mode;
      (** reference counts: LL/SC vs lock-inc-unlock (Section 5.2) *)
  message_caching : bool;
      (** per-thread MNode caches in the message tool (Section 6) *)
  map_locking : bool;
      (** lock the map manager on demux (Section 3.1's 10% aside) *)
  map_shards : int;
      (** shards per demux map (power of two; 1 = the classic
          single-lock map manager) *)
}

val create :
  ?seed:int ->
  ?lock_disc:Lock.discipline ->
  ?refcnt_mode:Atomic_ctr.mode ->
  ?message_caching:bool ->
  ?map_locking:bool ->
  ?map_shards:int ->
  Arch.t ->
  t
(** Baseline defaults match Section 3: unfair mutexes, atomic LL/SC
    reference counts, message caching on, map locking on. *)

val state_lock : t -> name:string -> Lock.t
(** Make a protocol-state lock with the platform's discipline. *)

val refcnt : t -> name:string -> init:int -> Atomic_ctr.t
(** Make a reference counter with the platform's mode. *)

val charge : t -> Pnp_util.Units.ns -> unit
(** Consume simulated time if called from inside a simulated thread; a
    no-op outside any thread (set-up, event callbacks), like {!Lock} and
    {!Membus.consume}, so callers need not test {!Sim.in_thread}. *)

val charge_instrs : t -> int -> unit
(** [charge] expressed in instructions on the platform's architecture. *)
