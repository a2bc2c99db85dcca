(** Deterministic pseudo-random number generation.

    All randomness in the simulator flows through an explicit generator so
    that every experiment is reproducible from its seed.  The generator is
    SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): tiny state, good
    statistical quality, and trivially splittable for independent streams. *)

type t
(** A mutable generator.  Not thread-safe; the simulator is single-threaded
    at the host level, so this is never an issue. *)

val create : int -> t
(** [create seed] makes a generator from a seed.  Equal seeds give equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator, advancing [t].  Used to give
    each simulated thread or connection its own stream so adding a consumer
    does not perturb the draws seen by the others. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound).  [bound] must be > 0. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val exponential : t -> mean:float -> float
(** Exponentially distributed draw with the given mean; used for service
    jitter in the simulated stack. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
