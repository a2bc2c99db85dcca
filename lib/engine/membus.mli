(** Shared memory-bus bandwidth.

    Bulk data operations (checksums, copies) read packet data through the
    shared bus.  Each CPU alone sustains the architecture's per-CPU
    bandwidth; when several stream simultaneously, the aggregate is capped
    by [arch.bus_mb_per_s].  Section 3.2 measures 32 MB/s per CPU against a
    1.2 GB/s bus — "the bus could support up to 38 processors doing nothing
    but checksumming" — and this module reproduces that division. *)

type t

val create : Sim.t -> Arch.t -> t

val consume : ?rate_mb_s:float -> t -> bytes:int -> unit
(** Stream [bytes] through the bus from the calling thread, blocking for
    the transfer duration.  The effective rate is
    [min per_cpu (bus / concurrent_users)], evaluated when the transfer
    starts (a fluid approximation; transfers here are short and uniform,
    so re-evaluating mid-flight would change nothing measurable).  Outside
    a simulated thread (set-up, event callbacks) it does nothing: no time
    passes there and no bytes are counted. *)

val duration_ns : ?rate_mb_s:float -> t -> bytes:int -> users:int -> Pnp_util.Units.ns
(** The transfer time [consume] would charge with the given number of
    concurrent users (exposed for tests and the checksum microbenchmark). *)

val concurrent_users : t -> int
val bytes_transferred : t -> int
