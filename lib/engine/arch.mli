(** Architecture parameter records for the three machines in the paper.

    The simulator charges time for protocol work, locking, and bulk memory
    traffic according to these parameters.  They are calibrated from the
    numbers the paper itself reports (lock costs of Section 4.1, the
    32 MB/s per-CPU checksum bandwidth of Section 3.2, 1.2 GB/s aggregate
    bus bandwidth) plus the qualitative architectural facts of Section 7:
    the Challenge synchronises through the memory coherency protocol
    (LL/SC), so contended lock transfers pay a cache-line migration
    penalty, while the Power Series uses a dedicated synchronisation bus
    and pays none. *)

type sync_style =
  | Coherency  (** locks ride the memory system; cross-CPU handoff pays [coherency_ns] *)
  | Sync_bus   (** dedicated synchronisation bus; no cross-CPU handoff penalty *)

type t = {
  name : string;
  cpus : int;              (** processors available on the machine *)
  clock_mhz : float;
  cpi : float;             (** average cycles per instruction *)
  mem_ns_per_byte : float; (** cost of touching packet/state memory outside bulk ops *)
  cksum_mb_per_s : float;  (** per-CPU checksum (bulk read) bandwidth *)
  copy_mb_per_s : float;   (** per-CPU bulk write/copy bandwidth (payload fills) *)
  bus_mb_per_s : float;    (** aggregate memory bus bandwidth *)
  mutex_ns : int;          (** uncontended mutex acquire (paper: 0.7 us on Challenge) *)
  mcs_ns : int;            (** uncontended MCS acquire (paper: 1.5 us on Challenge) *)
  handoff_ns : int;        (** contended lock grant cost charged to the grantee *)
  coherency_ns : int;      (** extra cost when a lock/line moves between CPUs *)
  atomic_ns : int;         (** one LL/SC atomic increment or decrement *)
  sync : sync_style;
}

val challenge_100 : t
(** 8-processor SGI Challenge, 100 MHz MIPS R4400 — the paper's main machine. *)

val challenge_150 : t
(** 4-processor SGI Challenge, 150 MHz MIPS R4400. *)

val power_series_33 : t
(** 4-processor SGI Power Series, 33 MHz MIPS R3000, synchronisation bus. *)

val all : t list

val instr_ns : t -> int -> int
(** [instr_ns arch n] is the time to execute [n] instructions. *)

val touch_ns : t -> int -> int
(** [touch_ns arch bytes] is the time to touch [bytes] of non-bulk memory
    (headers, protocol state). *)
