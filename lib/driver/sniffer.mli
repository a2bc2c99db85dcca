(** A tcpdump-style frame sniffer on the simulated wire.

    Attaches to the stack's FDDI tap and records a one-line summary of
    every frame in both directions, with simulated timestamps.  Costs no
    simulated time; intended for debugging and for the `repro trace`
    command. *)

type t

type entry = {
  time_ns : int;
  dir : [ `Out | `In ];
  summary : string;
}

val attach : Stack.t -> t
(** Start recording (keeps the newest 1024 entries; older entries are
    dropped). *)

val entries : t -> entry list
(** Recorded entries, oldest first. *)

val seen : t -> int
(** Total frames observed (including ones evicted from the buffer). *)

val clear : t -> unit

val pp_entry : Format.formatter -> entry -> unit
(** ["  12.345us  -> TCP 5000>80 seq=1 ack=0 win=1048576 len=4096 [SA]"]. *)

val summarise : Pnp_xkern.Msg.t -> string
(** Decode a raw FDDI frame into the one-line summary (exposed for
    tests). *)
