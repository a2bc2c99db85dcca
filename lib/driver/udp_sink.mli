(** Send-side in-memory driver for UDP tests: consumes frames as fast as
    possible, counting the user payload that arrived. *)

type t

val attach : Stack.t -> t

val bytes_received : t -> int
(** UDP payload bytes (frame minus FDDI/IP/UDP headers). *)

val frames_received : t -> int
