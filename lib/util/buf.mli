(** Byte buffers typed by what their holder may do with them: a
    [[ `R ] t] can only be read, a [[ `R | `W ] t] can also be written.
    The representation is [Bytes.t] and each accessor is the [Bytes]
    function of the same name.

    The message tool hands out node memory as [[ `R ] t]; the only
    writable node buffer comes from the call that records the write
    ([Mpool.write]).  Nothing turns a [[ `R ] t] back into a writable
    buffer. *)

type -'a t
(** Contravariant, so [(b :> [ `R ] t)] drops the write capability. *)

val create : int -> [ `R | `W ] t

val of_bytes : Bytes.t -> [ `R | `W ] t
(** The caller's bytes, not copied. *)

val of_string : string -> [ `R ] t
(** The string's bytes, not copied: the result cannot be written. *)

val empty : [ `R | `W ] t
val length : [> `R ] t -> int
val get_uint8 : [> `R ] t -> int -> int
val get_uint16_be : [> `R ] t -> int -> int
val get_int32_be : [> `R ] t -> int -> int32
val get_int64_ne : [> `R ] t -> int -> int64
val unsafe_get : [> `R ] t -> int -> char
val sub_string : [> `R ] t -> int -> int -> string
val set_uint8 : [> `W ] t -> int -> int -> unit
val set_uint16_be : [> `W ] t -> int -> int -> unit
val set_int32_be : [> `W ] t -> int -> int32 -> unit
val set_int32_le : [> `W ] t -> int -> int32 -> unit
val blit : [> `R ] t -> int -> [> `W ] t -> int -> int -> unit
val blit_string : string -> int -> [> `W ] t -> int -> int -> unit
