(** TCP segment wire format.

    The header is the Net/2 layout except that, as the paper does, the
    flow-control window is carried as a full 32-bit field (Section 2.2:
    16-bit windows cannot express the bandwidth-delay products these
    experiments generate; 4.4BSD large windows and the next-generation TCP
    proposals do the same).  That widens the header from 20 to 24 bytes.

    Layout (all big-endian):
    {v
    0  source port   (2)    12 data offset/flags (2)
    2  dest port     (2)    14 window            (4)
    4  sequence      (4)    18 checksum          (2)
    8  ack           (4)    20 urgent pointer    (2)
                            22 pad               (2)
    v} *)

type flags = { fin : bool; syn : bool; rst : bool; psh : bool; ack : bool }

val flag_ack : flags
val flag_syn : flags
val flag_syn_ack : flags
val flag_fin_ack : flags
val flag_rst : flags

val flags_of_int : int -> flags
(** The flags in the low bits of header word 12 (data offset ignored). *)

type header = {
  sport : int;
  dport : int;
  seq : int;
  ack : int;
  flags : flags;
  win : int;
  cksum : int;
}

val header_bytes : int
val protocol_number : int

val encode : Pnp_xkern.Msg.t -> header -> unit
(** Push a header onto the message and write the fields (checksum field as
    given; use {!store_checksum} to fill it afterwards). *)

val decode : Pnp_xkern.Msg.t -> header option
(** Read the header at the front of the message (without stripping);
    [None] if the message is too short. *)

val strip : Pnp_xkern.Msg.t -> unit
(** Remove the header bytes from the front. *)

val store_checksum : Pnp_engine.Platform.t -> src:int -> dst:int -> Pnp_xkern.Msg.t -> unit
(** Compute the real checksum of the encoded segment (pseudo-header
    included) and store it, charging the bus for the bytes. *)

val store_checksum_free : src:int -> dst:int -> Pnp_xkern.Msg.t -> unit
(** Same arithmetic with no simulated cost — for driver-built templates,
    which the paper's drivers produce without charge. *)

val verify_checksum : Pnp_engine.Platform.t -> src:int -> dst:int -> Pnp_xkern.Msg.t -> bool

val checksum_valid : src:int -> dst:int -> Pnp_xkern.Msg.t -> bool
(** {!verify_checksum} without the simulated charge. *)

val flags_to_string : flags -> string
