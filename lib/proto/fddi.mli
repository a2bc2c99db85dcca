(** FDDI media-access layer.

    As in the paper (Section 2.2), FDDI is thin: it prepends and strips a
    frame header and demultiplexes incoming frames to the upper protocol by
    SNAP ethertype.  Locking is needed only for registration (session
    creation) and for the demux map; the outgoing data path takes no
    locks. *)

type t

val header_bytes : int
(** Frame header: FC (1) + destination (6) + source (6) + LLC (3) +
    SNAP (5) = 21 bytes. *)

val mtu : int
(** Maximum payload carried in one frame (4352 bytes, the FDDI MTU). *)

val create : Pnp_engine.Platform.t -> local_mac:int -> name:string -> t

val set_transmit : t -> (Pnp_xkern.Msg.t -> unit) -> unit
(** Connect the layer to its device driver. *)

val register : t -> ethertype:int -> (Pnp_xkern.Msg.t -> unit) -> unit
(** Install the upper-layer input handler for an ethertype. *)

val output : t -> ethertype:int -> dst_mac:int -> Pnp_xkern.Msg.t -> unit
(** Prepend the frame header and hand the frame to the driver.
    @raise Invalid_argument if the payload exceeds {!mtu}. *)

val input : t -> Pnp_xkern.Msg.t -> unit
(** Entry point for the driver: strip the header, demultiplex. *)

val encap : Pnp_xkern.Msg.t -> src_mac:int -> dst_mac:int -> ethertype:int -> unit
(** Prepend a frame header without going through a layer instance — used
    by the in-memory drivers to fabricate inbound frames. *)

val set_tap : t -> (dir:[ `Out | `In ] -> Pnp_xkern.Msg.t -> unit) -> unit
(** Install a promiscuous tap: called with every frame transmitted
    ([`Out], after the header is prepended) and every frame arriving from
    the driver ([`In], before demultiplexing).  The tap must not consume
    or retain the message.  Costs nothing in simulated time. *)

val frames_out : t -> int
val frames_dropped : t -> int
(** Frames discarded for bad ethertype or malformed header. *)
