(** A presentation layer: XDR-style marshalling.

    Section 3.2 compares its checksumming results with Goldberg et al.,
    whose workloads included presentation-layer conversion — "much more
    compute-bound and data-intensive than checksumming" — and notes that
    heavier per-byte processing outside the locks yields better speedup.
    This layer lets the harness reproduce that comparison: a real
    byte-reordering pass (32-bit host/network swaps) over the payload,
    charged at a compute-bound per-byte cost.

    Conversion allocates a fresh message (marshalling into application
    buffers), so shared driver-template nodes are never mutated. *)

val encode : Pnp_engine.Platform.t -> Pnp_xkern.Mpool.t -> Pnp_xkern.Msg.t -> Pnp_xkern.Msg.t
(** Marshal: byte-swap each 32-bit word into a new message; consumes the
    input.  Charges the per-byte conversion cost. *)

val decode : Pnp_engine.Platform.t -> Pnp_xkern.Mpool.t -> Pnp_xkern.Msg.t -> Pnp_xkern.Msg.t
(** Unmarshal (the same involution). *)

