open Pnp_xkern
open Pnp_proto

type t = { mutable bytes : int; mutable frames : int }

let headers = Fddi.header_bytes + Ip.header_bytes + Udp.header_bytes

let attach stack =
  let t = { bytes = 0; frames = 0 } in
  Fddi.set_transmit stack.Stack.fddi (fun frame ->
      Costs.charge stack.Stack.plat Costs.driver_xmit;
      t.frames <- t.frames + 1;
      t.bytes <- t.bytes + max 0 (Msg.length frame - headers);
      Msg.destroy frame);
  t

let bytes_received t = t.bytes
let frames_received t = t.frames

