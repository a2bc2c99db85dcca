open Pnp_util
open Pnp_xkern
open Pnp_proto

type tcp_view = {
  dst : int;
  sport : int;
  dport : int;
  seq : int;
  ack : int;
  flags : Tcp_wire.flags;
  win : int;
  payload_len : int;
}

let fddi_len = Fddi.header_bytes (* 21 *)
let ip_off = fddi_len
let tcp_off = fddi_len + Ip.header_bytes (* 41 *)
let headers_len = tcp_off + Tcp_wire.header_bytes

let get_u32 b j = Int32.to_int (Buf.get_int32_be b j) land 0xffff_ffff

(* One view per layer: a frame the stack transmits has each header in its
   own pushed node, so every view is a node buffer, not a copy. *)
let parse_tcp msg =
  if Msg.length msg < headers_len then None
  else
    let fddi = Msg.head_view msg ~off:0 ~len:fddi_len in
    let f = Msg.head_pos msg ~off:0 ~len:fddi_len in
    let ip = Msg.head_view msg ~off:ip_off ~len:Ip.header_bytes in
    let i = Msg.head_pos msg ~off:ip_off ~len:Ip.header_bytes in
    if Buf.get_uint16_be fddi (f + 19) <> Ip.ethertype then None
    else if Buf.get_uint8 ip (i + 9) <> Tcp_wire.protocol_number then None
    else
      let b = Msg.head_view msg ~off:tcp_off ~len:Tcp_wire.header_bytes in
      let j = Msg.head_pos msg ~off:tcp_off ~len:Tcp_wire.header_bytes in
      Some
        {
          dst = get_u32 ip (i + 16);
          sport = Buf.get_uint16_be b j;
          dport = Buf.get_uint16_be b (j + 2);
          seq = get_u32 b (j + 4);
          ack = get_u32 b (j + 8);
          flags = Tcp_wire.flags_of_int (Buf.get_uint16_be b (j + 12));
          win = get_u32 b (j + 14);
          payload_len = Msg.length msg - headers_len;
        }

let build_tcp pool ~src ~dst ~sport ~dport ~seq ~ack ~flags ~win ~payload ~checksum =
  let msg = match payload with Some m -> m | None -> Msg.create pool 0 in
  (* [encode] leaves the checksum field zero, which is what an
     unchecksummed frame carries. *)
  Tcp_wire.encode msg
    { Tcp_wire.sport; dport; seq; ack; flags; win; cksum = 0 };
  if checksum then Tcp_wire.store_checksum_free ~src ~dst msg;
  Ip.encap msg ~src ~dst ~proto:Tcp_wire.protocol_number ~id:0;
  Fddi.encap msg ~src_mac:src ~dst_mac:dst ~ethertype:Ip.ethertype;
  msg

let build_udp pool ~src ~dst ~sport ~dport ~payload ~checksum =
  ignore pool;
  Udp.encap_free payload ~src ~dst ~sport ~dport ~checksum;
  Ip.encap payload ~src ~dst ~proto:Udp.protocol_number ~id:0;
  Fddi.encap payload ~src_mac:src ~dst_mac:dst ~ethertype:Ip.ethertype;
  payload
