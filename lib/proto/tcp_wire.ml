open Pnp_util
open Pnp_xkern

type flags = { fin : bool; syn : bool; rst : bool; psh : bool; ack : bool }

let no_flags = { fin = false; syn = false; rst = false; psh = false; ack = false }
let flag_ack = { no_flags with ack = true }
let flag_syn = { no_flags with syn = true }
let flag_syn_ack = { no_flags with syn = true; ack = true }
let flag_fin_ack = { no_flags with fin = true; ack = true }
let flag_rst = { no_flags with rst = true }

type header = {
  sport : int;
  dport : int;
  seq : int;
  ack : int;
  flags : flags;
  win : int;
  cksum : int;
}

let header_bytes = 24
let protocol_number = 6

let flags_to_int f =
  (if f.fin then 1 else 0)
  lor (if f.syn then 2 else 0)
  lor (if f.rst then 4 else 0)
  lor (if f.psh then 8 else 0)
  lor if f.ack then 16 else 0

(* Every decode shares one immutable record per flag combination. *)
let flags_table =
  Array.init 32 (fun i ->
      {
        fin = i land 1 <> 0;
        syn = i land 2 <> 0;
        rst = i land 4 <> 0;
        psh = i land 8 <> 0;
        ack = i land 16 <> 0;
      })

let flags_of_int i = flags_table.(i land 31)

(* Push and fill one header.  [Int32.of_int] keeps the low 32 bits,
   i.e. [Tcp_seq.mask]. *)
let encode msg h =
  let b = Msg.push_header msg header_bytes in
  Buf.set_uint16_be b 0 h.sport;
  Buf.set_uint16_be b 2 h.dport;
  Buf.set_int32_be b 4 (Int32.of_int h.seq);
  Buf.set_int32_be b 8 (Int32.of_int h.ack);
  (* data offset in 32-bit words (6) in the high nibble, flags low. *)
  Buf.set_uint16_be b 12 ((6 lsl 12) lor flags_to_int h.flags);
  Buf.set_int32_be b 14 (Int32.of_int h.win);
  Buf.set_uint16_be b 18 h.cksum;
  Buf.set_uint16_be b 20 0;
  Buf.set_uint16_be b 22 0

let get_u32 b j = Int32.to_int (Buf.get_int32_be b j) land 0xffff_ffff

let decode msg =
  if Msg.length msg < header_bytes then None
  else
    let b = Msg.head_view msg ~off:0 ~len:header_bytes in
    let j = Msg.head_pos msg ~off:0 ~len:header_bytes in
    Some
      {
        sport = Buf.get_uint16_be b j;
        dport = Buf.get_uint16_be b (j + 2);
        seq = get_u32 b (j + 4);
        ack = get_u32 b (j + 8);
        flags = flags_of_int (Buf.get_uint16_be b (j + 12));
        win = get_u32 b (j + 14);
        cksum = Buf.get_uint16_be b (j + 18);
      }

let strip msg = Msg.pop msg header_bytes

let pseudo_sum ~src ~dst ~len = Inet_cksum.pseudo_sum ~proto:protocol_number ~src ~dst ~len

let store_checksum plat ~src ~dst msg =
  let len = Msg.length msg in
  Msg.set_u16 msg 18 0;
  let ck = Inet_cksum.compute plat msg ~extra:(pseudo_sum ~src ~dst ~len) in
  Msg.set_u16 msg 18 (if ck = 0 then 0xffff else ck)

let store_checksum_free ~src ~dst msg =
  let len = Msg.length msg in
  Msg.set_u16 msg 18 0;
  let sum = Inet_cksum.add (Inet_cksum.sum_slices msg) (pseudo_sum ~src ~dst ~len) in
  let ck = Inet_cksum.finish sum in
  Msg.set_u16 msg 18 (if ck = 0 then 0xffff else ck)

let checksum_valid ~src ~dst msg =
  let len = Msg.length msg in
  Inet_cksum.finish (Inet_cksum.add (Inet_cksum.sum_slices msg) (pseudo_sum ~src ~dst ~len)) = 0

let verify_checksum plat ~src ~dst msg =
  Inet_cksum.charge plat msg;
  checksum_valid ~src ~dst msg

let flags_to_string f =
  let b = Buffer.create 5 in
  if f.syn then Buffer.add_char b 'S';
  if f.fin then Buffer.add_char b 'F';
  if f.rst then Buffer.add_char b 'R';
  if f.psh then Buffer.add_char b 'P';
  if f.ack then Buffer.add_char b 'A';
  if Buffer.length b = 0 then "-" else Buffer.contents b
