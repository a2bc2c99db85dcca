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

let flags_of_int i =
  {
    fin = i land 1 <> 0;
    syn = i land 2 <> 0;
    rst = i land 4 <> 0;
    psh = i land 8 <> 0;
    ack = i land 16 <> 0;
  }

let encode msg h =
  Msg.push msg header_bytes;
  Msg.set_u16 msg 0 h.sport;
  Msg.set_u16 msg 2 h.dport;
  Msg.set_u32 msg 4 (Tcp_seq.mask h.seq);
  Msg.set_u32 msg 8 (Tcp_seq.mask h.ack);
  (* data offset in 32-bit words (6) in the high nibble, flags low. *)
  Msg.set_u16 msg 12 ((6 lsl 12) lor flags_to_int h.flags);
  Msg.set_u32 msg 14 h.win;
  Msg.set_u16 msg 18 h.cksum;
  Msg.set_u16 msg 20 0;
  Msg.set_u16 msg 22 0

let decode msg =
  if Msg.length msg < header_bytes then None
  else
    match Msg.head_view msg ~len:header_bytes with
    | Some (_, b, j) ->
      (* Single-pass read: the header always lives in one node (its own
         pushed node on send, the remaining front node after the IP pop on
         receive), so skip the per-field accessor walks. *)
      Some
        {
          sport = Bytes.get_uint16_be b j;
          dport = Bytes.get_uint16_be b (j + 2);
          seq = (Bytes.get_uint16_be b (j + 4) lsl 16) lor Bytes.get_uint16_be b (j + 6);
          ack = (Bytes.get_uint16_be b (j + 8) lsl 16) lor Bytes.get_uint16_be b (j + 10);
          flags = flags_of_int (Bytes.get_uint16_be b (j + 12) land 0x3f);
          win = (Bytes.get_uint16_be b (j + 14) lsl 16) lor Bytes.get_uint16_be b (j + 16);
          cksum = Bytes.get_uint16_be b (j + 18);
        }
    | None ->
      Some
        {
          sport = Msg.get_u16 msg 0;
          dport = Msg.get_u16 msg 2;
          seq = Msg.get_u32 msg 4;
          ack = Msg.get_u32 msg 8;
          flags = flags_of_int (Msg.get_u16 msg 12 land 0x3f);
          win = Msg.get_u32 msg 14;
          cksum = Msg.get_u16 msg 18;
        }

let strip msg = Msg.pop msg header_bytes

let pseudo_sum ~src ~dst ~len =
  let open Inet_cksum in
  let s = add (src lsr 16) (src land 0xffff) in
  let s = add s (dst lsr 16) in
  let s = add s (dst land 0xffff) in
  let s = add s protocol_number in
  add s len

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

let store_checksum_incremental ~src ~dst ~payload_sum msg =
  let len = Msg.length msg in
  Msg.set_u16 msg 18 0;
  let hdr_sum = ref 0 in
  for i = 0 to (header_bytes / 2) - 1 do
    hdr_sum := Inet_cksum.add !hdr_sum (Msg.get_u16 msg (2 * i))
  done;
  let total = Inet_cksum.add (Inet_cksum.add !hdr_sum payload_sum) (pseudo_sum ~src ~dst ~len) in
  let ck = Inet_cksum.finish total in
  Msg.set_u16 msg 18 (if ck = 0 then 0xffff else ck)

(* 16-bit one's-complement sum of an encoded header's words, computed
   from the fields without touching bytes.  Every 16-bit word of the
   header is a field (the trailing pad is zero), so for a header-only
   segment the whole checksum is arithmetic. *)
let header_sum h =
  let open Inet_cksum in
  let seq = Tcp_seq.mask h.seq and ackn = Tcp_seq.mask h.ack in
  let s = add h.sport h.dport in
  let s = add s (seq lsr 16) in
  let s = add s (seq land 0xffff) in
  let s = add s (ackn lsr 16) in
  let s = add s (ackn land 0xffff) in
  let s = add s ((6 lsl 12) lor flags_to_int h.flags) in
  let s = add s ((h.win lsr 16) land 0xffff) in
  let s = add s (h.win land 0xffff) in
  add s h.cksum

(* Coalesced construction of a header-only segment (pure ACK, SYN, FIN):
   one direct pass writes the header with the checksum already computed
   arithmetically from the fields — no re-scan of freshly written bytes —
   and primes the node's sum memo so the receiver's verify pass is O(1).
   The stored bytes are identical to [encode] followed by
   [store_checksum]/[store_checksum_free]; with [checksum:false] the
   field is written as the zero those paths leave.  Charges nothing:
   callers place the simulated checksum charge ({!Inet_cksum.charge})
   exactly where their reference path incurred it. *)
let encode_empty msg h ~src ~dst ~checksum =
  Msg.push msg header_bytes;
  let base = header_sum { h with cksum = 0 } in
  let ck =
    if not checksum then 0
    else
      let c = Inet_cksum.finish (Inet_cksum.add base (pseudo_sum ~src ~dst ~len:header_bytes)) in
      if c = 0 then 0xffff else c
  in
  match Msg.head_view msg ~len:header_bytes with
  | Some (node, b, j) ->
    Mpool.bump_gen (Msg.pool msg) node;
    Bytes.set_uint16_be b j h.sport;
    Bytes.set_uint16_be b (j + 2) h.dport;
    let seq = Tcp_seq.mask h.seq and ackn = Tcp_seq.mask h.ack in
    Bytes.set_uint16_be b (j + 4) (seq lsr 16);
    Bytes.set_uint16_be b (j + 6) (seq land 0xffff);
    Bytes.set_uint16_be b (j + 8) (ackn lsr 16);
    Bytes.set_uint16_be b (j + 10) (ackn land 0xffff);
    Bytes.set_uint16_be b (j + 12) ((6 lsl 12) lor flags_to_int h.flags);
    Bytes.set_uint16_be b (j + 14) ((h.win lsr 16) land 0xffff);
    Bytes.set_uint16_be b (j + 16) (h.win land 0xffff);
    Bytes.set_uint16_be b (j + 18) ck;
    Bytes.set_uint16_be b (j + 20) 0;
    Bytes.set_uint16_be b (j + 22) 0;
    Mpool.cache_sum node ~off:j ~len:header_bytes (Inet_cksum.add base ck)
  | None ->
    (* A fresh push is always a single covering part; kept for safety
       (the header space is already pushed, so write through the
       accessors as [encode] would). *)
    Msg.set_u16 msg 0 h.sport;
    Msg.set_u16 msg 2 h.dport;
    Msg.set_u32 msg 4 (Tcp_seq.mask h.seq);
    Msg.set_u32 msg 8 (Tcp_seq.mask h.ack);
    Msg.set_u16 msg 12 ((6 lsl 12) lor flags_to_int h.flags);
    Msg.set_u32 msg 14 h.win;
    Msg.set_u16 msg 18 ck;
    Msg.set_u16 msg 20 0;
    Msg.set_u16 msg 22 0

let checksum_valid ~src ~dst msg =
  let len = Msg.length msg in
  Inet_cksum.(finish (add (sum_slices msg) (pseudo_sum ~src ~dst ~len))) = 0

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
