open Pnp_engine
open Pnp_xkern

let protocol_number = 1
let header_bytes = 8 (* type(1) code(1) cksum(2) ident(2) seq(2) *)

let type_echo_reply = 0
let type_echo_request = 8

module Pending_key = struct
  type t = { ident : int; seq : int }

  let hash k = (k.ident * 65521) lxor (k.seq * 257)
  let equal a b = a.ident = b.ident && a.seq = b.seq
end

module Pending_map = Xmap.Make (Pending_key)

type pending = { sent_at : int; payload_len : int; on_reply : rtt_ns:int -> unit }

type t = {
  plat : Platform.t;
  pool : Mpool.t;
  ip : Ip.t;
  pending : pending Pending_map.t;
  mutable requests_sent : int;
  mutable bad : int;
}

let set_checksum msg =
  Msg.set_u16 msg 2 0;
  Msg.set_u16 msg 2 (Inet_cksum.finish (Inet_cksum.sum_slices msg))

let checksum_ok msg = Inet_cksum.add (Inet_cksum.sum_slices msg) 0 = 0xffff

let build ~ty ~ident ~seq payload =
  Msg.push payload header_bytes;
  Msg.set_u8 payload 0 ty;
  Msg.set_u8 payload 1 0;
  Msg.set_u16 payload 4 ident;
  Msg.set_u16 payload 6 seq;
  set_checksum payload;
  payload

let input t ~src ~dst:_ msg =
  Costs.charge t.plat Costs.udp_input (* comparable path length *);
  if Msg.length msg < header_bytes || not (checksum_ok msg) then begin
    t.bad <- t.bad + 1;
    Msg.destroy msg
  end
  else begin
    let ty = Msg.get_u8 msg 0 in
    let ident = Msg.get_u16 msg 4 in
    let seq = Msg.get_u16 msg 6 in
    if ty = type_echo_request then begin
      (* Echo: flip the type, recompute, send it straight back. *)
      Msg.set_u8 msg 0 type_echo_reply;
      set_checksum msg;
      Ip.output t.ip ~proto:protocol_number ~dst:src msg
    end
    else if ty = type_echo_reply then begin
      let key = { Pending_key.ident; seq } in
      match Pending_map.lookup t.pending key with
      | None ->
        t.bad <- t.bad + 1;
        Msg.destroy msg
      | Some p ->
        ignore (Pending_map.remove t.pending key);
        let payload_ok =
          Msg.length msg = header_bytes + p.payload_len
          && Msg.check_pattern msg ~off:header_bytes ~len:p.payload_len ~stream_off:seq
        in
        Msg.destroy msg;
        if payload_ok then p.on_reply ~rtt_ns:(Sim.now t.plat.Platform.sim - p.sent_at)
        else t.bad <- t.bad + 1
    end
    else begin
      t.bad <- t.bad + 1;
      Msg.destroy msg
    end
  end

let create plat pool ~ip ~name =
  let t =
    {
      plat;
      pool;
      ip;
      pending = Pending_map.create plat ~name:(name ^ ".pending") ();
      requests_sent = 0;
      bad = 0;
    }
  in
  Ip.register ip ~proto:protocol_number (fun ~src ~dst msg -> input t ~src ~dst msg);
  t

let ping t ~dst ~ident ~seq ?(payload = 56) ~on_reply () =
  let m = Msg.create t.pool payload in
  Msg.fill_pattern m ~off:0 ~len:payload ~stream_off:seq;
  let m = build ~ty:type_echo_request ~ident ~seq m in
  Pending_map.insert t.pending
    { Pending_key.ident; seq }
    { sent_at = Sim.now t.plat.Platform.sim; payload_len = payload; on_reply };
  t.requests_sent <- t.requests_sent + 1;
  Costs.charge t.plat Costs.udp_output;
  Ip.output t.ip ~proto:protocol_number ~dst m

let requests_sent t = t.requests_sent
let bad_replies t = t.bad
