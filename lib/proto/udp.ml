open Pnp_engine
open Pnp_util
open Pnp_xkern

let header_bytes = 8
let protocol_number = 17

module Port_map = Xmap.Make (struct
  type t = int

  let hash x = x * 0x9e3779b1
  let equal = Int.equal
end)

type t = {
  plat : Platform.t;
  ip : Ip.t;
  checksum : bool;
  sessions : session Port_map.t;
  create_lock : Lock.t; (* serialises session creation *)
  mutable dropped : int;
  mutable cksum_failures : int;
}

and session = {
  udp : t;
  local_port : int;
  remote_addr : int;
  remote_port : int;
  sess_ref : Atomic_ctr.t;
  recv : Msg.t -> unit;
}

let pseudo_sum ~src ~dst ~len = Inet_cksum.pseudo_sum ~proto:protocol_number ~src ~dst ~len

let rec input t ~src ~dst msg =
  Costs.charge t.plat Costs.udp_input;
  if Msg.length msg < header_bytes then begin
    t.dropped <- t.dropped + 1;
    Msg.destroy msg
  end
  else begin
    let b = Msg.head_view msg ~off:0 ~len:header_bytes in
    let j = Msg.head_pos msg ~off:0 ~len:header_bytes in
    let dport = Buf.get_uint16_be b (j + 2) in
    let wire_cksum = Buf.get_uint16_be b (j + 6) in
    let len = Msg.length msg in
    let cksum_ok =
      if t.checksum && wire_cksum <> 0 then
        (* The receiver checksums the whole datagram (header included,
           checksum field as transmitted) plus the pseudo-header. *)
        Inet_cksum.verify t.plat msg ~extra:(pseudo_sum ~src ~dst ~len)
      else true
    in
    if not cksum_ok then begin
      t.cksum_failures <- t.cksum_failures + 1;
      t.dropped <- t.dropped + 1;
      Msg.destroy msg
    end
    else
      match Port_map.lookup t.sessions dport with
      | Some sess ->
        ignore (Atomic_ctr.incr sess.sess_ref);
        Msg.pop msg header_bytes;
        sess.recv msg;
        ignore (Atomic_ctr.decr sess.sess_ref)
      | None ->
        t.dropped <- t.dropped + 1;
        Msg.destroy msg
  end

and create plat ~ip ~checksum ~name =
  let t =
    {
      plat;
      ip;
      checksum;
      sessions =
        Port_map.create plat ~shards:plat.Platform.map_shards
          ~name:(name ^ ".demux") ();
      create_lock =
        Lock.create plat.Platform.sim plat.Platform.arch Lock.Unfair
          ~name:(name ^ ".create");
      dropped = 0;
      cksum_failures = 0;
    }
  in
  Ip.register ip ~proto:protocol_number (fun ~src ~dst msg -> input t ~src ~dst msg);
  t

let open_session t ~local_port ~remote_addr ~remote_port ~recv =
  Lock.with_lock t.create_lock (fun () ->
      match Port_map.lookup t.sessions local_port with
      | Some _ ->
        invalid_arg (Printf.sprintf "Udp.open_session: port %d already bound" local_port)
      | None ->
        let sess =
          {
            udp = t;
            local_port;
            remote_addr;
            remote_port;
            sess_ref = Platform.refcnt t.plat ~name:"udp.sess" ~init:1;
            recv;
          }
        in
        Port_map.insert t.sessions local_port sess;
        sess)

(* Push and fill a header with a zero checksum field.  The checksum,
   when stored, is summed over these bytes first, so it goes through
   [Msg.set_u16] and bumps the generation again. *)
let push_header msg ~sport ~dport =
  let len = Msg.length msg + header_bytes in
  let b = Msg.push_header msg header_bytes in
  Buf.set_uint16_be b 0 sport;
  Buf.set_uint16_be b 2 dport;
  Buf.set_uint16_be b 4 len;
  Buf.set_uint16_be b 6 0;
  len

let send sess msg =
  let t = sess.udp in
  Costs.charge t.plat Costs.udp_output;
  let len = push_header msg ~sport:sess.local_port ~dport:sess.remote_port in
  if t.checksum then begin
    let extra =
      pseudo_sum ~src:(Ip.local_addr t.ip) ~dst:sess.remote_addr ~len
    in
    let ck = Inet_cksum.compute t.plat msg ~extra in
    (* All-zero checksum is transmitted as all-ones per the RFC. *)
    Msg.set_u16 msg 6 (if ck = 0 then 0xffff else ck)
  end;
  Ip.output t.ip ~proto:protocol_number ~dst:sess.remote_addr msg

let encap_free msg ~src ~dst ~sport ~dport ~checksum =
  let len = push_header msg ~sport ~dport in
  if checksum then begin
    let sum = Inet_cksum.add (Inet_cksum.sum_slices msg) (pseudo_sum ~src ~dst ~len) in
    let ck = Inet_cksum.finish sum in
    Msg.set_u16 msg 6 (if ck = 0 then 0xffff else ck)
  end

let datagrams_dropped t = t.dropped
let checksum_failures t = t.cksum_failures
