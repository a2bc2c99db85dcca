open Pnp_engine
open Pnp_xkern
open Pnp_proto

type entry = { time_ns : int; dir : [ `Out | `In ]; summary : string }

(* Entries kept; older ones are dropped. *)
let capacity = 1024

type t = {
  mutable buf : entry list; (* newest first *)
  mutable count : int;
  mutable seen : int;
}

let ip_off = Fddi.header_bytes
let udp_off = ip_off + Ip.header_bytes

let summarise msg =
  let len = Msg.length msg in
  if len < Fddi.header_bytes then Printf.sprintf "short frame (%dB)" len
  else if Msg.get_u16 msg 19 <> Ip.ethertype then
    Printf.sprintf "ethertype 0x%04x len=%d" (Msg.get_u16 msg 19) len
  else if len < udp_off then Printf.sprintf "truncated IP (%dB)" len
  else
    let proto = Msg.get_u8 msg (ip_off + 9) in
    let src = Msg.get_u32 msg (ip_off + 12) in
    let dst = Msg.get_u32 msg (ip_off + 16) in
    let addr a =
      Printf.sprintf "%d.%d.%d.%d" (a lsr 24) ((a lsr 16) land 0xff)
        ((a lsr 8) land 0xff) (a land 0xff)
    in
    if proto = Tcp_wire.protocol_number then begin
      match Frame.parse_tcp msg with
      | Some v ->
        Printf.sprintf "TCP %s:%d > %s:%d seq=%u ack=%u win=%d len=%d [%s]" (addr src)
          v.Frame.sport (addr dst) v.Frame.dport v.Frame.seq v.Frame.ack v.Frame.win
          v.Frame.payload_len
          (Tcp_wire.flags_to_string v.Frame.flags)
      | None -> Printf.sprintf "TCP %s > %s (unparseable)" (addr src) (addr dst)
    end
    else if proto = Udp.protocol_number then
      Printf.sprintf "UDP %s:%d > %s:%d len=%d" (addr src)
        (Msg.get_u16 msg udp_off) (addr dst)
        (Msg.get_u16 msg (udp_off + 2))
        (Msg.get_u16 msg (udp_off + 4))
    else Printf.sprintf "IP proto=%d %s > %s len=%d" proto (addr src) (addr dst) len

let attach stack =
  let t = { buf = []; count = 0; seen = 0 } in
  Fddi.set_tap stack.Stack.fddi (fun ~dir msg ->
      t.seen <- t.seen + 1;
      let e =
        { time_ns = Sim.now stack.Stack.plat.Platform.sim; dir; summary = summarise msg }
      in
      t.buf <- e :: t.buf;
      t.count <- t.count + 1;
      if t.count > capacity then begin
        (* Drop the oldest; the buffer is short, so the rebuild is cheap. *)
        t.buf <- List.filteri (fun i _ -> i < capacity) t.buf;
        t.count <- capacity
      end);
  t

let entries t = List.rev t.buf
let seen t = t.seen

let clear t =
  t.buf <- [];
  t.count <- 0

let pp_entry fmt e =
  let arrow = match e.dir with `Out -> "->" | `In -> "<-" in
  Format.fprintf fmt "%10.3fus  %s %s"
    (float_of_int e.time_ns /. 1e3)
    arrow e.summary
