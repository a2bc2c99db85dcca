open Pnp_engine
open Pnp_util
open Pnp_xkern

let header_bytes = 21
let mtu = 4352

module Type_map = Xmap.Make (struct
  type t = int

  let hash x = x * 0x9e3779b1
  let equal = Int.equal
end)

type t = {
  plat : Platform.t;
  local_mac : int;
  obj_ref : Atomic_ctr.t; (* protocol object reference count (Section 5.2) *)
  mutable transmit : Msg.t -> unit;
  mutable tap : (dir:[ `Out | `In ] -> Msg.t -> unit) option;
  upper : (Msg.t -> unit) Type_map.t;
  mutable frames_out : int;
  mutable dropped : int;
}

let create plat ~local_mac ~name =
  {
    plat;
    local_mac;
    obj_ref = Platform.refcnt plat ~name:(name ^ ".ref") ~init:1;
    transmit = (fun _ -> failwith "Fddi: no driver attached");
    tap = None;
    upper = Type_map.create plat ~name:(name ^ ".demux") ();
    frames_out = 0;
    dropped = 0;
  }

let set_transmit t f = t.transmit <- f
let set_tap t f = t.tap <- Some f
let run_tap t ~dir msg = match t.tap with None -> () | Some f -> f ~dir msg

let register t ~ethertype handler = Type_map.insert t.upper ethertype handler

(* Frame layout: FC(1) dst(6) src(6) DSAP(1) SSAP(1) ctrl(1) OUI(3)
   ethertype(2).  MACs are 48-bit, carried here in an int. *)
let fc_llc = 0x50
let dsap_snap = 0xaa

let encap msg ~src_mac ~dst_mac ~ethertype =
  let b = Msg.push_header msg header_bytes in
  Buf.set_uint8 b 0 fc_llc;
  Buf.set_uint16_be b 1 (dst_mac lsr 32);
  Buf.set_int32_be b 3 (Int32.of_int dst_mac);
  Buf.set_uint16_be b 7 (src_mac lsr 32);
  Buf.set_int32_be b 9 (Int32.of_int src_mac);
  Buf.set_uint8 b 13 dsap_snap;
  Buf.set_uint8 b 14 dsap_snap;
  Buf.set_uint8 b 15 0x03;
  Buf.set_uint8 b 16 0;
  Buf.set_uint16_be b 17 0;
  Buf.set_uint16_be b 19 ethertype

let output t ~ethertype ~dst_mac msg =
  if Msg.length msg > mtu then
    invalid_arg
      (Printf.sprintf "Fddi.output: payload %d exceeds MTU %d" (Msg.length msg) mtu);
  Costs.charge t.plat Costs.fddi_output;
  encap msg ~src_mac:t.local_mac ~dst_mac ~ethertype;
  t.frames_out <- t.frames_out + 1;
  run_tap t ~dir:`Out msg;
  t.transmit msg

let input t msg =
  run_tap t ~dir:`In msg;
  Costs.charge t.plat Costs.fddi_input;
  if Msg.length msg < header_bytes then begin
    t.dropped <- t.dropped + 1;
    Msg.destroy msg
  end
  else begin
    let b = Msg.head_view msg ~off:0 ~len:header_bytes in
    let j = Msg.head_pos msg ~off:0 ~len:header_bytes in
    let ethertype = Buf.get_uint16_be b (j + 19) in
    Msg.pop msg header_bytes;
    match Type_map.lookup t.upper ethertype with
    | Some handler ->
      (* The x-kernel pins objects across the upcall with reference
         counts: two counter operations per layer on the fast path. *)
      ignore (Atomic_ctr.incr t.obj_ref);
      handler msg;
      ignore (Atomic_ctr.decr t.obj_ref)
    | None ->
      t.dropped <- t.dropped + 1;
      Msg.destroy msg
  end

let frames_out t = t.frames_out
let frames_dropped t = t.dropped
