open Pnp_engine
open Pnp_util
open Pnp_xkern

let header_bytes = 20
let ethertype = 0x0800
let reass_timeout = Pnp_util.Units.sec 30.0

module Proto_map = Xmap.Make (struct
  type t = int

  let hash x = x * 0x9e3779b1
  let equal = Int.equal
end)

module Frag_key = struct
  type t = { src : int; dst : int; proto : int; id : int }

  let hash k = (k.src * 31) + (k.dst * 17) + (k.proto * 7) + k.id
  let equal a b = a.src = b.src && a.dst = b.dst && a.proto = b.proto && a.id = b.id
end

module Frag_map = Xmap.Make (Frag_key)

type frag_chain = {
  mutable pieces : (int * bool * Msg.t) list; (* (offset, more-fragments, payload) *)
  mutable timeout : Timewheel.handle option;
}

type t = {
  plat : Platform.t;
  pool : Mpool.t;
  wheel : Timewheel.t;
  fddi : Fddi.t;
  local_addr : int;
  obj_ref : Atomic_ctr.t;
  ident : Atomic_ctr.t; (* datagram identifier: atomic increment per datagram *)
  upper : (src:int -> dst:int -> Msg.t -> unit) Proto_map.t;
  frag_lock : Lock.t;
  frags : frag_chain Frag_map.t;
  mutable datagrams_out : int;
  mutable fragments_out : int;
  mutable datagrams_in : int;
  mutable reassemblies : int;
  mutable dropped : int;
  mutable header_failures : int; (* datagrams rejected by header verification *)
}

let make plat pool ~wheel ~fddi ~local_addr ~name =
  let t =
    {
      plat;
      pool;
      wheel;
      fddi;
      local_addr;
      obj_ref = Platform.refcnt plat ~name:(name ^ ".ref") ~init:1;
      ident = Platform.refcnt plat ~name:(name ^ ".ident") ~init:0;
      upper = Proto_map.create plat ~name:(name ^ ".demux") ();
      frag_lock =
        Lock.create plat.Platform.sim plat.Platform.arch Lock.Unfair
          ~name:(name ^ ".fragtab");
      frags = Frag_map.create plat ~name:(name ^ ".frags") ();
      datagrams_out = 0;
      fragments_out = 0;
      datagrams_in = 0;
      reassemblies = 0;
      dropped = 0;
      header_failures = 0;
    }
  in
  t

let register t ~proto handler = Proto_map.insert t.upper proto handler
let local_addr t = t.local_addr

(* The simulated network is one FDDI ring: MAC = IP address. *)
let mac_of_addr addr = addr

let max_payload = Fddi.mtu - header_bytes

(* Push and fill one IP header, its checksum folded from the words just
   written: the whole header is one buffer view and one generation
   bump. *)
let push_header ~src ~proto ~dst ~id ~frag_off ~more_frags msg =
  let total = Msg.length msg + header_bytes in
  let b = Msg.push_header msg header_bytes in
  Buf.set_uint8 b 0 0x45;
  Buf.set_uint8 b 1 0;
  Buf.set_uint16_be b 2 total;
  Buf.set_uint16_be b 4 id;
  Buf.set_uint16_be b 6 (((if more_frags then 1 else 0) lsl 13) lor (frag_off lsr 3));
  Buf.set_uint8 b 8 64;
  Buf.set_uint8 b 9 proto;
  Buf.set_uint16_be b 10 0;
  Buf.set_int32_be b 12 (Int32.of_int src);
  Buf.set_int32_be b 16 (Int32.of_int dst);
  (* Header checksum over the 20 header bytes; cheap, always computed. *)
  let sum = ref 0 in
  for i = 0 to 9 do
    sum := Inet_cksum.add !sum (Buf.get_uint16_be b (2 * i))
  done;
  Buf.set_uint16_be b 10 (Inet_cksum.finish !sum)

let encap msg ~src ~dst ~proto ~id =
  push_header ~src ~proto ~dst ~id ~frag_off:0 ~more_frags:false msg

let send_one t ~proto ~dst ~id ~frag_off ~more_frags msg =
  push_header ~src:t.local_addr ~proto ~dst ~id ~frag_off ~more_frags msg;
  Fddi.output t.fddi ~ethertype ~dst_mac:(mac_of_addr dst) msg

let output t ~proto ~dst msg =
  Costs.charge t.plat Costs.ip_output;
  t.datagrams_out <- t.datagrams_out + 1;
  let id = Atomic_ctr.incr t.ident land 0xffff in
  let len = Msg.length msg in
  if len <= max_payload then send_one t ~proto ~dst ~id ~frag_off:0 ~more_frags:false msg
  else begin
    (* Fragment: offsets must be multiples of 8. *)
    let chunk = max_payload land lnot 7 in
    let rec split off =
      if off < len then begin
        Costs.charge t.plat Costs.ip_frag_per_fragment;
        let this = min chunk (len - off) in
        let frag = Msg.dup msg in
        Msg.pop frag off;
        Msg.truncate frag this;
        t.fragments_out <- t.fragments_out + 1;
        send_one t ~proto ~dst ~id ~frag_off:off ~more_frags:(off + this < len) frag;
        split (off + this)
      end
    in
    split 0;
    Msg.destroy msg
  end

(* Version and header checksum, over a header view at [b.(j)]. *)
let header_ok b j =
  Buf.get_uint8 b j = 0x45
  &&
  let sum = ref 0 in
  for i = 0 to 9 do
    sum := Inet_cksum.add !sum (Buf.get_uint16_be b (j + (2 * i)))
  done;
  !sum = 0xffff

let deliver t ~proto ~src ~dst msg =
  match Proto_map.lookup t.upper proto with
  | Some handler ->
    ignore (Atomic_ctr.incr t.obj_ref);
    handler ~src ~dst msg;
    ignore (Atomic_ctr.decr t.obj_ref)
  | None ->
    t.dropped <- t.dropped + 1;
    Msg.destroy msg

let drop_chain t key chain =
  List.iter (fun (_, _, m) -> Msg.destroy m) chain.pieces;
  chain.pieces <- [];
  ignore (Frag_map.remove t.frags key)

(* If the chain covers a complete datagram, return its total length and
   the fragments in offset order. *)
let try_reassemble chain =
  let sorted = List.sort (fun (a, _, _) (b, _, _) -> compare a b) chain.pieces in
  let rec complete expected = function
    | [] -> false
    | [ (off, more, _) ] -> off = expected && not more
    | (off, more, m) :: rest -> off = expected && more && complete (expected + Msg.length m) rest
  in
  if complete 0 sorted then
    let total = List.fold_left (fun acc (_, _, m) -> acc + Msg.length m) 0 sorted in
    Some (total, List.map (fun (_, _, m) -> m) sorted)
  else None

let header_failure t msg =
  t.dropped <- t.dropped + 1;
  t.header_failures <- t.header_failures + 1;
  Msg.destroy msg

let input t msg =
  Costs.charge t.plat Costs.ip_input;
  if Msg.length msg < header_bytes then header_failure t msg
  else
    let b = Msg.head_view msg ~off:0 ~len:header_bytes in
    let j = Msg.head_pos msg ~off:0 ~len:header_bytes in
    if not (header_ok b j) then header_failure t msg
    else begin
      let proto = Buf.get_uint8 b (j + 9) in
      let id = Buf.get_uint16_be b (j + 4) in
      let flags_off = Buf.get_uint16_be b (j + 6) in
      let more_frags = flags_off land 0x2000 <> 0 in
      let frag_off = (flags_off land 0x1fff) lsl 3 in
      let src = Int32.to_int (Buf.get_int32_be b (j + 12)) land 0xffff_ffff in
      let dst = Int32.to_int (Buf.get_int32_be b (j + 16)) land 0xffff_ffff in
      let total = Buf.get_uint16_be b (j + 2) in
      if dst <> t.local_addr then begin
        (* Not ours, and this host does not forward. *)
        t.dropped <- t.dropped + 1;
        Msg.destroy msg
      end
      else begin
      (* Trim any padding below the declared total length, then strip. *)
      if Msg.length msg > total then Msg.truncate msg total;
      Msg.pop msg header_bytes;
      t.datagrams_in <- t.datagrams_in + 1;
      if (not more_frags) && frag_off = 0 then deliver t ~proto ~src ~dst msg
      else begin
        (* A fragment: file it under the fragment-table lock. *)
        Costs.charge t.plat Costs.ip_reass_per_fragment;
        let key = { Frag_key.src; dst; proto; id } in
        let completed = ref None in
        Lock.with_lock t.frag_lock (fun () ->
            let chain =
              match Frag_map.lookup t.frags key with
              | Some c -> c
              | None ->
                let c = { pieces = []; timeout = None } in
                c.timeout <-
                  Some
                    (Timewheel.schedule t.wheel ~after:reass_timeout (fun () ->
                         Lock.with_lock t.frag_lock (fun () ->
                             t.dropped <- t.dropped + 1;
                             drop_chain t key c)));
                Frag_map.insert t.frags key c;
                c
            in
            chain.pieces <- (frag_off, more_frags, msg) :: chain.pieces;
            match try_reassemble chain with
            | None -> ()
            | Some (total, parts) ->
              (match chain.timeout with
               | Some h -> ignore (Timewheel.cancel t.wheel h)
               | None -> ());
              chain.pieces <- [];
              ignore (Frag_map.remove t.frags key);
              completed := Some (total, parts));
        match !completed with
        | None -> ()
        | Some (total, parts) ->
          (* Copy the fragments into one contiguous datagram, one blit
             each. *)
          let whole = Msg.create t.pool 0 in
          let buf = Msg.push_header whole total in
          let pos = ref 0 in
          List.iter
            (fun m ->
              Msg.blit_to_bytes m buf ~pos:!pos;
              pos := !pos + Msg.length m;
              Msg.destroy m)
            parts;
          Membus.consume ~rate_mb_s:t.plat.Platform.arch.Arch.copy_mb_per_s
            t.plat.Platform.bus ~bytes:total;
          t.reassemblies <- t.reassemblies + 1;
          deliver t ~proto ~src ~dst whole
      end
      end
    end

let create plat pool ~wheel ~fddi ~local_addr ~name =
  let t = make plat pool ~wheel ~fddi ~local_addr ~name in
  Fddi.register fddi ~ethertype (fun msg -> input t msg);
  t

let datagrams_out t = t.datagrams_out
let fragments_out t = t.fragments_out
let datagrams_in t = t.datagrams_in
let reassemblies t = t.reassemblies
let datagrams_dropped t = t.dropped
let header_failures t = t.header_failures
