(* Header codecs over buffer views.  Every encoder writes its header
   through one [Msg.push_header] view and every decoder reads through one
   [Msg.head_view]; these tests pin the bytes against the per-field
   [Msg.set_*] sequences the codecs used before (kept here as the
   reference), the decoders against messages split at every kind of part
   boundary, and the checksum memo against header-node reuse. *)

open Pnp_engine
open Pnp_xkern
open Pnp_proto
open Pnp_driver

let plat () = Platform.create Arch.challenge_100

let in_sim plat body =
  let result = ref None in
  let _ = Sim.spawn plat.Platform.sim ~name:"test" (fun () -> result := Some (body ())) in
  Sim.run ~until:(Pnp_util.Units.sec 30.0) plat.Platform.sim;
  match !result with Some r -> r | None -> Alcotest.fail "simulated thread did not finish"

(* ------------------------------------------------------------------ *)
(* Reference encoders: one accessor call (and one bump) per field       *)
(* ------------------------------------------------------------------ *)

let ref_set_mac msg off mac =
  Msg.set_u16 msg off (mac lsr 32);
  Msg.set_u32 msg (off + 2) (mac land 0xffffffff)

let ref_fddi_encap msg ~src_mac ~dst_mac ~ethertype =
  Msg.push msg Fddi.header_bytes;
  Msg.set_u8 msg 0 0x50;
  ref_set_mac msg 1 dst_mac;
  ref_set_mac msg 7 src_mac;
  Msg.set_u8 msg 13 0xaa;
  Msg.set_u8 msg 14 0xaa;
  Msg.set_u8 msg 15 0x03;
  Msg.set_u8 msg 16 0;
  Msg.set_u16 msg 17 0;
  Msg.set_u16 msg 19 ethertype

let ref_ip_encap msg ~src ~dst ~proto ~id =
  Msg.push msg Ip.header_bytes;
  Msg.set_u8 msg 0 0x45;
  Msg.set_u8 msg 1 0;
  Msg.set_u16 msg 2 (Msg.length msg);
  Msg.set_u16 msg 4 id;
  Msg.set_u16 msg 6 0;
  Msg.set_u8 msg 8 64;
  Msg.set_u8 msg 9 proto;
  Msg.set_u16 msg 10 0;
  Msg.set_u32 msg 12 src;
  Msg.set_u32 msg 16 dst;
  let sum = ref 0 in
  for i = 0 to 9 do
    sum := Inet_cksum.add !sum (Msg.get_u16 msg (2 * i))
  done;
  Msg.set_u16 msg 10 (Inet_cksum.finish !sum)

let ref_tcp_flags f =
  let open Tcp_wire in
  (if f.fin then 1 else 0)
  lor (if f.syn then 2 else 0)
  lor (if f.rst then 4 else 0)
  lor (if f.psh then 8 else 0)
  lor if f.ack then 16 else 0

let ref_tcp_encode msg (h : Tcp_wire.header) =
  Msg.push msg Tcp_wire.header_bytes;
  Msg.set_u16 msg 0 h.sport;
  Msg.set_u16 msg 2 h.dport;
  Msg.set_u32 msg 4 (Tcp_seq.mask h.seq);
  Msg.set_u32 msg 8 (Tcp_seq.mask h.ack);
  Msg.set_u16 msg 12 ((6 lsl 12) lor ref_tcp_flags h.flags);
  Msg.set_u32 msg 14 h.win;
  Msg.set_u16 msg 18 h.cksum;
  Msg.set_u16 msg 20 0;
  Msg.set_u16 msg 22 0

let ref_tcp_checksum_incremental ~src ~dst ~payload_sum msg =
  let len = Msg.length msg in
  Msg.set_u16 msg 18 0;
  let hdr_sum = ref 0 in
  for i = 0 to (Tcp_wire.header_bytes / 2) - 1 do
    hdr_sum := Inet_cksum.add !hdr_sum (Msg.get_u16 msg (2 * i))
  done;
  let total =
    Inet_cksum.add (Inet_cksum.add !hdr_sum payload_sum) (Tcp_wire.pseudo_sum ~src ~dst ~len)
  in
  let ck = Inet_cksum.finish total in
  Msg.set_u16 msg 18 (if ck = 0 then 0xffff else ck)

let ref_udp_encap msg ~src ~dst ~sport ~dport ~checksum =
  let len = Msg.length msg + Udp.header_bytes in
  Msg.push msg Udp.header_bytes;
  Msg.set_u16 msg 0 sport;
  Msg.set_u16 msg 2 dport;
  Msg.set_u16 msg 4 len;
  Msg.set_u16 msg 6 0;
  if checksum then begin
    let pseudo =
      let open Inet_cksum in
      let s = add (src lsr 16) (src land 0xffff) in
      let s = add s (dst lsr 16) in
      let s = add s (dst land 0xffff) in
      let s = add s Udp.protocol_number in
      add s len
    in
    let ck = Inet_cksum.finish (Inet_cksum.add (Inet_cksum.sum_slices msg) pseudo) in
    Msg.set_u16 msg 6 (if ck = 0 then 0xffff else ck)
  end

let ref_pres_convert pool msg =
  let len = Msg.length msg in
  let out = Msg.create pool len in
  let buf = Bytes.of_string (Msg.to_string msg) in
  for w = 0 to (len / 4) - 1 do
    let base = 4 * w in
    let b0 = Bytes.get buf base and b1 = Bytes.get buf (base + 1) in
    let b2 = Bytes.get buf (base + 2) and b3 = Bytes.get buf (base + 3) in
    Bytes.set buf base b3;
    Bytes.set buf (base + 1) b2;
    Bytes.set buf (base + 2) b1;
    Bytes.set buf (base + 3) b0
  done;
  for i = 0 to len - 1 do
    Msg.set_u8 out i (Char.code (Bytes.get buf i))
  done;
  Msg.destroy msg;
  out

(* ------------------------------------------------------------------ *)
(* Seeded random fields                                                *)
(* ------------------------------------------------------------------ *)

let rng () = Random.State.make [| 16 |]
let bits st n = Random.State.full_int st (1 lsl n)
let cases = 200

let random_header st =
  {
    Tcp_wire.sport = bits st 16;
    dport = bits st 16;
    seq = bits st 32;
    ack = bits st 32;
    flags = Tcp_wire.flags_of_int (bits st 5);
    win = bits st 32;
    cksum = bits st 16;
  }

let random_payload st = String.init (Random.State.int st 64) (fun _ -> Char.chr (bits st 8))

(* Build the same header both ways over copies of one payload and compare
   the wire bytes. *)
let same_bytes pool ~what payload build reference =
  let a = Msg.of_string pool payload and b = Msg.of_string pool payload in
  build a;
  reference b;
  Alcotest.(check string) what (Msg.to_string b) (Msg.to_string a);
  Msg.destroy a;
  Msg.destroy b

let test_encoders_match_reference () =
  let p = plat () in
  let pool = Mpool.create p in
  let st = rng () in
  in_sim p (fun () ->
      for _ = 1 to cases do
        let payload = random_payload st in
        let src_mac = bits st 48 and dst_mac = bits st 48 and ethertype = bits st 16 in
        same_bytes pool ~what:"fddi" payload
          (fun m -> Fddi.encap m ~src_mac ~dst_mac ~ethertype)
          (fun m -> ref_fddi_encap m ~src_mac ~dst_mac ~ethertype);
        let src = bits st 32 and dst = bits st 32 in
        let proto = bits st 8 and id = bits st 16 in
        same_bytes pool ~what:"ip" payload
          (fun m -> Ip.encap m ~src ~dst ~proto ~id)
          (fun m -> ref_ip_encap m ~src ~dst ~proto ~id);
        let h = random_header st in
        same_bytes pool ~what:"tcp encode" payload
          (fun m -> Tcp_wire.encode m h)
          (fun m -> ref_tcp_encode m h);
        let h0 = { h with Tcp_wire.cksum = 0 } in
        same_bytes pool ~what:"tcp encode_empty" ""
          (fun m -> Tcp_wire.encode_empty m h0 ~src ~dst ~checksum:true)
          (fun m ->
            ref_tcp_encode m h0;
            Tcp_wire.store_checksum_free ~src ~dst m);
        same_bytes pool ~what:"tcp encode_empty, no checksum" ""
          (fun m -> Tcp_wire.encode_empty m h0 ~src ~dst ~checksum:false)
          (fun m -> ref_tcp_encode m h0);
        let payload_sum =
          let m = Msg.of_string pool payload in
          let s = Inet_cksum.sum_slices m in
          Msg.destroy m;
          s
        in
        same_bytes pool ~what:"tcp incremental checksum" payload
          (fun m ->
            Tcp_wire.encode m h;
            Tcp_wire.store_checksum_incremental ~src ~dst ~payload_sum m)
          (fun m ->
            ref_tcp_encode m h;
            ref_tcp_checksum_incremental ~src ~dst ~payload_sum m);
        let sport = bits st 16 and dport = bits st 16 in
        List.iter
          (fun checksum ->
            same_bytes pool ~what:"udp" payload
              (fun m -> Udp.encap_free m ~src ~dst ~sport ~dport ~checksum)
              (fun m -> ref_udp_encap m ~src ~dst ~sport ~dport ~checksum))
          [ true; false ];
        same_bytes pool ~what:"frame" payload
          (fun m ->
            ignore
              (Frame.build_tcp pool ~src ~dst ~sport:h.sport ~dport:h.dport ~seq:h.seq ~ack:h.ack
                 ~flags:h.flags ~win:h.win ~payload:(Some m) ~checksum:true))
          (fun m ->
            ref_tcp_encode m { h with Tcp_wire.cksum = 0 };
            Tcp_wire.store_checksum_free ~src ~dst m;
            ref_ip_encap m ~src ~dst ~proto:Tcp_wire.protocol_number ~id:0;
            ref_fddi_encap m ~src_mac:src ~dst_mac:dst ~ethertype:Ip.ethertype)
      done)

let test_pres_matches_reference () =
  let p = plat () in
  let pool = Mpool.create p in
  let st = rng () in
  in_sim p (fun () ->
      for _ = 1 to cases do
        let payload = random_payload st in
        let a = Pres.encode p pool (Msg.of_string pool payload) in
        let b = ref_pres_convert pool (Msg.of_string pool payload) in
        Alcotest.(check string) "converted bytes" (Msg.to_string b) (Msg.to_string a);
        Alcotest.(check int) "one part" (Msg.parts b) (Msg.parts a);
        Msg.destroy a;
        Msg.destroy b
      done)

(* ------------------------------------------------------------------ *)
(* Decoders across part layouts                                         *)
(* ------------------------------------------------------------------ *)

(* [s] as a message whose parts end at [cuts] (ascending offsets). *)
let split_msg pool s cuts =
  let rec go from = function
    | [] -> [ String.sub s from (String.length s - from) ]
    | c :: rest -> String.sub s from (c - from) :: go c rest
  in
  match List.map (Msg.of_string pool) (go 0 cuts) with
  | [] -> assert false
  | m :: rest ->
    List.iter (fun r -> Msg.append m r) rest;
    m

(* Layouts: one part, one part per layer, and fronts shorter than each
   header (inside the FDDI, IP and TCP headers). *)
let layouts = [ []; [ 21; 41; 65 ]; [ 5 ]; [ 21; 30 ]; [ 3; 25; 50 ]; [ 41; 47 ] ]

let fields (h : Tcp_wire.header) =
  [ h.sport; h.dport; h.seq; h.ack; ref_tcp_flags h.flags; h.win ]

let tcp_off = Fddi.header_bytes + Ip.header_bytes

let test_tcp_decoders_across_parts () =
  let p = plat () in
  let pool = Mpool.create p in
  let st = rng () in
  in_sim p (fun () ->
      for _ = 1 to 40 do
        let h = random_header st in
        let payload = random_payload st ^ "tail" in
        let src = bits st 32 and dst = bits st 32 in
        let frame =
          Frame.build_tcp pool ~src ~dst ~sport:h.sport ~dport:h.dport ~seq:h.seq ~ack:h.ack
            ~flags:h.flags ~win:h.win ~payload:(Some (Msg.of_string pool payload))
            ~checksum:true
        in
        Alcotest.(check int) "one node per header plus payload" 4 (Msg.parts frame);
        let wire = Msg.to_string frame in
        List.iteri
          (fun k m ->
            let what = Printf.sprintf "layout %d" k in
            (match Frame.parse_tcp m with
             | None -> Alcotest.fail (what ^ ": parse_tcp rejected the frame")
             | Some v ->
               Alcotest.(check (list int)) (what ^ " parse_tcp")
                 (dst :: fields h)
                 [ v.Frame.dst; v.sport; v.dport; v.seq; v.ack; ref_tcp_flags v.flags; v.win ];
               Alcotest.(check int) (what ^ " payload") (String.length payload) v.payload_len);
            (* Strip the link and network headers as the stack does, then
               decode TCP from whatever part now leads. *)
            Msg.pop m tcp_off;
            (match Tcp_wire.decode m with
             | None -> Alcotest.fail (what ^ ": decode rejected the segment")
             | Some got -> Alcotest.(check (list int)) (what ^ " decode") (fields h) (fields got));
            Alcotest.(check bool) (what ^ " checksum") true (Tcp_wire.checksum_valid ~src ~dst m);
            Msg.destroy m)
          (frame :: List.map (split_msg pool wire) layouts)
      done)

(* FDDI, IP and UDP decode inside their [input] paths: feed the stack
   frames split at every layout and check what reaches the session. *)
let test_stack_input_across_parts () =
  let p = plat () in
  let stack = Stack.create p ~local_addr:0x0a000001 () in
  let got = ref [] in
  in_sim p (fun () ->
      let _sess =
        Udp.open_session stack.Stack.udp ~local_port:53 ~remote_addr:0x0a000002
          ~remote_port:9999 ~recv:(fun m ->
            got := Msg.to_string m :: !got;
            Msg.destroy m)
      in
      Ip.register stack.Stack.ip ~proto:99 (fun ~src ~dst m ->
          got := Printf.sprintf "%x>%x %s" src dst (Msg.to_string m) :: !got;
          Msg.destroy m);
      let udp =
        Msg.to_string
          (Frame.build_udp stack.Stack.pool ~src:0x0a000002 ~dst:0x0a000001 ~sport:9999
             ~dport:53 ~payload:(Msg.of_string stack.Stack.pool "datagram payload")
             ~checksum:true)
      in
      let raw =
        let m = Msg.of_string stack.Stack.pool "raw ip payload" in
        Ip.encap m ~src:0x0a000002 ~dst:0x0a000001 ~proto:99 ~id:3;
        Fddi.encap m ~src_mac:0x0a000002 ~dst_mac:0x0a000001 ~ethertype:Ip.ethertype;
        let s = Msg.to_string m in
        Msg.destroy m;
        s
      in
      List.iter
        (fun cuts ->
          got := [];
          Fddi.input stack.Stack.fddi (split_msg stack.Stack.pool udp cuts);
          Fddi.input stack.Stack.fddi (split_msg stack.Stack.pool raw cuts);
          Alcotest.(check (list string))
            (Printf.sprintf "delivered (%d cuts)" (List.length cuts))
            [ "datagram payload"; "a000002>a000001 raw ip payload" ]
            (List.rev !got))
        ([] :: List.map (List.filter (fun c -> c < 49)) layouts);
      Alcotest.(check int) "no drops" 0
        (Udp.datagrams_dropped stack.Stack.udp + Ip.datagrams_dropped stack.Stack.ip))

(* ------------------------------------------------------------------ *)
(* Checksum memo                                                       *)
(* ------------------------------------------------------------------ *)

let front_node msg =
  let node = ref None in
  Msg.iter_parts msg (fun n _ _ -> if !node = None then node := Some n);
  Option.get !node

(* A header node freed with a cached sum comes back from the thread's
   LIFO cache for the next header: its write bump must retire the old
   sum, and the fresh sum must be the new bytes'. *)
let test_reencode_invalidates_sum () =
  let p = plat () in
  let pool = Mpool.create p in
  let st = rng () in
  in_sim p (fun () ->
      for _ = 1 to 20 do
        let h1 = random_header st and h2 = random_header st in
        let a = Msg.create pool 0 in
        Tcp_wire.encode a h1;
        let n1 = front_node a in
        let s1 = Inet_cksum.sum_slices a in
        Alcotest.(check int) "first sum cached" s1
          (Mpool.cached_sum n1 ~off:0 ~len:Tcp_wire.header_bytes);
        Msg.destroy a;
        let b = Msg.create pool 0 in
        Tcp_wire.encode b h2;
        let n2 = front_node b in
        Alcotest.(check bool) "same node reused" true (Mpool.data n1 == Mpool.data n2);
        Alcotest.(check int) "stale sum retired" (-1)
          (Mpool.cached_sum n2 ~off:0 ~len:Tcp_wire.header_bytes);
        let fresh = Inet_cksum.sum_bytes (Mpool.data n2) 0 Tcp_wire.header_bytes in
        Alcotest.(check int) "sum of the new bytes" fresh (Inet_cksum.sum_slices b);
        (* A checksum stored after the sum bumps again. *)
        Tcp_wire.store_checksum_free ~src:1 ~dst:2 b;
        Alcotest.(check int) "store retires the sum" (-1)
          (Mpool.cached_sum n2 ~off:0 ~len:Tcp_wire.header_bytes);
        Alcotest.(check bool) "stored checksum verifies" true
          (Tcp_wire.checksum_valid ~src:1 ~dst:2 b);
        Msg.destroy b;
        (* The coalesced path primes the memo with its arithmetic sum. *)
        let c = Msg.create pool 0 in
        Tcp_wire.encode_empty c { h1 with cksum = 0 } ~src:1 ~dst:2 ~checksum:true;
        let n3 = front_node c in
        Alcotest.(check bool) "reused again" true (Mpool.data n1 == Mpool.data n3);
        Alcotest.(check int) "primed sum is the bytes' sum"
          (Inet_cksum.sum_bytes (Mpool.data n3) 0 Tcp_wire.header_bytes)
          (Mpool.cached_sum n3 ~off:0 ~len:Tcp_wire.header_bytes);
        Msg.destroy c
      done)

(* ------------------------------------------------------------------ *)
(* Fill-time pattern sums                                              *)
(* ------------------------------------------------------------------ *)

let with_sum_cache on f =
  let was = Mpool.sum_cache_enabled () in
  Mpool.set_sum_cache on;
  Fun.protect ~finally:(fun () -> Mpool.set_sum_cache was) f

(* Fill [len] pattern bytes at stream offset [phase] into a node, at node
   index [skip], and return the memoised sum next to a scan of the bytes
   the fill wrote. *)
let filled_sums pool ~skip ~len ~phase =
  let m = Msg.create pool (skip + len) in
  Msg.fill_pattern m ~off:skip ~len ~stream_off:phase;
  let node = front_node m in
  let memo = Mpool.cached_sum node ~off:skip ~len in
  let scan = Inet_cksum.sum_bytes (Mpool.data node) skip len in
  Msg.destroy m;
  (memo, scan)

(* Every phase of the 251-byte period, even and odd, at every short
   length and the MTU-sized ones (4608 is the largest cached node class). *)
let test_fill_sums_every_phase () =
  let p = plat () in
  let pool = Mpool.create p in
  let lens = List.init 65 Fun.id @ [ 4095; 4096; 4352; 4608 ] in
  with_sum_cache true (fun () ->
      in_sim p (fun () ->
          for phase = 0 to 250 do
            List.iter
              (fun len ->
                if len > 0 then
                  List.iter
                    (fun skip ->
                      let memo, scan = filled_sums pool ~skip ~len ~phase in
                      if memo <> scan then
                        Alcotest.failf "phase %d len %d skip %d: memo %#x, bytes %#x" phase
                          len skip memo scan)
                    [ 0; 1 ]
                else begin
                  let m = Msg.create pool 0 in
                  Msg.fill_pattern m ~off:0 ~len:0 ~stream_off:phase;
                  Alcotest.(check int) "empty fill sums to 0" 0 (Inet_cksum.sum_slices m)
                end)
              lens
          done;
          (* Beyond one blit chunk (7781 bytes, an odd count), the second
             chunk starts at an odd index of the range. *)
          List.iter
            (fun phase ->
              let memo, scan = filled_sums pool ~skip:0 ~len:16_001 ~phase in
              Alcotest.(check int) "multi-chunk fill" scan memo)
            [ 0; 1; 250 ]))

let prop_fill_sums_random =
  QCheck.Test.make ~name:"fill-time sum equals the filled bytes' sum" ~count:300
    QCheck.(triple (int_bound 4608) (int_bound 100_000) (int_bound 3))
    (fun (len, stream_off, skip) ->
      let p = plat () in
      let pool = Mpool.create p in
      with_sum_cache true (fun () ->
          in_sim p (fun () ->
              len = 0
              ||
              let memo, scan = filled_sums pool ~skip ~len ~phase:stream_off in
              memo = scan)))

(* A multi-part payload whose first part has odd length: the second
   part's memoised sum enters [sum_slices] swapped, and the total must be
   the one a scan of every byte gives. *)
let test_fill_sums_multi_part () =
  let p = plat () in
  let pool = Mpool.create p in
  with_sum_cache true (fun () ->
      in_sim p (fun () ->
          List.iter
            (fun stream_off ->
              let m = Msg.create pool 4096 in
              Msg.push m 13;
              Msg.fill_pattern m ~off:0 ~len:(Msg.length m) ~stream_off;
              Alcotest.(check int) "two parts" 2 (Msg.parts m);
              let memo_on = Inet_cksum.sum_slices m in
              let flat = Bytes.of_string (Msg.to_string m) in
              let scan = Inet_cksum.sum_bytes flat 0 (Bytes.length flat) in
              let memo_off = with_sum_cache false (fun () -> Inet_cksum.sum_slices m) in
              Alcotest.(check int) "memo on = memo off" memo_off memo_on;
              Alcotest.(check int) "memo on = flat scan" scan memo_on;
              Msg.destroy m)
            [ 0; 1; 2; 125; 250 ]))

let suites =
  [
    ( "proto.codec",
      [
        Alcotest.test_case "encoders match per-field reference bytes" `Quick
          test_encoders_match_reference;
        Alcotest.test_case "pres convert matches per-byte reference" `Quick
          test_pres_matches_reference;
        Alcotest.test_case "tcp decoders across part layouts" `Quick
          test_tcp_decoders_across_parts;
        Alcotest.test_case "stack input across part layouts" `Quick
          test_stack_input_across_parts;
        Alcotest.test_case "re-encoding a header node retires its cached sum" `Quick
          test_reencode_invalidates_sum;
        Alcotest.test_case "fill-time sums at every phase" `Quick test_fill_sums_every_phase;
        Qrand.to_alcotest prop_fill_sums_random;
        Alcotest.test_case "fill-time sums across an odd first part" `Quick
          test_fill_sums_multi_part;
      ] );
  ]
