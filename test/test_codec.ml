(* Header codecs over buffer views.  Every encoder writes its header
   through one [Msg.push_header] view and every decoder reads through one
   [Msg.head_view]; these tests pin the bytes against the per-field
   [Msg.set_*] sequences the codecs used before (kept here as the
   reference), the decoders against messages split at every kind of part
   boundary, and the checksum memo against header-node reuse and against
   a scan of the bytes after every step of random message programs. *)

open Pnp_engine
open Pnp_util
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
  Option.get (Msg.fold_parts msg (fun acc n _ _ -> if acc = None then Some n else acc) None)

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
        let fresh = Inet_cksum.sum (Mpool.data n2) 0 Tcp_wire.header_bytes in
        Alcotest.(check int) "sum of the new bytes" fresh (Inet_cksum.sum_slices b);
        (* A checksum stored after the sum bumps again. *)
        Tcp_wire.store_checksum_free ~src:1 ~dst:2 b;
        Alcotest.(check int) "store retires the sum" (-1)
          (Mpool.cached_sum n2 ~off:0 ~len:Tcp_wire.header_bytes);
        Alcotest.(check bool) "stored checksum verifies" true
          (Tcp_wire.checksum_valid ~src:1 ~dst:2 b);
        Msg.destroy b
      done)

(* ------------------------------------------------------------------ *)
(* Fill-time pattern sums                                              *)
(* ------------------------------------------------------------------ *)

(* The reference: a scan of the message's bytes, flattened. *)
let scan_sum m =
  let flat = Bytes.of_string (Msg.to_string m) in
  Inet_cksum.sum_bytes flat 0 (Bytes.length flat)

(* Fill [len] pattern bytes at stream offset [phase] into a node, at node
   index [skip], and return the memoised sum next to a scan of the bytes
   the fill wrote. *)
let filled_sums pool ~skip ~len ~phase =
  let m = Msg.create pool (skip + len) in
  Msg.fill_pattern m ~off:skip ~len ~stream_off:phase;
  let node = front_node m in
  let memo = Mpool.cached_sum node ~off:skip ~len in
  let scan = Inet_cksum.sum (Mpool.data node) skip len in
  Msg.destroy m;
  (memo, scan)

(* Every phase of the 251-byte period, even and odd, at every short
   length and the MTU-sized ones (4608 is the largest cached node class). *)
let test_fill_sums_every_phase () =
  let p = plat () in
  let pool = Mpool.create p in
  let lens = List.init 65 Fun.id @ [ 4095; 4096; 4352; 4608 ] in
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
        [ 0; 1; 250 ])

let prop_fill_sums_random =
  QCheck.Test.make ~name:"fill-time sum equals the filled bytes' sum" ~count:300
    QCheck.(triple (int_bound 4608) (int_bound 100_000) (int_bound 3))
    (fun (len, stream_off, skip) ->
      let p = plat () in
      let pool = Mpool.create p in
      in_sim p (fun () ->
          len = 0
          ||
          let memo, scan = filled_sums pool ~skip ~len ~phase:stream_off in
          memo = scan))

(* A multi-part payload whose first part has odd length: the second
   part's memoised sum enters [sum_slices] swapped, and the total must be
   the one a scan of every byte gives. *)
let test_fill_sums_multi_part () =
  let p = plat () in
  let pool = Mpool.create p in
  in_sim p (fun () ->
      List.iter
        (fun stream_off ->
          let m = Msg.create pool 4096 in
          Msg.push m 13;
          Msg.fill_pattern m ~off:0 ~len:(Msg.length m) ~stream_off;
          Alcotest.(check int) "two parts" 2 (Msg.parts m);
          Alcotest.(check int) "memoised = flat scan" (scan_sum m)
            (Inet_cksum.sum_slices m);
          Msg.destroy m)
        [ 0; 1; 2; 125; 250 ])

(* ------------------------------------------------------------------ *)
(* Memoised sums against the scan, over random message programs        *)
(* ------------------------------------------------------------------ *)

(* One step of a program, applied to one of two messages that start as a
   message and its [Msg.dup].  Offsets and lengths are taken modulo the
   target's current length, and a step that needs bytes the target lacks
   does nothing. *)
type op =
  | Fill of int * int * int (* off, len, stream offset *)
  | Header of int * int (* push_header of 1..64 bytes, their first byte *)
  | Set_u16 of int * int
  | Set_u8 of int * int
  | Pop of int
  | Truncate of int
  | Append of int * int (* a fresh pattern-filled message: length, stream offset *)
  | Append_dup (* a [Msg.dup] of the other message *)
  | Unshare of int

let show_op = function
  | Fill (o, l, s) -> Printf.sprintf "fill %d %d %d" o l s
  | Header (n, b) -> Printf.sprintf "header %d %d" n b
  | Set_u16 (o, v) -> Printf.sprintf "set_u16 %d %d" o v
  | Set_u8 (o, v) -> Printf.sprintf "set_u8 %d %d" o v
  | Pop n -> Printf.sprintf "pop %d" n
  | Truncate n -> Printf.sprintf "truncate %d" n
  | Append (n, s) -> Printf.sprintf "append %d %d" n s
  | Append_dup -> "append_dup"
  | Unshare o -> Printf.sprintf "unshare %d" o

let gen_op =
  let open QCheck.Gen in
  let pos = int_bound 10_000 in
  oneof
    [
      map3 (fun o l s -> Fill (o, l, s)) pos pos pos;
      map2 (fun n b -> Header (1 + n, b)) (int_bound 63) (int_bound 255);
      map2 (fun o v -> Set_u16 (o, v)) pos (int_bound 0xffff);
      map2 (fun o v -> Set_u8 (o, v)) pos (int_bound 255);
      map (fun n -> Pop n) pos;
      map (fun n -> Truncate n) pos;
      map2 (fun n s -> Append (n, s)) (int_bound 5000) pos;
      return Append_dup;
      map (fun o -> Unshare o) pos;
    ]

let apply pool ~target ~other op =
  let len = Msg.length target in
  match op with
  | Fill (o, l, s) when len > 0 ->
    let off = o mod len in
    Msg.fill_pattern target ~off ~len:(l mod (len - off + 1)) ~stream_off:s
  | Header (n, b) ->
    let buf = Msg.push_header target n in
    for i = 0 to n - 1 do
      Buf.set_uint8 buf i ((b + (i * 37)) land 0xff)
    done
  | Set_u16 (o, v) when len >= 2 -> Msg.set_u16 target (o mod (len - 1)) v
  | Set_u8 (o, v) when len > 0 -> Msg.set_u8 target (o mod len) v
  | Pop n -> Msg.pop target (n mod (len + 1))
  | Truncate n -> Msg.truncate target (n mod (len + 1))
  | Append (n, s) ->
    let m = Msg.create pool n in
    Msg.fill_pattern m ~off:0 ~len:n ~stream_off:s;
    Msg.append target m
  | Append_dup when len + Msg.length other <= 30_000 -> Msg.append target (Msg.dup other)
  | Unshare o when len > 0 -> Msg.unshare target ~off:(o mod len)
  | Fill _ | Set_u16 _ | Set_u8 _ | Append_dup | Unshare _ -> ()

(* After every step, [Inet_cksum.sum_slices] of each message (served by
   the per-node memo wherever it holds) equals the scan of its bytes.
   Writes through one message reach the other's shared nodes, so a
   mutator that forgets its generation bump shows as a stale sum on
   either side. *)
let prop_memo_matches_scan =
  QCheck.Test.make ~name:"random programs: memoised sums equal the scan" ~count:300
    QCheck.(
      make
        ~print:Print.(triple int int (list (pair bool show_op)))
        ~shrink:Shrink.(triple nil nil list)
        Gen.(triple (int_bound 5000) (int_bound 10_000) (list_size (1 -- 30) (pair bool gen_op))))
    (fun (len, stream_off, program) ->
      let p = plat () in
      let pool = Mpool.create p in
      let failure =
        in_sim p (fun () ->
            let a = Msg.create pool len in
            Msg.fill_pattern a ~off:0 ~len ~stream_off;
            let b = Msg.dup a in
            let check step =
              List.find_map
                (fun (name, m) ->
                  let memo = Inet_cksum.sum_slices m and scan = scan_sum m in
                  if memo = scan then None
                  else
                    Some
                      (Printf.sprintf "step %d, message %s (%d parts): memo %#x, scan %#x" step
                         name (Msg.parts m) memo scan))
                [ ("a", a); ("b", b) ]
            in
            let rec run step = function
              | [] -> check step
              | (on_a, op) :: rest -> (
                match check step with
                | Some _ as f -> f
                | None ->
                  let target, other = if on_a then (a, b) else (b, a) in
                  apply pool ~target ~other op;
                  run (step + 1) rest)
            in
            let failure = run 0 program in
            Msg.destroy a;
            Msg.destroy b;
            if failure = None && Mpool.live_nodes pool <> 0 then
              Some (Printf.sprintf "%d nodes live after both destroyed" (Mpool.live_nodes pool))
            else failure)
      in
      match failure with None -> true | Some f -> QCheck.Test.fail_report f)

(* The incast receiver digests a delivered message slice by slice, with
   no [Msg.to_string] copy: after a random program, the FNV digest
   folded over the message's parts equals the digest of its bytes. *)
let prop_slice_digest_matches_string =
  QCheck.Test.make ~name:"random programs: slice digest equals string digest" ~count:200
    QCheck.(
      make
        ~print:Print.(pair int (list show_op))
        ~shrink:Shrink.(pair nil list)
        Gen.(pair (int_bound 5000) (list_size (1 -- 20) gen_op)))
    (fun (len, program) ->
      let p = plat () in
      let pool = Mpool.create p in
      in_sim p (fun () ->
          let a = Msg.create pool len in
          Msg.fill_pattern a ~off:0 ~len ~stream_off:len;
          let b = Msg.dup a in
          List.iter (apply pool ~target:a ~other:b) program;
          let h0 = Pnp_analysis.Recovery.digest "" in
          let sliced =
            Msg.fold_parts a
              (fun h node off len -> Pnp_analysis.Recovery.digest_add h (Mpool.data node) off len)
              h0
          in
          let whole = Pnp_analysis.Recovery.digest (Msg.to_string a) in
          let parts = Msg.parts a in
          Msg.destroy a;
          Msg.destroy b;
          sliced = whole
          || QCheck.Test.fail_reportf "%d parts: slices %#x, string %#x" parts sliced whole))

(* [sum_slices] folds its parts with a closed step and an immediate
   accumulator: a checksum of a two-part message (a header pushed on an
   odd-length payload, so the second part is summed byte-swapped)
   allocates nothing, whether the node memo misses or hits. *)
let test_sum_slices_no_alloc () =
  let p = plat () in
  let pool = Mpool.create p in
  in_sim p (fun () ->
      let m = Msg.create pool 1001 in
      Msg.fill_pattern m ~off:0 ~len:1001 ~stream_off:0;
      ignore (Msg.push_header m 20);
      Alcotest.(check int) "two parts" 2 (Msg.parts m);
      let words f =
        let before = Gc.minor_words () in
        f ();
        Gc.minor_words () -. before
      in
      let sum = ref 0 in
      let first () = sum := Inet_cksum.sum_slices m in
      let again () =
        for _ = 1 to 1000 do
          sum := Inet_cksum.sum_slices m
        done
      in
      Alcotest.(check (float 0.)) "minor words of a sum that fills the memo" (words ignore)
        (words first);
      Alcotest.(check (float 0.)) "minor words of 1000 memoised sums" (words ignore) (words again);
      Alcotest.(check int) "equals the scan" (scan_sum m) !sum;
      Msg.destroy m)

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
        Qrand.to_alcotest prop_memo_matches_scan;
        Qrand.to_alcotest prop_slice_digest_matches_string;
        Alcotest.test_case "a two-part checksum allocates nothing" `Quick
          test_sum_slices_no_alloc;
      ] );
  ]
