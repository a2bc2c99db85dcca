open Pnp_engine
open Pnp_util
open Pnp_xkern
open Pnp_proto

type stream = {
  src_addr : int;
  drv_port : int;
  rcv_port : int;
  iss : int;
  mutable snd_nxt : int;
  mutable snd_una : int; (* last cumulative ack from the receiver *)
  mutable peer_win : int;
  mutable peer_ack : int; (* what we acknowledge of the receiver's seqs *)
  mutable established : bool;
  ring_lock : Lock.t;
}

(* Keyed by [(addr lsl 16) lor port]: no tuple allocated per ACK. *)
module Key_tbl = Hashtbl.Make (Int)

let key addr port = (addr lsl 16) lor port

type t = {
  stack : Stack.t;
  payload : int;
  checksum : bool;
  jitter_mean_ns : float;
  sequential_payload : bool;
  payload_tmpl : Msg.t; (* preconstructed payload shared by all segments *)
  streams : stream array;
  by_key : stream Key_tbl.t; (* (src addr, driver port) -> stream *)
  jitter : Prng.t;
  mutable stalls : int;
}

let plat t = t.stack.Stack.plat

(* Acks come back addressed to the stream's source address and driver
   port; both are needed once the port space is reused across addresses
   (beyond 2^14 streams). *)
let find_stream t addr port = Key_tbl.find_opt t.by_key (key addr port)

(* Acks (and the SYN-ACK) from the real receiver arrive here. *)
let handle t frame =
  Costs.charge (plat t) Costs.driver_xmit;
  (match Frame.parse_tcp frame with
   | None -> ()
   | Some v -> (
     match find_stream t v.Frame.dst v.Frame.dport with
     | None -> ()
     | Some s ->
       if v.Frame.flags.Tcp_wire.syn && v.Frame.flags.Tcp_wire.ack then begin
         (* SYN-ACK of our handshake: finish it. *)
         s.peer_ack <- Tcp_seq.add v.Frame.seq 1;
         s.snd_una <- v.Frame.ack;
         s.peer_win <- v.Frame.win;
         s.established <- true;
         let ack =
           Frame.build_tcp t.stack.Stack.pool ~src:s.src_addr
             ~dst:t.stack.Stack.local_addr ~sport:s.drv_port ~dport:s.rcv_port
             ~seq:s.snd_nxt ~ack:s.peer_ack ~flags:Tcp_wire.flag_ack
             ~win:(1 lsl 20) ~payload:None ~checksum:t.checksum
         in
         Fddi.input t.stack.Stack.fddi ack
       end
       else begin
         if v.Frame.flags.Tcp_wire.ack && Tcp_seq.gt v.Frame.ack s.snd_una then
           s.snd_una <- v.Frame.ack;
         s.peer_win <- v.Frame.win;
         if v.Frame.flags.Tcp_wire.fin then
           s.peer_ack <- Tcp_seq.add (Tcp_seq.add v.Frame.seq v.Frame.payload_len) 1
       end));
  Msg.destroy frame

let attach stack ~peer_addr ~payload ~checksum ?(jitter_mean_ns = 8000.0)
    ?(sequential_payload = false) ?(iss_base = 0x10000000) ?addr_of ~ports () =
  let addr_of = match addr_of with Some f -> f | None -> fun _ -> peer_addr in
  let streams =
    Array.of_list
      (List.mapi
         (fun j (drv_port, rcv_port) ->
           let iss = Pnp_proto.Tcp_seq.mask (iss_base + drv_port) in
           {
             src_addr = addr_of j;
             drv_port;
             rcv_port;
             iss;
             snd_nxt = iss;
             snd_una = iss;
             peer_win = 0;
             peer_ack = 0;
             established = false;
             ring_lock =
               Lock.create stack.Stack.plat.Platform.sim stack.Stack.plat.Platform.arch
                 Lock.Unfair
                 ~name:("driver.ring." ^ string_of_int j);
           })
         ports)
  in
  let by_key = Key_tbl.create (max 16 (2 * Array.length streams)) in
  Array.iter
    (fun s ->
      if s.drv_port land 0xffff <> s.drv_port then
        invalid_arg "Tcp_source.attach: driver port outside 0..65535";
      if Key_tbl.mem by_key (key s.src_addr s.drv_port) then
        invalid_arg "Tcp_source.attach: duplicate (source address, driver port)";
      Key_tbl.replace by_key (key s.src_addr s.drv_port) s)
    streams;
  let payload_tmpl = Msg.create stack.Stack.pool payload in
  Msg.fill_pattern payload_tmpl ~off:0 ~len:payload ~stream_off:0;
  let t =
    {
      stack;
      payload;
      checksum;
      jitter_mean_ns;
      sequential_payload;
      payload_tmpl;
      streams;
      by_key;
      jitter = Prng.split (Sim.prng stack.Stack.plat.Platform.sim);
      stalls = 0;
    }
  in
  Fddi.set_transmit stack.Stack.fddi (fun frame -> handle t frame);
  t

let start_range t ~first ~last =
  if first < 0 || last > Array.length t.streams || first > last then
    invalid_arg "Tcp_source.start_range: bad stream range";
  for j = first to last - 1 do
    let s = t.streams.(j) in
    let syn =
      Frame.build_tcp t.stack.Stack.pool ~src:s.src_addr ~dst:t.stack.Stack.local_addr
        ~sport:s.drv_port ~dport:s.rcv_port ~seq:s.iss ~ack:0 ~flags:Tcp_wire.flag_syn
        ~win:(1 lsl 20) ~payload:None ~checksum:t.checksum
    in
    s.snd_nxt <- Tcp_seq.add s.iss 1;
    Fddi.input t.stack.Stack.fddi syn;
    if not s.established then
      failwith "Tcp_source.start: handshake did not complete synchronously"
  done

(* Handshake every stream, serially, from the calling thread. *)
let start t = start_range t ~first:0 ~last:(Array.length t.streams)

type reserved = { r_stream : int; r_seq : int }

(* Pin the next sequence number of [stream] under the ring lock.  In the
   classic feeders reservation and injection are back-to-back ([next]);
   the steered NIC reserves at arrival time and injects whenever the
   owning worker drains its queue, so a reservation can sit behind
   younger reservations of the same stream on another worker's queue —
   that gap is the Flow-Director reordering. *)
let reserve t ~stream =
  let s = t.streams.(stream) in
  let p = plat t in
  Lock.acquire s.ring_lock;
  Costs.charge p Costs.driver_recv;
  if not s.established then begin
    Lock.release s.ring_lock;
    None
  end
  else begin
    let in_flight = Tcp_seq.diff s.snd_nxt s.snd_una in
    if in_flight + t.payload > s.peer_win then begin
      t.stalls <- t.stalls + 1;
      Lock.release s.ring_lock;
      None
    end
    else begin
      let seq = s.snd_nxt in
      s.snd_nxt <- Tcp_seq.add s.snd_nxt t.payload;
      Lock.release s.ring_lock;
      Some { r_stream = stream; r_seq = seq }
    end
  end

let inject t { r_stream; r_seq = seq } =
  let s = t.streams.(r_stream) in
  let p = plat t in
  (* The packet lifecycle span covers driver service plus the synchronous
     climb through FDDI/IP, on the thread that carries the packet. *)
  let tracing = Trace.enabled (Sim.tracer p.Platform.sim) in
  if tracing then Sim.trace p.Platform.sim (Trace.Span_begin { seq; phase = Trace.Enqueue });
  (* Interrupt/DMA service variance hits each thread independently after
     the in-order handout — the source of the residual misordering
     Table 1 shows even under MCS locks. *)
  Platform.charge p (int_of_float (Prng.exponential t.jitter ~mean:t.jitter_mean_ns));
  (* Build from the template outside the ring lock: the thread carries
     its own packet up the stack, as in the paper. *)
  let payload =
    if t.sequential_payload then begin
      let m = Msg.create t.stack.Stack.pool t.payload in
      Msg.fill_pattern m ~off:0 ~len:t.payload
        ~stream_off:(Tcp_seq.diff seq (Tcp_seq.add s.iss 1));
      m
    end
    else Msg.dup t.payload_tmpl
  in
  (* Both payloads carry their fill-time sum in the node memo, so the
     checksum rescans only the new header. *)
  let frame =
    Frame.build_tcp t.stack.Stack.pool ~src:s.src_addr ~dst:t.stack.Stack.local_addr
      ~sport:s.drv_port ~dport:s.rcv_port ~seq ~ack:s.peer_ack ~flags:Tcp_wire.flag_ack
      ~win:(1 lsl 20) ~payload:(Some payload) ~checksum:t.checksum
  in
  if tracing then Sim.trace p.Platform.sim (Trace.Span_end { seq; phase = Trace.Enqueue });
  Fddi.input t.stack.Stack.fddi frame

let next t ~stream =
  match reserve t ~stream with
  | None -> false
  | Some r ->
    inject t r;
    true

let established t ~stream = t.streams.(stream).established
let window_stalls t = t.stalls

let finish t ~stream =
  let s = t.streams.(stream) in
  let fin =
    Frame.build_tcp t.stack.Stack.pool ~src:s.src_addr ~dst:t.stack.Stack.local_addr
      ~sport:s.drv_port ~dport:s.rcv_port ~seq:s.snd_nxt ~ack:s.peer_ack
      ~flags:Tcp_wire.flag_fin_ack ~win:(1 lsl 20) ~payload:None ~checksum:t.checksum
  in
  s.snd_nxt <- Tcp_seq.add s.snd_nxt 1;
  Fddi.input t.stack.Stack.fddi fin

