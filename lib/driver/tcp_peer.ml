open Pnp_engine
open Pnp_util
open Pnp_xkern
open Pnp_proto

type stream = {
  sender_port : int; (* the real TCP's local port *)
  peer_port : int;
  peer_iss : int;
  mutable peer_seq : int; (* our (the simulated receiver's) next seq *)
  mutable irs : int; (* the sender's initial sequence number *)
  mutable rcv_nxt : int;
  mutable ooo : (int * int) list; (* out-of-order (seq, len) waiting *)
  mutable since_ack : int;
  mutable highest_seq : int;
  mutable started : bool;
  mutable fin_seen : bool; (* a FIN arrived on this stream *)
}

type t = {
  stack : Stack.t;
  peer_addr : int;
  mutable ack_window : int;
  checksum : bool;
  loss_rate : float; (* probability of silently dropping a data segment *)
  loss_rng : Prng.t;
  streams : (int, stream) Hashtbl.t; (* keyed by the sender's port *)
  mutable bytes : int;
  mutable data_segments : int;
  mutable acks_sent : int;
  mutable wire_misorders : int;
  mutable drops : int;
}

let plat t = t.stack.Stack.plat

let stream_for t (v : Frame.tcp_view) =
  match Hashtbl.find_opt t.streams v.Frame.sport with
  | Some s -> s
  | None ->
    let s =
      {
        sender_port = v.Frame.sport;
        peer_port = v.Frame.dport;
        peer_iss = 0x40000000 + v.Frame.sport;
        peer_seq = 0x40000000 + v.Frame.sport;
        irs = 0;
        rcv_nxt = 0;
        ooo = [];
        since_ack = 0;
        highest_seq = 0;
        started = false;
        fin_seen = false;
      }
    in
    Hashtbl.replace t.streams v.Frame.sport s;
    s

(* Push a dataless segment from the simulated peer up through the
   sender's stack, borrowing the calling thread: the ACK, the SYN-ACK and
   the FIN. *)
let reply t stream ~seq ~flags =
  let frame =
    Frame.build_tcp t.stack.Stack.pool ~src:t.peer_addr ~dst:t.stack.Stack.local_addr
      ~sport:stream.peer_port ~dport:stream.sender_port ~seq ~ack:stream.rcv_nxt ~flags
      ~win:t.ack_window ~payload:None ~checksum:t.checksum
  in
  Fddi.input t.stack.Stack.fddi frame

let send_ack t stream =
  t.acks_sent <- t.acks_sent + 1;
  stream.since_ack <- 0;
  reply t stream ~seq:stream.peer_seq ~flags:Tcp_wire.flag_ack

(* Absorb contiguous out-of-order segments after rcv_nxt advanced. *)
let drain_ooo stream =
  let rec go () =
    match List.find_opt (fun (s, _) -> s = stream.rcv_nxt) stream.ooo with
    | Some ((_, l) as entry) ->
      stream.ooo <- List.filter (fun e -> e != entry) stream.ooo;
      stream.rcv_nxt <- Tcp_seq.add stream.rcv_nxt l;
      go ()
    | None -> ()
  in
  go ()

let handle t frame =
  Costs.charge (plat t) Costs.driver_xmit;
  (match Frame.parse_tcp frame with
   | None -> Msg.destroy frame
   | Some v ->
     let stream = stream_for t v in
     if v.Frame.flags.Tcp_wire.syn && not v.Frame.flags.Tcp_wire.ack then begin
       (* Connection setup: answer SYN with SYN-ACK. *)
       stream.irs <- v.Frame.seq;
       stream.rcv_nxt <- Tcp_seq.add v.Frame.seq 1;
       stream.highest_seq <- v.Frame.seq;
       stream.started <- true;
       stream.peer_seq <- Tcp_seq.add stream.peer_iss 1;
       Msg.destroy frame;
       reply t stream ~seq:stream.peer_iss ~flags:Tcp_wire.flag_syn_ack
     end
     else begin
       let len = v.Frame.payload_len in
       if len > 0 then begin
         if t.loss_rate > 0.0 && Prng.float t.loss_rng 1.0 < t.loss_rate then begin
           (* Simulated wire loss: the segment vanishes. *)
           t.drops <- t.drops + 1;
           Msg.destroy frame
         end
         else begin
           t.data_segments <- t.data_segments + 1;
           t.bytes <- t.bytes + len;
           (* Wire-order bookkeeping (Section 4.1: "fewer than one percent
              were misordered" below TCP on the send side). *)
           if Tcp_seq.lt v.Frame.seq stream.highest_seq then
             t.wire_misorders <- t.wire_misorders + 1
           else stream.highest_seq <- v.Frame.seq;
           let first_data = Tcp_seq.diff stream.rcv_nxt (Tcp_seq.add stream.irs 1) = 0 in
           (* Cumulative-ack reassembly; duplicates, gaps and zero-window
              probes force an immediate ack, like a real receiver. *)
           let ack_now = ref (first_data || t.ack_window = 0) in
           let seg_end = Tcp_seq.add v.Frame.seq len in
           if v.Frame.seq = stream.rcv_nxt then begin
             stream.rcv_nxt <- seg_end;
             (* A segment that fills a gap must be acked at once, or the
                sender sits in its backoff until the next timeout. *)
             if stream.ooo <> [] then ack_now := true;
             drain_ooo stream
           end
           else if Tcp_seq.lt v.Frame.seq stream.rcv_nxt && Tcp_seq.gt seg_end stream.rcv_nxt
           then begin
             (* Retransmission overlapping data we already have: keep the
                new tail, ack at once. *)
             stream.rcv_nxt <- seg_end;
             drain_ooo stream;
             ack_now := true
           end
           else begin
             ack_now := true;
             if Tcp_seq.gt v.Frame.seq stream.rcv_nxt then
               stream.ooo <- (v.Frame.seq, len) :: stream.ooo
           end;
           stream.since_ack <- stream.since_ack + 1;
           Msg.destroy frame;
           (* Ack every other packet, like Net/2 talking to itself; the
              first data segment and out-of-order arrivals ack at once. *)
           if !ack_now || stream.since_ack >= 2 then send_ack t stream
         end
       end
       else begin
         (if v.Frame.flags.Tcp_wire.fin then begin
            stream.fin_seen <- true;
            if v.Frame.seq = stream.rcv_nxt then begin
              stream.rcv_nxt <- Tcp_seq.add v.Frame.seq 1;
              Msg.destroy frame;
              send_ack t stream;
              (* Close our half too so the sender can reach TIME_WAIT. *)
              let fin_seq = stream.peer_seq in
              stream.peer_seq <- Tcp_seq.add stream.peer_seq 1;
              reply t stream ~seq:fin_seq ~flags:Tcp_wire.flag_fin_ack
            end
            else Msg.destroy frame
          end
          else
            (* a FIN-less dataless segment (window update / plain ack) *)
            Msg.destroy frame);
         (* Data segments carrying FIN are not generated by our TCP. *)
         ()
       end
     end)

let attach stack ~peer_addr ~checksum ?(loss_rate = 0.0) () =
  let t =
    {
      stack;
      peer_addr;
      ack_window = 1 lsl 20;
      checksum;
      loss_rate;
      loss_rng = Prng.split (Sim.prng stack.Stack.plat.Platform.sim);
      streams = Hashtbl.create 8;
      bytes = 0;
      data_segments = 0;
      acks_sent = 0;
      wire_misorders = 0;
      drops = 0;
    }
  in
  Fddi.set_transmit stack.Stack.fddi (fun frame -> handle t frame);
  t

let bytes_received t = t.bytes
let data_segments t = t.data_segments
let acks_sent t = t.acks_sent
let wire_misorders t = t.wire_misorders
let segments_dropped t = t.drops

let unique_bytes t ~port =
  match Hashtbl.find_opt t.streams port with
  | Some s -> Tcp_seq.diff s.rcv_nxt (Tcp_seq.add s.irs 1)
  | None -> 0

let stream_established t ~port =
  match Hashtbl.find_opt t.streams port with
  | Some s -> s.started
  | None -> false

let stream_closed t ~port =
  match Hashtbl.find_opt t.streams port with
  | Some s -> s.fin_seen
  | None -> false

(* Change the advertised window.  Reopening a closed window announces the
   update to every established sender, as a real receiver would.  Must be
   called from a simulated thread when announcing. *)
let set_window t w =
  let announce = t.ack_window = 0 && w > 0 in
  t.ack_window <- w;
  if announce then
    Hashtbl.iter (fun _ stream -> if stream.started then send_ack t stream) t.streams

