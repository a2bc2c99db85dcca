type tcp_stream = {
  label : string;
  sent_bytes : int;
  received_bytes : int;
  sent_digest : int;
  received_digest : int;
  established : bool;
  drained : bool;
  rexmits : int;
}

type corruption = { injected : int; caught : int }

type udp_account = {
  injected : int;
  duplicated : int;
  delivered : int;
  dropped_link : int;
  dropped_proto : int;
  dropped_pressure : int;
}

type obs = {
  run : string;
  streams : tcp_stream list;
  corruption : corruption option;
  udp : udp_account option;
}

(* FNV-1a, 64-bit.  Order-sensitive and cheap; OCaml's native int is 63
   bits, so the offset basis is folded into range — equality checking
   only needs a consistent, well-mixed value. *)
let fnv_offset = 0x4bf29ce484222325
let fnv_prime = 0x100000001b3

let digest_add acc b off len =
  if off < 0 || len < 0 || off > Pnp_util.Buf.length b - len then
    invalid_arg "Recovery.digest_add";
  let h = ref acc in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (Pnp_util.Buf.unsafe_get b i)) * fnv_prime
  done;
  !h

let digest s = digest_add fnv_offset (Pnp_util.Buf.of_string s) 0 (String.length s)

let checker = "recovery"

let check obs =
  let findings = ref [] in
  let fail ~subject msg = findings := Finding.v ~checker ~subject msg :: !findings in
  List.iter
    (fun s ->
      let subject = obs.run ^ "/" ^ s.label in
      if not s.established then
        fail ~subject "connection never reached ESTABLISHED under the fault plan"
      else begin
        if not s.drained then
          fail ~subject
            (Printf.sprintf
               "connection did not drain: %d of %d bytes delivered, %d rexmits — a \
                fault-triggered retransmission never resolved"
               s.received_bytes s.sent_bytes s.rexmits);
        if s.received_bytes <> s.sent_bytes then
          fail ~subject
            (Printf.sprintf "stream length mismatch: sent %d bytes, delivered %d"
               s.sent_bytes s.received_bytes)
        else if s.received_digest <> s.sent_digest then
          fail ~subject
            (Printf.sprintf
               "stream digest mismatch over %d bytes: corrupted or misordered data \
                reached the application"
               s.sent_bytes)
      end)
    obs.streams;
  (match obs.corruption with
  | Some c when c.caught < c.injected ->
    fail ~subject:(obs.run ^ "/corruption")
      (Printf.sprintf
         "silent corruption: %d bit flips injected but only %d checksum rejections \
          observed — %d damaged frame(s) passed verification"
         c.injected c.caught (c.injected - c.caught))
  | Some _ | None -> ());
  (match obs.udp with
  | Some u ->
    let offered = u.injected + u.duplicated in
    let accounted =
      u.delivered + u.dropped_link + u.dropped_proto + u.dropped_pressure
    in
    if offered <> accounted then
      fail ~subject:(obs.run ^ "/udp")
        (Printf.sprintf
           "datagram accounting does not balance: %d offered (%d + %d dup) but %d \
            accounted (%d delivered + %d link drops + %d proto drops + %d pressure \
            drops)"
           offered u.injected u.duplicated accounted u.delivered u.dropped_link
           u.dropped_proto u.dropped_pressure)
  | None -> ());
  Finding.sort !findings

(* {2 Overload oracle} *)

type overload_flow = {
  flow : string;
  accepted : bool;
  completed : bool;
  sent_bytes : int;
  received_bytes : int;
  received_digest : int;
  expected_digest : int;
}

type overload_drops = {
  link : int;
  pool_pressure : int;
  syn_backlog : int;
  sockbuf_full : int;
  checksum : int;
}

type overload = {
  scenario : string;
  flows : overload_flow list;
  drops : overload_drops;
}

let total_drops d =
  d.link + d.pool_pressure + d.syn_backlog + d.sockbuf_full + d.checksum

let check_overload o =
  let findings = ref [] in
  let fail ~subject msg =
    findings := Finding.v ~checker:"overload" ~subject msg :: !findings
  in
  let incomplete = ref 0 and shortfall = ref 0 in
  List.iter
    (fun f ->
      let subject = o.scenario ^ "/" ^ f.flow in
      (* Byte exactness holds for every flow, complete or not: whatever
         prefix of the stream arrived must be exactly the sender's
         prefix.  The harness computes [expected_digest] over the first
         [received_bytes] bytes of the flow's golden pattern. *)
      if f.received_bytes > f.sent_bytes then
        fail ~subject
          (Printf.sprintf "delivered %d bytes but only %d were ever sent"
             f.received_bytes f.sent_bytes)
      else if f.received_digest <> f.expected_digest then
        fail ~subject
          (Printf.sprintf
             "prefix digest mismatch over %d delivered bytes: corrupted or \
              misordered data reached the application"
             f.received_bytes);
      if f.completed then begin
        if not f.accepted then
          fail ~subject "flow marked completed but never reached ESTABLISHED";
        if f.received_bytes <> f.sent_bytes then
          fail ~subject
            (Printf.sprintf
               "flow marked completed but delivered %d of %d bytes"
               f.received_bytes f.sent_bytes)
      end
      else begin
        incr incomplete;
        shortfall := !shortfall + (f.sent_bytes - f.received_bytes)
      end)
    o.flows;
  (* Zero silent loss: a flow may legally end incomplete under overload,
     but only if the run accounts for the pressure that stopped it — some
     named drop cause must have fired.  Missing bytes with every drop
     counter at zero means the stack lost data without admitting it. *)
  if !incomplete > 0 && total_drops o.drops = 0 then
    fail ~subject:(o.scenario ^ "/accounting")
      (Printf.sprintf
         "silent loss: %d flow(s) incomplete (%d bytes missing) but every named \
          drop cause (link, pool_pressure, syn_backlog, sockbuf_full, checksum) \
          is zero"
         !incomplete !shortfall);
  Finding.sort !findings
