open Pnp_engine
open Pnp_xkern

type locking = One | Two | Six | Scr | Rcu

type config = {
  locking : locking;
  checksum : bool;
  cksum_under_lock : bool;
  assume_in_order : bool;
  ticketing : bool;
  mss : int;
  rcv_wnd : int;
  syn_backlog : int; (* max half-open children per listener; 0 = unbounded *)
  sb_policy : Sockbuf.policy; (* send-buffer overflow: block or shed *)
  scr_log_bound : int; (* SCR: packet-history log depth before truncation *)
}

let default_config =
  {
    locking = One;
    checksum = true;
    cksum_under_lock = false;
    assume_in_order = false;
    ticketing = false;
    mss = 4096;
    rcv_wnd = 1 lsl 20;
    syn_backlog = 128;
    sb_policy = Sockbuf.Block;
    scr_log_bound = 4096;
  }

(* The send socket buffer limit, in bytes. *)
let snd_buf = 1 lsl 20

type stats = {
  mutable segs_in : int;
  mutable segs_out : int;
  mutable acks_in : int;
  mutable acks_out : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable ooo_segs : int;
  mutable pred_hits : int;
  mutable pred_misses : int;
  mutable rexmits : int;
  mutable reass_inserts : int;
  mutable persist_probes : int;
}

let fresh_stats () =
  {
    segs_in = 0;
    segs_out = 0;
    acks_in = 0;
    acks_out = 0;
    bytes_in = 0;
    bytes_out = 0;
    ooo_segs = 0;
    pred_hits = 0;
    pred_misses = 0;
    rexmits = 0;
    reass_inserts = 0;
    persist_probes = 0;
  }

type state =
  | Closed
  | Listen
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait

let state_to_string = function
  | Closed -> "CLOSED"
  | Listen -> "LISTEN"
  | Syn_sent -> "SYN_SENT"
  | Syn_received -> "SYN_RCVD"
  | Established -> "ESTABLISHED"
  | Fin_wait_1 -> "FIN_WAIT_1"
  | Fin_wait_2 -> "FIN_WAIT_2"
  | Close_wait -> "CLOSE_WAIT"
  | Closing -> "CLOSING"
  | Last_ack -> "LAST_ACK"
  | Time_wait -> "TIME_WAIT"

(* A segment built under connection locks, transmitted after they drop.
   [todo] is the checksum work left for [transmit]:
   - [Sum_and_fold]: sum the segment and store the checksum (nothing
     when checksums are off: the field stays zero), then charge the
     header fold;
   - [Ck_done]: nothing left (Six computed it under the header-prepend
     lock, or the ablation inside the state lock). *)
type cksum_todo = Sum_and_fold | Ck_done

type pending = { seg : Msg.t; todo : cksum_todo }

(* State-compute replication (SCR): instead of serializing threads on a
   connection-state lock, every arriving segment is appended to a
   per-session sequence-stamped packet-history log, and each thread's
   state replica catches up by replaying the log tail — redundant
   compute in place of lock waiting.  One entry per segment; the entry
   stores the state-delta inputs (header + payload) at append time and
   the measured apply cost plus deferred I/O once applied. *)
type scr_entry = {
  e_hdr : Tcp_wire.header;
  e_msg : Msg.t;
  mutable e_applied : bool;
  mutable e_cost : int; (* simulated ns the apply section consumed *)
  mutable e_out : pending list; (* segments the apply decided to send *)
  mutable e_deliveries : Msg.t list; (* payloads the apply made in-order *)
  mutable e_fin : bool; (* peer's FIN became in-order at this entry *)
}

type scr_log = {
  sl_name : string;
  sl_bound : int; (* ring capacity; history older than this truncates *)
  sl_ring : scr_entry option array; (* slot = idx mod sl_bound *)
  mutable sl_tail : int; (* next append index *)
  mutable sl_applied : int; (* entries [0, sl_applied) are applied *)
  mutable sl_trunc : int; (* entries below this were truncated away *)
  sl_marks : (int, int) Hashtbl.t; (* per-tid replica high watermark *)
  mutable sl_appends : int;
  mutable sl_replayed : int; (* redundant entries replicas replayed *)
  mutable sl_resyncs : int; (* replicas that fell behind a truncation *)
  mutable sl_truncations : int;
  mutable sl_max_depth : int; (* deepest live log observed *)
}

(* Read-mostly hybrid: mutating segments serialize on a writer lock (the
   session's input and output lock) that publishes an immutable snapshot
   of the reader-visible fields at each release; provably no-op segments
   are answered from the snapshot without taking the lock at all. *)
type rcu_snap = {
  r_state : state;
  r_snd_una : int;
  r_snd_max : int;
  r_snd_wnd : int;
  r_snd_nxt : int;
  r_rcv_nxt : int;
}

type rcu = {
  mutable ru_snap : rcu_snap;
  mutable ru_reads : int; (* segments answered without the writer lock *)
}

(* The classes of per-connection state an [access] annotation names. *)
type field = Snd | Rcv | Reass | Sb

(* What must be held to touch each [field]: one lock for every class, a
   lock per class, or (SCR) an open deferred-charge section. *)
type guards =
  | Held of Lock.t
  | Split of { snd : Lock.t; rcv : Lock.t; reass : Lock.t; sb : Lock.t }
  | Deferred

(* A session's synchronisation discipline, decided once by [make_sync]:
   protocol code enters and leaves sections through it and never asks
   which discipline it runs under.
   - [input]/[output]: the locks the receive and send paths take, in
     acquisition order (released in reverse);
   - [reass]/[rexmt]/[hdr_prep]/[hdr_rem]: TCP-6's scoped sections,
     [None] where the coarser section lock already covers them;
   - [guards]: the guard table, checked at every traced [access];
   - [log]: SCR — no locks at all; sections are deferred-charge spans;
   - [rcu]: leaving a section publishes the reader snapshot. *)
type sync = {
  input : Lock.t list;
  output : Lock.t list;
  reass : Lock.t option;
  rexmt : Lock.t option;
  hdr_prep : Lock.t option;
  hdr_rem : Lock.t option;
  guards : guards;
  log : scr_log option;
  rcu : rcu option;
}

(* BSD timer scale: the slow timeout runs every 500 ms. *)
let slowtimo_ns = Pnp_util.Units.ms 500.0
let fasttimo_ns = Pnp_util.Units.ms 200.0
let rto_min_ns = Pnp_util.Units.ms 100.0
let rto_max_ns = Pnp_util.Units.sec 64.0
let msl_ticks = 60 (* 30 s at 500 ms ticks *)
let max_rxtshift = 12

type tcb = {
  mutable state : state;
  (* send sequence space *)
  mutable iss : int;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable snd_max : int;
  mutable snd_wnd : int; (* peer's advertised window *)
  mutable snd_cwnd : int;
  mutable snd_ssthresh : int;
  sb : Sockbuf.t;
  mutable fin_queued : bool; (* close requested; FIN follows the buffered data *)
  mutable fin_sent : bool;
  (* receive sequence space *)
  mutable rcv_nxt : int;
  rcv_adv_wnd : int; (* what we advertise *)
  mutable reass : (int * Msg.t) list; (* (seq, payload), ascending *)
  mutable rcv_fin_seq : int option; (* sequence number of a queued FIN *)
  (* ack strategy *)
  mutable delack_pending : bool;
  (* timers, in 500 ms ticks; 0 = disarmed *)
  mutable t_rexmt : int;
  mutable t_persist : int;
  mutable t_2msl : int;
  mutable rxtshift : int;
  mutable persist_shift : int;
  (* rtt estimation (ns) *)
  mutable t_rtttime : int; (* 0 = no segment being timed *)
  mutable t_rtseq : int;
  mutable srtt : int;
  mutable rttvar : int;
  mutable rto : int;
  mutable dupacks : int;
  mutable open_waiter : (int -> unit) option; (* connect() blocked here *)
  mutable sb_waiters : (int -> unit) list; (* send() blocked on buffer space *)
  (* SYN backlog: on a listener, how many children sit in Syn_received;
     on a child, whether it currently occupies one of its listener's
     backlog slots. *)
  mutable syn_pending : int;
  mutable syn_counted : bool;
}

module Conn_key = struct
  type t = { lport : int; raddr : int; rport : int }

  let hash k = (k.lport * 40503) lxor (k.raddr * 2654435761) lxor (k.rport * 97)
  let equal a b = a.lport = b.lport && a.raddr = b.raddr && a.rport = b.rport
end

module Conn_map = Xmap.Make (Conn_key)

(* A set of registration ordinals, one bit each: the timer scans visit
   only the sessions whose bit is set instead of every session. *)
module Ordset = struct
  type t = { mutable words : int array }

  let bits = Sys.int_size
  let create () = { words = [||] }

  (* Room for ordinals below [n]. *)
  let reserve s n =
    let need = (n + bits - 1) / bits in
    let have = Array.length s.words in
    if need > have then begin
      let words = Array.make need 0 in
      Array.blit s.words 0 words 0 have;
      s.words <- words
    end

  let add s i =
    let w = i / bits in
    s.words.(w) <- s.words.(w) lor (1 lsl (i - (w * bits)))

  let remove s i =
    let w = i / bits in
    s.words.(w) <- s.words.(w) land lnot (1 lsl (i - (w * bits)))

  (* The highest set bit of a nonzero word, by halving: a scan visits
     one member per call, so a bit-at-a-time search would dominate it. *)
  let msb x =
    if x < 0 then bits - 1
    else begin
      let x = ref x and n = ref 0 in
      if !x lsr 32 <> 0 then (x := !x lsr 32; n := 32);
      if !x lsr 16 <> 0 then (x := !x lsr 16; n := !n + 16);
      if !x lsr 8 <> 0 then (x := !x lsr 8; n := !n + 8);
      if !x lsr 4 <> 0 then (x := !x lsr 4; n := !n + 4);
      if !x lsr 2 <> 0 then (x := !x lsr 2; n := !n + 2);
      if !x lsr 1 <> 0 then n := !n + 1;
      !n
    end

  (* The largest member below [i], or -1. *)
  let rec prev s i =
    if i <= 0 then -1
    else begin
      let w = (i - 1) / bits in
      let top = i - 1 - (w * bits) in
      let below = if top = bits - 1 then -1 else (1 lsl (top + 1)) - 1 in
      let word = s.words.(w) land below in
      if word <> 0 then (w * bits) + msb word else prev s (w * bits)
    end
end

type t = {
  plat : Platform.t;
  pool : Mpool.t;
  wheel : Timewheel.t;
  ip : Ip.t;
  cfg : config;
  ck_locked : bool; (* checksums computed and verified inside the connection locks *)
  name : string;
  obj_ref : Atomic_ctr.t;
  iss_source : Atomic_ctr.t;
  conns : session Conn_map.t;
  create_lock : Lock.t;
  mutable registry : session array; (* by registration ordinal *)
  mutable registered : int;
  pending_delacks : Ordset.t; (* ordinals whose delayed ACK may be pending *)
  armed_timers : Ordset.t; (* ordinals with a 500 ms timer that may be armed *)
  accepting : (session -> unit) Conn_map.t; (* listen ports, wildcard-keyed *)
  mutable timers_running : bool;
  mutable shutdown : bool;
  mutable cksum_failures : int; (* segments discarded by checksum verification *)
  mutable syn_backlog_drops : int; (* SYNs shed by a full listener backlog *)
  mutable state_names : string array;
      (* the traced state name of field [f] of the session registered
         [ord]th at [ord * n_fields + f] ("" until first traced); only
         traced accesses grow it *)
}

and session = {
  proto : t;
  key : Conn_key.t;
  tcb : tcb;
  state_ns : string; (* namespace for shared-state access annotations *)
  sync : sync;
  gate : Gate.t option; (* the up-ticket gate, under [ticketing] only *)
  sess_ref : Atomic_ctr.t;
  mutable ord : int; (* registration ordinal; -1 until registered *)
  mutable receiver : Msg.t -> unit;
  mutable on_fin : unit -> unit; (* upcall once the peer's FIN is in order *)
  st : stats;
}

(* Packet-lifecycle trace spans, keyed by the segment's sequence number
   so a misordered segment's journey is visible end to end in the
   exported trace.  Like every trace site here, they test the tracer
   first, so an untraced run builds no record. *)
let span_begin plat ~seq phase =
  let sim = plat.Platform.sim in
  if Trace.enabled (Sim.tracer sim) then Sim.trace sim (Trace.Span_begin { seq; phase })

let span_end plat ~seq phase =
  let sim = plat.Platform.sim in
  if Trace.enabled (Sim.tracer sim) then Sim.trace sim (Trace.Span_end { seq; phase })

(* SCR/RCU synchronisation events for the analysis layer; callers build
   the record only when [tracing]. *)
let tracing sess = Trace.enabled (Sim.tracer sess.proto.plat.Platform.sim)
let sync_trace sess ev = Sim.trace sess.proto.plat.Platform.sim ev

(* Shared-state access annotations for the Eraser-style lockset checker
   (Pnp_analysis.Lockset).  Each annotated site names the piece of
   per-connection state it touches ("<conn>#snd", "#rcv", "#reass",
   "#sb"); the checker intersects the locks held across all accesses of
   the same name and reports when the intersection goes empty.  Guarded
   on the tracer so the disabled path builds no string; a registered
   traced session builds each name once, found by its ordinal, so its
   records share it. *)
let n_fields = 4

let field_slot = function Snd -> 0 | Rcv -> 1 | Reass -> 2 | Sb -> 3
let field_names = [| "snd"; "rcv"; "reass"; "sb" |]

let state_name sess field =
  let f = field_slot field in
  if sess.ord < 0 then sess.state_ns ^ "#" ^ field_names.(f)
  else begin
    let t = sess.proto in
    let k = (sess.ord * n_fields) + f in
    let len = Array.length t.state_names in
    if k >= len then begin
      let grown = Array.make (max (k + 1) (max (16 * n_fields) (2 * len))) "" in
      Array.blit t.state_names 0 grown 0 len;
      t.state_names <- grown
    end;
    let name = t.state_names.(k) in
    if String.length name > 0 then name
    else begin
      let name = sess.state_ns ^ "#" ^ field_names.(f) in
      t.state_names.(k) <- name;
      name
    end
  end

let locking_name = function
  | One -> "TCP-1"
  | Two -> "TCP-2"
  | Six -> "TCP-6"
  | Scr -> "SCR"
  | Rcu -> "RCU"

(* A site touched [field] without its declared [guard]: a caller bug,
   reported like [Lock.release]'s non-owner error. *)
let unguarded sess sim field guard =
  let th = Sim.self sim in
  invalid_arg
    (Printf.sprintf "Tcp.access %S: %s guards %s by %s, which caller tid %d (%s) does not hold"
       (state_name sess field)
       (locking_name sess.proto.cfg.locking)
       field_names.(field_slot field) guard (Sim.tid th) (Sim.thread_name th))

let check_lock sess sim field l =
  if Lock.owner l <> Sim.tid (Sim.self sim) then
    unguarded sess sim field (Printf.sprintf "lock %S" (Lock.name l))

(* The running thread must hold [field]'s guard from [sess.sync.guards]. *)
let check_guard sess sim field =
  match sess.sync.guards with
  | Held l -> check_lock sess sim field l
  | Split g ->
    check_lock sess sim field
      (match field with Snd -> g.snd | Rcv -> g.rcv | Reass -> g.reass | Sb -> g.sb)
  | Deferred ->
    if not (Sim.defer_active sim) then unguarded sess sim field "an open deferred section"

let access sess ~write field =
  let sim = sess.proto.plat.Platform.sim in
  if Trace.enabled (Sim.tracer sim) then begin
    if Sim.in_thread sim then check_guard sess sim field;
    Sim.trace sim (Trace.Access { state = state_name sess field; write })
  end

(* ------------------------------------------------------------------ *)
(* Synchronisation disciplines                                         *)
(* ------------------------------------------------------------------ *)

let no_sync =
  {
    input = [];
    output = [];
    reass = None;
    rexmt = None;
    hdr_prep = None;
    hdr_rem = None;
    guards = Deferred;
    log = None;
    rcu = None;
  }

(* Header prediction manipulates send-side state on the receive path
   (the Net/2 structure), so Two and Six take both window locks for
   input — exactly the redundancy Section 5.1 observes makes
   fine-grained locking lose.

   Each discipline's [guards] name the lock every state class is touched
   under.  TCP-6's [.reass] guards no class by itself: [segment_arrives]
   drops it, with [.rexmt], before [process_segment], so [reass_drain]
   writes #reass under [.swnd] and [.rwnd] alone, and [reass_insert]'s
   [.reass] hold nests inside [.rwnd] — Section 5.1's redundant
   locking. *)
let make_sync plat ~name ~scr_bound locking =
  let mk suffix = Platform.state_lock plat ~name:(name ^ suffix) in
  match locking with
  | One ->
    let conn = Platform.state_lock plat ~name in
    let l = [ conn ] in
    { no_sync with input = l; output = l; guards = Held conn }
  | Two ->
    let snd = mk ".snd" in
    let rcv = mk ".rcv" in
    {
      no_sync with
      input = [ snd; rcv ];
      output = [ snd ];
      guards = Split { snd; rcv; reass = rcv; sb = snd };
    }
  | Six ->
    let reass = mk ".reass" in
    let rexmt = mk ".rexmt" in
    let hdr_prep = mk ".hprep" in
    let hdr_rem = mk ".hrem" in
    let snd_wnd = mk ".swnd" in
    let rcv_wnd = mk ".rwnd" in
    {
      no_sync with
      input = [ snd_wnd; rcv_wnd ];
      output = [ snd_wnd ];
      reass = Some reass;
      rexmt = Some rexmt;
      hdr_prep = Some hdr_prep;
      hdr_rem = Some hdr_rem;
      guards = Split { snd = snd_wnd; rcv = rcv_wnd; reass = rcv_wnd; sb = rexmt };
    }
  | Scr ->
    {
      no_sync with
      guards = Deferred;
      log =
        Some
          {
            sl_name = name ^ ".log";
            sl_bound = scr_bound;
            sl_ring = Array.make scr_bound None;
            sl_tail = 0;
            sl_applied = 0;
            sl_trunc = 0;
            sl_marks = Hashtbl.create 8;
            sl_appends = 0;
            sl_replayed = 0;
            sl_resyncs = 0;
            sl_truncations = 0;
            sl_max_depth = 0;
          };
    }
  | Rcu ->
    let wr = mk ".wr" in
    let l = [ wr ] in
    {
      no_sync with
      input = l;
      output = l;
      guards = Held wr;
      rcu =
        Some
          {
            ru_snap =
              {
                r_state = Closed;
                r_snd_una = 0;
                r_snd_max = 0;
                r_snd_wnd = 0;
                r_snd_nxt = 0;
                r_rcv_nxt = 0;
              };
            ru_reads = 0;
          };
    }

let all_locks (s : sync) =
  List.filter_map Fun.id [ s.reass; s.rexmt; s.hdr_prep; s.hdr_rem ] @ s.input

(* An SCR host-atomic section outside the log proper (output path,
   timers, send-buffer mutation): simulated charges accumulate while the
   section runs without a suspension point; [scr_section_end] returns
   the accumulated cost for the caller to pay on its own clock.  The
   index -1 marks a section with no log entry; lockset analysis treats
   the span between [Scr_apply] and [Scr_apply_end] as a hold of the
   synthetic log lock either way. *)
let scr_section_begin sess log =
  if tracing sess then sync_trace sess (Trace.Scr_apply { log = log.sl_name; idx = -1 });
  Sim.defer_begin sess.proto.plat.Platform.sim

let scr_section_end sess log =
  let cost = Sim.defer_end sess.proto.plat.Platform.sim in
  if tracing sess then sync_trace sess (Trace.Scr_apply_end { log = log.sl_name; idx = -1 });
  cost

(* RCU: publish a fresh immutable snapshot of the reader-visible fields.
   Called at every release point, while the writer lock is still held. *)
let rcu_publish sess r =
  let tcb = sess.tcb in
  r.ru_snap <-
    {
      r_state = tcb.state;
      r_snd_una = tcb.snd_una;
      r_snd_max = tcb.snd_max;
      r_snd_wnd = tcb.snd_wnd;
      r_snd_nxt = tcb.snd_nxt;
      r_rcv_nxt = tcb.rcv_nxt;
    };
  Costs.charge sess.proto.plat Costs.rcu_publish;
  if tracing sess then sync_trace sess (Trace.Rcu_publish { state = sess.state_ns })

(* Enter the section guarded by [locks] (the session's [input] or
   [output] list); under SCR, open a deferred-charge section instead. *)
let enter sess locks =
  match sess.sync.log with
  | Some log -> scr_section_begin sess log
  | None -> List.iter Lock.acquire locks

let rec release_rev = function
  | [] -> ()
  | l :: rest ->
    release_rev rest;
    Lock.release l

(* Leave it: SCR pays the section's deferred cost; RCU publishes its
   snapshot before the writer lock drops. *)
let leave sess locks =
  match sess.sync.log with
  | Some log -> Sim.delay sess.proto.plat.Platform.sim (scr_section_end sess log)
  | None ->
    (match sess.sync.rcu with Some r -> rcu_publish sess r | None -> ());
    release_rev locks

(* One of TCP-6's scoped sections; a no-op where it is [None]. *)
let with_opt_lock lock f = match lock with Some l -> Lock.with_lock l f | None -> f ()

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let fresh_tcb t =
  {
    state = Closed;
    iss = 0;
    snd_una = 0;
    snd_nxt = 0;
    snd_max = 0;
    snd_wnd = 0;
    snd_cwnd = t.cfg.mss;
    snd_ssthresh = 1 lsl 30;
    sb = Sockbuf.create ~policy:t.cfg.sb_policy t.pool ~max:snd_buf;
    fin_queued = false;
    fin_sent = false;
    rcv_nxt = 0;
    rcv_adv_wnd = t.cfg.rcv_wnd;
    reass = [];
    rcv_fin_seq = None;
    delack_pending = false;
    t_rexmt = 0;
    t_persist = 0;
    t_2msl = 0;
    rxtshift = 0;
    persist_shift = 0;
    t_rtttime = 0;
    t_rtseq = 0;
    srtt = 0;
    rttvar = 0;
    rto = Pnp_util.Units.sec 1.0;
    dupacks = 0;
    open_waiter = None;
    sb_waiters = [];
    syn_pending = 0;
    syn_counted = false;
  }

(* [Printf.sprintf "%x" n]: the int's 63 bits as an unsigned number in
   lower-case hex. *)
let hex n =
  let b = Bytes.create 16 in
  let rec go i n =
    Bytes.unsafe_set b i "0123456789abcdef".[n land 15];
    if n lsr 4 = 0 then i else go (i - 1) (n lsr 4)
  in
  let i = go 15 n in
  Bytes.sub_string b i (16 - i)

(* The session's lock and state namespace, [Printf.sprintf
   "%s.conn:%d-%x:%d" t.name lport raddr rport] without the format
   interpreter: it is built once per connection. *)
let session_name t key =
  String.concat ""
    [
      t.name;
      ".conn:";
      string_of_int key.Conn_key.lport;
      "-";
      hex key.Conn_key.raddr;
      ":";
      string_of_int key.Conn_key.rport;
    ]

let fresh_session t key =
  let base = session_name t key in
  {
    proto = t;
    key;
    tcb = fresh_tcb t;
    state_ns = base;
    sync = make_sync t.plat ~name:base ~scr_bound:t.cfg.scr_log_bound t.cfg.locking;
    gate =
      (if t.cfg.ticketing then
         Some (Gate.create t.plat.Platform.sim t.plat.Platform.arch ~name:"tcp.order")
       else None);
    sess_ref = Platform.refcnt t.plat ~name:"tcp.sess" ~init:1;
    ord = -1;
    receiver = (fun msg -> Msg.destroy msg);
    on_fin = (fun () -> ());
    st = fresh_stats ();
  }

(* ------------------------------------------------------------------ *)
(* Segment emission                                                    *)
(* ------------------------------------------------------------------ *)

let advertised_window tcb = tcb.rcv_adv_wnd

(* Build a segment. Caller holds the locks its discipline requires for the
   snd-state it read; Six additionally wraps the header work (and, per the
   SICS code, the checksum) in the header-prepend lock. *)
let emit sess ~flags ~seq ~payload acc =
  let t = sess.proto in
  let tcb = sess.tcb in
  let hdr =
    {
      Tcp_wire.sport = sess.key.Conn_key.lport;
      dport = sess.key.Conn_key.rport;
      seq;
      ack = tcb.rcv_nxt;
      flags;
      win = advertised_window tcb;
      cksum = 0;
    }
  in
  let msg = match payload with Some m -> m | None -> Msg.create t.pool 0 in
  with_opt_lock sess.sync.hdr_prep (fun () ->
      Tcp_wire.encode msg hdr;
      (* SICS-style under Six's header lock, or the ablation's
         unrestructured placement inside the caller's state lock. *)
      if t.ck_locked then
        Tcp_wire.store_checksum t.plat ~src:(Ip.local_addr t.ip)
          ~dst:sess.key.Conn_key.raddr msg);
  sess.st.segs_out <- sess.st.segs_out + 1;
  if Msg.length msg = Tcp_wire.header_bytes && not flags.Tcp_wire.syn then
    sess.st.acks_out <- sess.st.acks_out + 1;
  { seg = msg; todo = (if t.ck_locked then Ck_done else Sum_and_fold) } :: acc

let emit_ack sess acc =
  let tcb = sess.tcb in
  Costs.charge sess.proto.plat Costs.tcp_ack_locked;
  tcb.delack_pending <- false;
  emit sess ~flags:Tcp_wire.flag_ack ~seq:tcb.snd_nxt ~payload:None acc

(* Transmit segments built under the locks.  For One/Two the payload
   checksum pass was charged before the lock was taken (the Section 5.1
   restructuring: data is summed outside any connection-state lock and the
   header folded in incrementally here), so only the header fold is
   charged now. *)
let transmit sess pendings =
  let t = sess.proto in
  List.iter
    (fun p ->
      (match p.todo with
       | Sum_and_fold when t.cfg.checksum ->
         Tcp_wire.store_checksum_free ~src:(Ip.local_addr t.ip)
           ~dst:sess.key.Conn_key.raddr p.seg;
         Costs.charge t.plat 40 (* fold the header into the data sum *)
       | Sum_and_fold ->
         (* [emit] encoded a zero checksum field: receivers skip
            verification too. *)
         ()
       | Ck_done -> ());
      Costs.charge t.plat Costs.tcp_output_unlocked;
      Ip.output t.ip ~proto:Tcp_wire.protocol_number ~dst:sess.key.Conn_key.raddr p.seg)
    (List.rev pendings)


(* The retransmission timeout in slow-timeout ticks, backed off by
   [shift].  BSD floors it at 2 ticks: with one tick a restart just
   before a slow-timeout boundary would fire spuriously while acks are
   still flowing. *)
let rto_ticks tcb shift = max 2 ((tcb.rto + slowtimo_ns - 1) / slowtimo_ns) lsl min shift 6

(* Every site that arms a timer or leaves a delayed ACK pending marks the
   session for the timer scans.  An unregistered session is skipped:
   [register_session] marks whatever it already has armed. *)
let mark_timer sess = if sess.ord >= 0 then Ordset.add sess.proto.armed_timers sess.ord
let mark_delack sess = if sess.ord >= 0 then Ordset.add sess.proto.pending_delacks sess.ord

let timer_armed tcb = tcb.t_rexmt > 0 || tcb.t_persist > 0 || tcb.t_2msl > 0

let set_rexmt_timer sess =
  let tcb = sess.tcb in
  tcb.t_rexmt <- rto_ticks tcb tcb.rxtshift;
  mark_timer sess

let set_persist_timer sess =
  let tcb = sess.tcb in
  tcb.t_persist <- rto_ticks tcb tcb.persist_shift;
  mark_timer sess

let enter_time_wait sess =
  sess.tcb.state <- Time_wait;
  sess.tcb.t_2msl <- msl_ticks;
  mark_timer sess

let set_delack sess =
  sess.tcb.delack_pending <- true;
  mark_delack sess

(* Build at most ONE new segment (or the FIN).  Caller holds the
   send-state lock(s); Six takes rexmt/header locks inside.  One segment
   per lock hold is the BSD tcp_output structure, and it is what keeps
   send-side wire order: sequence numbers are assigned at least a locked
   section apart, which exceeds the post-lock flight time to the driver
   (Section 4.1 measures <1% send-side misordering). *)
let build_segment sess =
  let t = sess.proto in
  let tcb = sess.tcb in
  let in_flight = Tcp_seq.diff tcb.snd_nxt tcb.snd_una in
  let wnd = min tcb.snd_wnd tcb.snd_cwnd in
  let off = in_flight in
  let unsent = Sockbuf.cc tcb.sb - off in
  let len = min t.cfg.mss (min unsent (wnd - in_flight)) in
  (* Nagle (RFC 896, as in Net/2): hold a small segment while earlier data
     is unacknowledged, unless it is all we will ever have (FIN queued) or
     the window itself is what made it small. *)
  let nagle_holds =
    len > 0 && len < t.cfg.mss && in_flight > 0 && unsent <= len && not tcb.fin_queued
  in
  if len > 0 && not nagle_holds then begin
    Costs.charge t.plat Costs.tcp_output_locked;
    access sess ~write:true Snd;
    let payload =
      with_opt_lock sess.sync.rexmt (fun () ->
          access sess ~write:false Sb;
          Sockbuf.peek tcb.sb ~off ~len)
    in
    let seq = tcb.snd_nxt in
    tcb.snd_nxt <- Tcp_seq.add tcb.snd_nxt len;
    tcb.snd_max <- Tcp_seq.max tcb.snd_max tcb.snd_nxt;
    (* Time one segment per window for RTT estimation. *)
    if tcb.t_rtttime = 0 then begin
      tcb.t_rtttime <- Sim.now t.plat.Platform.sim;
      tcb.t_rtseq <- seq
    end;
    if tcb.t_rexmt = 0 then set_rexmt_timer sess;
    tcb.delack_pending <- false;
    emit sess ~flags:Tcp_wire.flag_ack ~seq ~payload:(Some payload) []
  end
  else if
    unsent > 0 && wnd - in_flight <= 0 && in_flight = 0
    && tcb.t_rexmt = 0 && tcb.t_persist = 0
  then begin
    (* Zero window with nothing in flight: nothing will ever ack; arm the
       persist timer so we probe the window (BSD tcp_setpersist). *)
    set_persist_timer sess;
    []
  end
  else if tcb.fin_queued && (not tcb.fin_sent) && unsent <= 0 then begin
    Costs.charge t.plat Costs.tcp_conn_setup;
    access sess ~write:true Snd;
    let seq = tcb.snd_nxt in
    tcb.snd_nxt <- Tcp_seq.add tcb.snd_nxt 1;
    tcb.snd_max <- Tcp_seq.max tcb.snd_max tcb.snd_nxt;
    tcb.fin_sent <- true;
    if tcb.t_rexmt = 0 then set_rexmt_timer sess;
    emit sess ~flags:Tcp_wire.flag_fin_ack ~seq ~payload:None []
  end
  else []

(* While the SYN is unacknowledged, [snd_nxt - snd_una] counts it as
   sent, so a segment would carry buffer byte 1 under byte 0's sequence
   number.  Nothing is sent until the handshake completes; the ACK that
   completes it pumps the buffer from [input_tail]. *)
let build_one sess =
  access sess ~write:false Snd;
  match sess.tcb.state with
  | Syn_sent | Syn_received -> []
  | _ -> build_segment sess

(* Drain permitted data: one segment per lock hold (see build_one). *)
let rec pump sess =
  enter sess sess.sync.output;
  let segs = build_one sess in
  leave sess sess.sync.output;
  match segs with
  | [] -> ()
  | _ ->
    transmit sess segs;
    pump sess

(* ------------------------------------------------------------------ *)
(* Input processing                                                    *)
(* ------------------------------------------------------------------ *)

let wake_sb_waiters sess =
  let tcb = sess.tcb in
  let ws = tcb.sb_waiters in
  tcb.sb_waiters <- [];
  let now = Sim.now sess.proto.plat.Platform.sim in
  List.iter (fun resume -> resume now) ws

let update_rtt tcb ~now =
  let delta = now - tcb.t_rtttime in
  tcb.t_rtttime <- 0;
  if tcb.srtt = 0 then begin
    tcb.srtt <- delta;
    tcb.rttvar <- delta / 2
  end
  else begin
    let err = delta - tcb.srtt in
    tcb.srtt <- tcb.srtt + (err / 8);
    tcb.rttvar <- tcb.rttvar + ((abs err - tcb.rttvar) / 4)
  end;
  tcb.rto <- min rto_max_ns (max rto_min_ns (tcb.srtt + (4 * tcb.rttvar)));
  tcb.rxtshift <- 0

(* Process an acceptable ack: drop acknowledged bytes, advance windows,
   grow the congestion window.  Caller holds send-state locks. *)
let process_ack sess ~ack ~now acc =
  let tcb = sess.tcb in
  let t = sess.proto in
  let acked = Tcp_seq.diff ack tcb.snd_una in
  if acked <= 0 then acc
  else begin
    access sess ~write:true Snd;
    if tcb.t_rtttime <> 0 && Tcp_seq.gt ack tcb.t_rtseq then update_rtt tcb ~now;
    (* Congestion window growth (Tahoe). *)
    let incr_ =
      if tcb.snd_cwnd <= tcb.snd_ssthresh then t.cfg.mss
      else max 1 (t.cfg.mss * t.cfg.mss / tcb.snd_cwnd)
    in
    tcb.snd_cwnd <- min (tcb.snd_cwnd + incr_) (1 lsl 30);
    let fin_acked =
      tcb.fin_sent && Tcp_seq.geq ack tcb.snd_max
      && Tcp_seq.diff tcb.snd_max tcb.snd_una = Sockbuf.cc tcb.sb + 1
    in
    let data_acked = min acked (Sockbuf.cc tcb.sb) in
    with_opt_lock sess.sync.rexmt (fun () ->
        if data_acked > 0 then begin
          access sess ~write:true Sb;
          Sockbuf.drop tcb.sb data_acked
        end);
    tcb.snd_una <- ack;
    if Tcp_seq.lt tcb.snd_nxt tcb.snd_una then tcb.snd_nxt <- tcb.snd_una;
    tcb.dupacks <- 0;
    (* Restart or stop the retransmission timer. *)
    if Tcp_seq.geq tcb.snd_una tcb.snd_max then tcb.t_rexmt <- 0 else set_rexmt_timer sess;
    wake_sb_waiters sess;
    (* FIN-related state advances. *)
    (match tcb.state with
     | Fin_wait_1 when fin_acked -> tcb.state <- Fin_wait_2
     | Closing when fin_acked -> enter_time_wait sess
     | Last_ack when fin_acked -> tcb.state <- Closed
     | _ -> ());
    acc
  end

(* Retransmit one segment from the front of the window (timeout or fast
   retransmit).  Caller holds send-state locks.  In the opening states the
   front of the window is the SYN (or SYN-ACK) itself: re-emitting it is
   what keeps handshakes live across a lossy link or a backlog drop —
   without it a single lost SYN wedges the connect forever. *)
let retransmit sess acc =
  let t = sess.proto in
  let tcb = sess.tcb in
  sess.st.rexmits <- sess.st.rexmits + 1;
  Costs.charge t.plat Costs.tcp_output_locked;
  access sess ~write:true Snd;
  match tcb.state with
  | Syn_sent ->
    (* The caller rewound snd_nxt to snd_una (= iss); the re-emitted SYN
       occupies that sequence slot again. *)
    tcb.snd_nxt <- Tcp_seq.max tcb.snd_nxt (Tcp_seq.add tcb.iss 1);
    emit sess ~flags:Tcp_wire.flag_syn ~seq:tcb.iss ~payload:None acc
  | Syn_received ->
    tcb.snd_nxt <- Tcp_seq.max tcb.snd_nxt (Tcp_seq.add tcb.iss 1);
    emit sess ~flags:Tcp_wire.flag_syn_ack ~seq:tcb.iss ~payload:None acc
  | _ ->
    let len = min t.cfg.mss (Sockbuf.cc tcb.sb) in
    tcb.snd_nxt <- Tcp_seq.max tcb.snd_nxt (Tcp_seq.add tcb.snd_una len);
    if len > 0 then begin
      let payload =
        with_opt_lock sess.sync.rexmt (fun () ->
            access sess ~write:false Sb;
            Sockbuf.peek tcb.sb ~off:0 ~len)
      in
      emit sess ~flags:Tcp_wire.flag_ack ~seq:tcb.snd_una ~payload:(Some payload) acc
    end
    else if tcb.fin_sent then
      emit sess ~flags:Tcp_wire.flag_fin_ack ~seq:tcb.snd_una ~payload:None acc
    else acc

(* Insert an out-of-order segment into the reassembly queue (no overlap
   merging: overlapping duplicates were trimmed by the caller, and our
   peers never send overlapping runs). *)
let reass_insert sess seq msg =
  let tcb = sess.tcb in
  sess.st.reass_inserts <- sess.st.reass_inserts + 1;
  Costs.charge sess.proto.plat Costs.tcp_reass_insert;
  with_opt_lock sess.sync.reass (fun () ->
      access sess ~write:true Reass;
      let rec ins = function
        | [] -> [ (seq, msg) ]
        | (s, m) :: rest as all ->
          if Tcp_seq.lt seq s then (seq, msg) :: all
          else if seq = s then begin
            (* exact duplicate *)
            Msg.destroy msg;
            all
          end
          else (s, m) :: ins rest
      in
      tcb.reass <- ins tcb.reass)

(* Drain now-contiguous segments from the reassembly queue. *)
let reass_drain sess deliveries =
  let tcb = sess.tcb in
  if tcb.reass <> [] then access sess ~write:true Reass;
  let rec go acc =
    match tcb.reass with
    | (s, m) :: rest when s = tcb.rcv_nxt ->
      Costs.charge sess.proto.plat Costs.tcp_reass_drain_per_seg;
      tcb.reass <- rest;
      tcb.rcv_nxt <- Tcp_seq.add tcb.rcv_nxt (Msg.length m);
      go (m :: acc)
    | (s, m) :: rest when Tcp_seq.lt s tcb.rcv_nxt ->
      (* stale duplicate that got queued *)
      Msg.destroy m;
      tcb.reass <- rest;
      go acc
    | _ -> List.rev acc
  in
  let msgs = go [] in
  List.fold_left
    (fun dels m ->
      sess.st.bytes_in <- sess.st.bytes_in + Msg.length m;
      m :: dels)
    deliveries msgs

(* Deliver one in-order payload (fast path). *)
let deliver_in_order sess msg deliveries =
  sess.st.bytes_in <- sess.st.bytes_in + Msg.length msg;
  msg :: deliveries

(* The close handshake advances once the peer's FIN is in order. *)
let fin_transition sess =
  let tcb = sess.tcb in
  match tcb.state with
  | Established -> tcb.state <- Close_wait
  | Fin_wait_1 ->
    (* our FIN not yet acked: simultaneous close *)
    tcb.state <- Closing
  | Fin_wait_2 -> enter_time_wait sess
  | _ -> ()

(* The full (slow-path) segment processing for an established-ish state.
   Returns (to_send, deliveries) accumulated. *)
let slow_path sess (hdr : Tcp_wire.header) msg ~now acc deliveries =
  let t = sess.proto in
  let tcb = sess.tcb in
  Costs.charge t.plat Costs.tcp_input_slow_locked;
  sess.st.pred_misses <- sess.st.pred_misses + 1;
  let acc = ref acc and deliveries = ref deliveries in
  let seq = ref hdr.seq in
  let ack_now = ref false in
  (* Trim data we already received. *)
  let overlap = Tcp_seq.diff tcb.rcv_nxt !seq in
  if overlap > 0 then begin
    let len = Msg.length msg in
    if overlap >= len && not hdr.flags.Tcp_wire.syn then begin
      (* complete duplicate: ack it again *)
      Msg.truncate msg 0;
      ack_now := true;
      seq := tcb.rcv_nxt
    end
    else if overlap <= len then begin
      Msg.pop msg (min overlap len);
      seq := tcb.rcv_nxt
    end
  end;
  (* Window update. *)
  if hdr.flags.Tcp_wire.ack then begin
    access sess ~write:true Snd;
    tcb.snd_wnd <- hdr.win;
    if hdr.win > 0 then begin
      tcb.t_persist <- 0;
      tcb.persist_shift <- 0
    end;
    (* Ack processing (may include duplicate-ack fast retransmit). *)
    if Tcp_seq.gt hdr.ack tcb.snd_una && Tcp_seq.leq hdr.ack tcb.snd_max then
      acc := process_ack sess ~ack:hdr.ack ~now !acc
    else if
      Msg.length msg = 0 && hdr.ack = tcb.snd_una && Tcp_seq.gt tcb.snd_max tcb.snd_una
    then begin
      tcb.dupacks <- tcb.dupacks + 1;
      if tcb.dupacks = 3 then begin
        (* Tahoe fast retransmit *)
        let flight = min tcb.snd_wnd tcb.snd_cwnd in
        tcb.snd_ssthresh <- max (2 * t.cfg.mss) (flight / 2);
        tcb.snd_cwnd <- t.cfg.mss;
        tcb.snd_nxt <- tcb.snd_una;
        acc := retransmit sess !acc
      end
    end
  end;
  (* Data. *)
  let len = Msg.length msg in
  if len > 0 then begin
    if !seq = tcb.rcv_nxt then begin
      access sess ~write:true Rcv;
      tcb.rcv_nxt <- Tcp_seq.add tcb.rcv_nxt len;
      deliveries := deliver_in_order sess msg !deliveries;
      deliveries := reass_drain sess !deliveries;
      if tcb.delack_pending then ack_now := true else set_delack sess
    end
    else begin
      (* Out of order: queue it and ack immediately (duplicate ack). *)
      reass_insert sess !seq msg;
      ack_now := true
    end
  end
  else if len = 0 && not (hdr.flags.Tcp_wire.fin || hdr.flags.Tcp_wire.syn) then
    Msg.destroy msg;
  (* FIN handling. *)
  if hdr.flags.Tcp_wire.fin then begin
    let fin_seq = Tcp_seq.add !seq len in
    if fin_seq = tcb.rcv_nxt then begin
      access sess ~write:true Rcv;
      tcb.rcv_nxt <- Tcp_seq.add tcb.rcv_nxt 1;
      ack_now := true;
      if len = 0 then Msg.destroy msg;
      fin_transition sess
    end
    else begin
      tcb.rcv_fin_seq <- Some fin_seq;
      if len = 0 then Msg.destroy msg;
      ack_now := true
    end
  end;
  (* A queued FIN may have become in-order after reassembly drain. *)
  (match tcb.rcv_fin_seq with
   | Some fs when fs = tcb.rcv_nxt ->
     tcb.rcv_fin_seq <- None;
     tcb.rcv_nxt <- Tcp_seq.add tcb.rcv_nxt 1;
     ack_now := true;
     fin_transition sess
   | _ -> ());
  (* New data permitted by the ack is sent by the caller (pump) after the
     input locks drop; here only emit an explicit ack if required. *)
  if !ack_now then acc := emit_ack sess !acc;
  (!acc, !deliveries)

(* Header prediction, Net/2 style (Section 4.1 depends on this fast path
   being order-sensitive). *)
let established_input sess (hdr : Tcp_wire.header) msg ~now acc deliveries =
  let t = sess.proto in
  let tcb = sess.tcb in
  let len = Msg.length msg in
  (* The Figure 10 "assumed in-order" upper bound: pretend every data
     segment landed exactly on rcv_nxt. *)
  let hdr =
    if t.cfg.assume_in_order && len > 0 && hdr.flags.Tcp_wire.ack && not hdr.flags.Tcp_wire.fin
    then { hdr with Tcp_wire.seq = tcb.rcv_nxt; ack = tcb.snd_una }
    else hdr
  in
  if len > 0 && hdr.seq <> tcb.rcv_nxt then
    sess.st.ooo_segs <- sess.st.ooo_segs + 1;
  let f = hdr.flags in
  if f.Tcp_wire.rst then begin
    (* A reset tears the connection down immediately (no challenge-ack
       subtleties; the simulated network cannot spoof). *)
    tcb.state <- Closed;
    tcb.t_rexmt <- 0;
    tcb.t_persist <- 0;
    Msg.destroy msg;
    (acc, deliveries)
  end
  else
  let predictable =
    tcb.state = Established && f.Tcp_wire.ack
    && (not (f.Tcp_wire.syn || f.Tcp_wire.fin || f.Tcp_wire.rst))
    && hdr.win = tcb.snd_wnd
    && tcb.snd_nxt = tcb.snd_max
    && hdr.seq = tcb.rcv_nxt
  in
  if predictable && len = 0 && Tcp_seq.gt hdr.ack tcb.snd_una
     && Tcp_seq.leq hdr.ack tcb.snd_max
     && tcb.snd_cwnd >= tcb.snd_wnd
  then begin
    (* Fast path 1: pure ack advancing snd_una. *)
    Costs.charge t.plat Costs.tcp_input_pred_locked;
    sess.st.pred_hits <- sess.st.pred_hits + 1;
    Msg.destroy msg;
    (process_ack sess ~ack:hdr.ack ~now acc, deliveries)
  end
  else if predictable && len > 0 && hdr.ack = tcb.snd_una && tcb.reass = [] then begin
    (* Fast path 2: pure in-order data. *)
    Costs.charge t.plat Costs.tcp_input_pred_locked;
    sess.st.pred_hits <- sess.st.pred_hits + 1;
    access sess ~write:true Rcv;
    tcb.rcv_nxt <- Tcp_seq.add tcb.rcv_nxt len;
    let deliveries = deliver_in_order sess msg deliveries in
    (* Net/2 acks every other segment: the first leaves a delayed ack
       pending, the second forces it out. *)
    let acc =
      if tcb.delack_pending then emit_ack sess acc
      else begin
        set_delack sess;
        acc
      end
    in
    (acc, deliveries)
  end
  else slow_path sess hdr msg ~now acc deliveries

(* A child leaving Syn_received gives its listener's backlog slot back.
   The listener is found through the wildcard demux entry; if it closed
   meanwhile there is no backlog left to credit. *)
let release_syn_slot sess =
  let t = sess.proto in
  let tcb = sess.tcb in
  if tcb.syn_counted then begin
    tcb.syn_counted <- false;
    let lkey = { Conn_key.lport = sess.key.Conn_key.lport; raddr = 0; rport = 0 } in
    match Conn_map.lookup t.conns lkey with
    | Some l when l.tcb.state = Listen -> l.tcb.syn_pending <- l.tcb.syn_pending - 1
    | _ -> ()
  end

(* Non-established states: the connection machinery. *)
let opening_input sess (hdr : Tcp_wire.header) msg ~now acc deliveries =
  let t = sess.proto in
  let tcb = sess.tcb in
  Costs.charge t.plat Costs.tcp_conn_setup;
  let f = hdr.flags in
  match tcb.state with
  | Syn_sent when f.Tcp_wire.syn && f.Tcp_wire.ack && hdr.ack = Tcp_seq.add tcb.iss 1 ->
    tcb.rcv_nxt <- Tcp_seq.add hdr.seq 1;
    tcb.snd_una <- hdr.ack;
    tcb.snd_wnd <- hdr.win;
    tcb.state <- Established;
    tcb.t_rexmt <- 0;
    Msg.destroy msg;
    (match tcb.open_waiter with
     | Some resume ->
       tcb.open_waiter <- None;
       (* Resume at the current instant, not the segment's arrival time:
          input processing has consumed simulated time since then. *)
       resume (Sim.now t.plat.Platform.sim)
     | None -> ());
    (emit_ack sess acc, deliveries)
  | Syn_received when f.Tcp_wire.ack && hdr.ack = Tcp_seq.add tcb.iss 1 ->
    tcb.snd_una <- hdr.ack;
    tcb.snd_wnd <- hdr.win;
    tcb.state <- Established;
    tcb.t_rexmt <- 0;
    release_syn_slot sess;
    if Msg.length msg > 0 then
      (* data arrived with the handshake ack *)
      established_input sess { hdr with Tcp_wire.flags = Tcp_wire.flag_ack } msg ~now acc
        deliveries
    else begin
      Msg.destroy msg;
      (acc, deliveries)
    end
  | Time_wait when f.Tcp_wire.fin ->
    (* peer retransmitted its FIN: re-ack *)
    Msg.destroy msg;
    (emit_ack sess acc, deliveries)
  | _ when f.Tcp_wire.rst ->
    tcb.state <- Closed;
    release_syn_slot sess;
    Msg.destroy msg;
    (acc, deliveries)
  | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack ->
    established_input sess hdr msg ~now acc deliveries
  | _ ->
    (* Drop everything else. *)
    Msg.destroy msg;
    (acc, deliveries)

let process_segment sess hdr msg ~now =
  match sess.tcb.state with
  | Established -> established_input sess hdr msg ~now [] []
  | _ -> opening_input sess hdr msg ~now [] []

(* Whether the application should hear about an in-order FIN (the upcall
   is idempotent).  The state, not this segment's FIN flag, is what
   matters: a FIN that arrived out of order sits in [rcv_fin_seq] until a
   retransmission fills the gap, and the segment that completes it
   carries no FIN. *)
let fin_due sess ~fin =
  match sess.tcb.state with
  | Close_wait | Closing | Last_ack | Time_wait -> true
  | Closed -> fin
  | _ -> false

(* Everything after the input section, on the arriving thread's clock:
   transmit what the section built, send whatever the ack (or window
   update) made possible, upcall the in-order payloads outside every
   section — exactly the point where ordering can be lost without
   ticketing (Section 4.2) — and finally report an in-order FIN. *)
let input_tail sess ~seq ~ticket acc deliveries ~fin =
  let plat = sess.proto.plat in
  transmit sess acc;
  pump sess;
  let upcall () =
    span_begin plat ~seq Trace.Upcall;
    List.iter (fun m -> sess.receiver m) (List.rev deliveries);
    span_end plat ~seq Trace.Upcall
  in
  (match (ticket, sess.gate) with
   | Some k, Some gate ->
     Gate.await gate k;
     upcall ();
     Gate.advance gate
   | _ -> upcall ());
  if fin () then sess.on_fin ()

(* ------------------------------------------------------------------ *)
(* State-compute replication (SCR) input path                          *)
(* ------------------------------------------------------------------ *)

let scr_entry_at log idx =
  match log.sl_ring.(idx mod log.sl_bound) with
  | Some e -> e
  | None -> invalid_arg "Tcp: SCR log entry missing"

(* Append one segment to the packet-history log.  The append itself is
   host-atomic (stamp + store, no suspension point), so log order is the
   arrival order of append operations. *)
let scr_append_entry sess log hdr msg =
  let idx = log.sl_tail in
  log.sl_ring.(idx mod log.sl_bound) <-
    Some
      {
        e_hdr = hdr;
        e_msg = msg;
        e_applied = false;
        e_cost = 0;
        e_out = [];
        e_deliveries = [];
        e_fin = false;
      };
  log.sl_tail <- idx + 1;
  log.sl_appends <- log.sl_appends + 1;
  let depth = log.sl_tail - log.sl_trunc in
  if depth > log.sl_max_depth then log.sl_max_depth <- depth;
  if tracing sess then sync_trace sess (Trace.Scr_append { log = log.sl_name; idx });
  (* Bounded log: retire the history the ring is about to overwrite.
     Entries apply in the same host event burst as their append, so
     sl_applied trails sl_tail by at most one and truncation can never
     discard an unapplied entry. *)
  if log.sl_tail - log.sl_trunc > log.sl_bound then begin
    log.sl_trunc <- log.sl_tail - log.sl_bound;
    log.sl_truncations <- log.sl_truncations + 1
  end;
  idx

(* Apply one log entry to the authoritative connection state as a
   host-atomic section: simulated charges are deferred into the entry,
   and the I/O the apply decided on (segments, deliveries, FIN verdict)
   is stored for the entry's owner to perform on its own clock. *)
let scr_apply_entry sess log idx =
  let e = scr_entry_at log idx in
  if not e.e_applied then begin
    e.e_applied <- true;
    if tracing sess then sync_trace sess (Trace.Scr_apply { log = log.sl_name; idx });
    let sim = sess.proto.plat.Platform.sim in
    let now = Sim.now sim in
    Sim.defer_begin sim;
    let acc, deliveries = process_segment sess e.e_hdr e.e_msg ~now in
    e.e_out <- acc;
    e.e_deliveries <- deliveries;
    e.e_fin <- fin_due sess ~fin:e.e_hdr.Tcp_wire.flags.Tcp_wire.fin;
    e.e_cost <- Sim.defer_end sim;
    if tracing sess then sync_trace sess (Trace.Scr_apply_end { log = log.sl_name; idx });
    log.sl_applied <- idx + 1
  end

(* The SCR receive path.  No connection-state lock exists: the segment
   is appended to the log, unapplied entries are applied in log order
   (usually just our own; a thread that overtook us during the append
   tax may already have applied it), this thread's replica pays the
   redundant-replay tax for entries other threads appended since its
   last packet, and finally the entry's stored cost and I/O land on the
   owner's clock.  With K threads, per-packet work is F + (K-1)*r
   instead of a serialized F hold — the log-replay trade the paper's
   lock ladder never reaches. *)
let scr_segment_arrives sess log (hdr : Tcp_wire.header) msg =
  let t = sess.proto in
  let sim = t.plat.Platform.sim in
  let tid = if Sim.in_thread sim then Sim.tid (Sim.self sim) else -1 in
  let idx = scr_append_entry sess log hdr msg in
  Costs.charge t.plat Costs.scr_append;
  while log.sl_applied < log.sl_tail do
    scr_apply_entry sess log log.sl_applied
  done;
  let mark =
    match Hashtbl.find_opt log.sl_marks tid with
    | Some m when m >= log.sl_trunc -> m
    | Some _ ->
      (* Fell behind a truncation: resynchronise from the authoritative
         snapshot, then replay what the bounded log still holds. *)
      log.sl_resyncs <- log.sl_resyncs + 1;
      Costs.charge t.plat Costs.scr_resync;
      log.sl_trunc
    | None ->
      (* Replica bootstrap: join at the current position from the
         snapshot rather than replaying the whole surviving log. *)
      log.sl_resyncs <- log.sl_resyncs + 1;
      Costs.charge t.plat Costs.scr_resync;
      idx
  in
  let gap = idx - mark in
  if gap > 0 then begin
    log.sl_replayed <- log.sl_replayed + gap;
    Costs.charge t.plat (Costs.scr_replay_per_entry * gap);
    if tracing sess then sync_trace sess (Trace.Scr_replay { log = log.sl_name; upto = idx })
  end;
  Hashtbl.replace log.sl_marks tid (idx + 1);
  (* Our own entry: pay its measured processing cost on this thread's
     clock, then perform the I/O the apply deferred. *)
  let e = scr_entry_at log idx in
  span_begin t.plat ~seq:hdr.seq Trace.Tcp_input;
  Sim.delay sim e.e_cost;
  span_end t.plat ~seq:hdr.seq Trace.Tcp_input;
  let out = e.e_out and deliveries = e.e_deliveries in
  e.e_out <- [];
  e.e_deliveries <- [];
  input_tail sess ~seq:hdr.seq ~ticket:None out deliveries ~fin:(fun () -> e.e_fin)

(* ------------------------------------------------------------------ *)
(* RCU read path                                                       *)
(* ------------------------------------------------------------------ *)

(* Answer a fully duplicate data segment with an ack built purely from
   the published snapshot — no connection state is read or written. *)
let rcu_emit_dup_ack sess snap =
  let t = sess.proto in
  Costs.charge t.plat Costs.tcp_ack_locked;
  let hdr =
    {
      Tcp_wire.sport = sess.key.Conn_key.lport;
      dport = sess.key.Conn_key.rport;
      seq = snap.r_snd_nxt;
      ack = snap.r_rcv_nxt;
      flags = Tcp_wire.flag_ack;
      win = sess.tcb.rcv_adv_wnd; (* immutable after creation *)
      cksum = 0;
    }
  in
  let msg = Msg.create t.pool 0 in
  Tcp_wire.encode msg hdr;
  sess.st.segs_out <- sess.st.segs_out + 1;
  sess.st.acks_out <- sess.st.acks_out + 1;
  transmit sess [ { seg = msg; todo = Sum_and_fold } ]

(* The lock-free read path: process a segment without the writer lock
   when the snapshot proves it cannot change connection state.  Two
   provably no-op shapes qualify, both requiring an Established
   snapshot, a plain ack (no syn/fin/rst), an unchanged window, nothing
   in flight (snd_max = snd_una) and an old ack (ack <= snd_una):
   - a pure stale ack (no payload) is dropped — the slow path would
     neither mutate state nor emit anything for it;
   - fully duplicate data (seq+len <= rcv_nxt) is dropped and re-acked
     from the snapshot — the slow path would trim it to nothing and
     emit the same ack.
   Readers touch no tcb field the writer mutates, so they emit no
   Access annotations; the snapshot swap is the synchronisation. *)
let rcu_try_read sess r (hdr : Tcp_wire.header) msg =
  let t = sess.proto in
  let snap = r.ru_snap in
  let f = hdr.Tcp_wire.flags in
  let len = Msg.length msg in
  let no_op =
    (not t.ck_locked)
    && snap.r_state = Established
    && f.Tcp_wire.ack
    && (not (f.Tcp_wire.syn || f.Tcp_wire.fin || f.Tcp_wire.rst))
    && hdr.win = snap.r_snd_wnd
    && snap.r_snd_max = snap.r_snd_una
    && Tcp_seq.leq hdr.ack snap.r_snd_una
    && (len = 0 || Tcp_seq.leq (Tcp_seq.add hdr.seq len) snap.r_rcv_nxt)
  in
  if no_op then begin
    r.ru_reads <- r.ru_reads + 1;
    Costs.charge t.plat Costs.rcu_read;
    if tracing sess then sync_trace sess (Trace.Rcu_read { state = sess.state_ns });
    Msg.destroy msg;
    if len > 0 then rcu_emit_dup_ack sess snap
  end;
  no_op

let segment_arrives sess (hdr : Tcp_wire.header) msg =
  let t = sess.proto in
  let now = Sim.now t.plat.Platform.sim in
  (* Input work that needs no connection state: parsing, validation. *)
  Costs.charge t.plat Costs.tcp_input_unlocked;
  sess.st.segs_in <- sess.st.segs_in + 1;
  if Msg.length msg = 0 && hdr.flags.Tcp_wire.ack && not hdr.flags.Tcp_wire.syn then
    sess.st.acks_in <- sess.st.acks_in + 1;
  match (sess.sync.log, sess.sync.rcu) with
  | Some log, _ -> scr_segment_arrives sess log hdr msg
  | None, Some r when rcu_try_read sess r hdr msg -> ()
  | None, _ ->
  let is_data = Msg.length msg > 0 in
  let plat = t.plat in
  span_begin plat ~seq:hdr.seq Trace.Lock_wait;
  enter sess sess.sync.input;
  span_end plat ~seq:hdr.seq Trace.Lock_wait;
  span_begin plat ~seq:hdr.seq Trace.Tcp_input;
  (* Ablation: verification charged while the state locks are held. *)
  if t.cfg.checksum && t.cfg.cksum_under_lock then
    Membus.consume t.plat.Platform.bus ~bytes:(Msg.length msg + Tcp_wire.header_bytes);
  (* The SICS six-lock structure serialises the reassembly and
     retransmission queues together with the window state on every packet
     — locking the paper calls "either redundant or unnecessary"
     (Section 5.1).  The cost is what makes TCP-6 lose. *)
  (match (sess.sync.reass, sess.sync.rexmt) with
   | Some reass, Some rexmt ->
     Lock.acquire reass;
     Lock.acquire rexmt;
     Costs.charge t.plat 200;
     Lock.release rexmt;
     Lock.release reass
   | _ -> ());
  let acc, deliveries = process_segment sess hdr msg ~now in
  (* Section 4.2: before releasing the connection-state lock, a receiving
     thread acquires an up-ticket for the next higher layer; above TCP it
     waits for its ticket to be called.  Every data segment's thread goes
     through the gate — even one whose segment only joined the reassembly
     queue — which is what restricts order and limits performance. *)
  let ticket =
    match sess.gate with
    | Some gate when is_data && sess.tcb.state <> Listen -> Some (Gate.take gate)
    | _ -> None
  in
  leave sess sess.sync.input;
  span_end plat ~seq:hdr.seq Trace.Tcp_input;
  input_tail sess ~seq:hdr.seq ~ticket acc deliveries ~fin:(fun () ->
      fin_due sess ~fin:hdr.flags.Tcp_wire.fin)

(* ------------------------------------------------------------------ *)
(* Demultiplexing                                                      *)
(* ------------------------------------------------------------------ *)

let lookup_session t ~lport ~raddr ~rport =
  match Conn_map.lookup t.conns { Conn_key.lport; raddr; rport } with
  | Some s -> Some s
  | None -> Conn_map.lookup t.conns { Conn_key.lport; raddr = 0; rport = 0 }

(* The initial send sequence number, derived from the host address too,
   so two stacks in one world do not pick identical ones. *)
let next_iss t =
  Tcp_seq.mask ((Atomic_ctr.incr t.iss_source * 64021) + (Ip.local_addr t.ip * 7919))

(* Open the send sequence space at [iss]; the SYN occupies its slot. *)
let open_send_space tcb iss =
  tcb.iss <- iss;
  tcb.snd_una <- iss;
  tcb.snd_nxt <- Tcp_seq.add iss 1;
  tcb.snd_max <- tcb.snd_nxt

let register_session t sess =
  Lock.with_lock t.create_lock (fun () ->
      Conn_map.insert t.conns sess.key sess;
      let ord = t.registered in
      if ord = Array.length t.registry then begin
        let grown = Array.make (max 16 (2 * ord)) sess in
        Array.blit t.registry 0 grown 0 ord;
        t.registry <- grown;
        Ordset.reserve t.pending_delacks (Array.length grown);
        Ordset.reserve t.armed_timers (Array.length grown)
      end;
      t.registry.(ord) <- sess;
      t.registered <- ord + 1;
      sess.ord <- ord;
      if sess.tcb.delack_pending then mark_delack sess;
      if timer_armed sess.tcb then mark_timer sess)

let handshake_syn t listener_key accept (hdr : Tcp_wire.header) ~src =
  (* Passive open: make the child session and send SYN-ACK. *)
  let key = { Conn_key.lport = listener_key.Conn_key.lport; raddr = src; rport = hdr.sport } in
  let sess = fresh_session t key in
  let tcb = sess.tcb in
  tcb.state <- Syn_received;
  tcb.syn_counted <- true;
  tcb.rcv_nxt <- Tcp_seq.add hdr.seq 1;
  open_send_space tcb (next_iss t);
  tcb.snd_wnd <- hdr.win;
  (* A lost SYN-ACK must not wedge the child in Syn_received: arm the
     retransmission timer so [retransmit] re-emits it. *)
  set_rexmt_timer sess;
  register_session t sess;
  (* Let the application attach its receiver before any data can race in. *)
  accept sess;
  let acc = emit sess ~flags:Tcp_wire.flag_syn_ack ~seq:tcb.iss ~payload:None [] in
  transmit sess acc

(* Strip a delivered segment's header, checking its checksum first when
   the placement puts the check under the locks ([charged]: Six, which
   pays for the pass under its header-remove lock). *)
let strip_verified t (hdr : Tcp_wire.header) msg ~src ~dst ~charged =
  let ok =
    (not t.ck_locked) || hdr.cksum = 0
    ||
    if charged then Tcp_wire.verify_checksum t.plat ~src ~dst msg
    else Tcp_wire.checksum_valid ~src ~dst msg
  in
  if ok then Tcp_wire.strip msg else t.cksum_failures <- t.cksum_failures + 1;
  ok

(* Each exit below closes the demux span exactly once. *)
let input t ~src ~dst msg =
  Costs.charge t.plat Costs.tcp_demux;
  match Tcp_wire.decode msg with
  | None -> Msg.destroy msg
  | Some hdr ->
    (* The segment entered TCP from IP: open its demux span. *)
    span_begin t.plat ~seq:hdr.seq Trace.Ip;
    (* Checksum outside any connection-state lock, unless the placement
       puts it under the locks (see below). *)
    let cksum_ok =
      t.ck_locked || (not t.cfg.checksum) || hdr.cksum = 0
      || Tcp_wire.verify_checksum t.plat ~src ~dst msg
    in
    if not cksum_ok then begin
      t.cksum_failures <- t.cksum_failures + 1;
      span_end t.plat ~seq:hdr.seq Trace.Ip;
      Msg.destroy msg
    end
    else begin
      match lookup_session t ~lport:hdr.dport ~raddr:src ~rport:hdr.sport with
      | None ->
        span_end t.plat ~seq:hdr.seq Trace.Ip;
        Msg.destroy msg
      | Some sess ->
        ignore (Atomic_ctr.incr sess.sess_ref);
        let proceed =
          match sess.sync.hdr_rem with
          | Some l ->
            (* Six verifies under its header-remove lock. *)
            Lock.with_lock l (fun () -> strip_verified t hdr msg ~src ~dst ~charged:true)
          | None ->
            (* The cksum_under_lock ablation charges verification under
               the state locks in [segment_arrives]; the bytes are
               checked here, uncharged. *)
            strip_verified t hdr msg ~src ~dst ~charged:false
        in
        (if not proceed then begin
           span_end t.plat ~seq:hdr.seq Trace.Ip;
           Msg.destroy msg
         end
         else
           match (sess.tcb.state, hdr.flags.Tcp_wire.syn) with
           | Listen, true -> (
             span_end t.plat ~seq:hdr.seq Trace.Ip;
             (* find the accept callback for this port *)
             match Conn_map.lookup t.accepting sess.key with
             | Some accept ->
               Msg.destroy msg;
               if
                 t.cfg.syn_backlog > 0
                 && sess.tcb.syn_pending >= t.cfg.syn_backlog
               then
                 (* Bounded backlog (SYN-flood protection): shed the SYN
                    as an accounted drop; the peer's SYN retransmission
                    retries once slots free up. *)
                 t.syn_backlog_drops <- t.syn_backlog_drops + 1
               else begin
                 sess.tcb.syn_pending <- sess.tcb.syn_pending + 1;
                 handshake_syn t sess.key accept hdr ~src
               end
             | None -> Msg.destroy msg)
           | _ ->
             span_end t.plat ~seq:hdr.seq Trace.Ip;
             segment_arrives sess hdr msg);
        ignore (Atomic_ctr.decr sess.sess_ref)
    end

(* ------------------------------------------------------------------ *)
(* Timers                                                              *)
(* ------------------------------------------------------------------ *)

(* The timer scans visit marked sessions from the newest ordinal down,
   below the count taken at scan start: the order, and the set of
   sessions, a walk of the newest-first session list would see.  A visit
   re-checks the session itself and drops its mark once nothing is armed;
   a session re-armed while the scan is blocked keeps (or regains) it. *)
let fasttimo t =
  let rec visit below =
    let i = Ordset.prev t.pending_delacks below in
    if i >= 0 then begin
      let sess = t.registry.(i) in
      if sess.tcb.delack_pending then begin
        enter sess sess.sync.input;
        let acc = if sess.tcb.delack_pending then emit_ack sess [] else [] in
        leave sess sess.sync.input;
        transmit sess acc
      end;
      if not sess.tcb.delack_pending then Ordset.remove t.pending_delacks i;
      visit i
    end
  in
  visit t.registered

let rexmt_timeout sess =
  let t = sess.proto in
  let tcb = sess.tcb in
  enter sess sess.sync.output;
  let acc =
    if Tcp_seq.gt tcb.snd_max tcb.snd_una && tcb.state <> Closed then begin
      tcb.rxtshift <- min (tcb.rxtshift + 1) max_rxtshift;
      let flight = min tcb.snd_wnd tcb.snd_cwnd in
      tcb.snd_ssthresh <- max (2 * t.cfg.mss) (flight / 2);
      tcb.snd_cwnd <- t.cfg.mss;
      tcb.t_rtttime <- 0;
      tcb.snd_nxt <- tcb.snd_una;
      set_rexmt_timer sess;
      retransmit sess []
    end
    else begin
      tcb.t_rexmt <- 0;
      []
    end
  in
  leave sess sess.sync.output;
  transmit sess acc

(* Window probe: force one byte past the closed window (BSD TF_FORCE). *)
let persist_timeout sess =
  let t = sess.proto in
  let tcb = sess.tcb in
  enter sess sess.sync.output;
  let acc =
    let in_flight = Tcp_seq.diff tcb.snd_nxt tcb.snd_una in
    let unsent = Sockbuf.cc tcb.sb - in_flight in
    if unsent > 0 && tcb.snd_wnd = 0 && tcb.state = Established then begin
      sess.st.persist_probes <- sess.st.persist_probes + 1;
      Costs.charge t.plat Costs.tcp_output_locked;
      access sess ~write:true Snd;
      let payload =
        with_opt_lock sess.sync.rexmt (fun () ->
            access sess ~write:false Sb;
            Sockbuf.peek tcb.sb ~off:in_flight ~len:1)
      in
      let seq = tcb.snd_nxt in
      tcb.snd_nxt <- Tcp_seq.add tcb.snd_nxt 1;
      tcb.snd_max <- Tcp_seq.max tcb.snd_max tcb.snd_nxt;
      tcb.persist_shift <- min (tcb.persist_shift + 1) max_rxtshift;
      set_persist_timer sess;
      emit sess ~flags:Tcp_wire.flag_ack ~seq ~payload:(Some payload) []
    end
    else begin
      tcb.t_persist <- 0;
      []
    end
  in
  leave sess sess.sync.output;
  transmit sess acc

let slowtimo t =
  let rec visit below =
    let i = Ordset.prev t.armed_timers below in
    if i >= 0 then begin
      let sess = t.registry.(i) in
      let tcb = sess.tcb in
      if tcb.t_rexmt > 0 then begin
        tcb.t_rexmt <- tcb.t_rexmt - 1;
        if tcb.t_rexmt = 0 then rexmt_timeout sess
      end;
      if tcb.t_persist > 0 then begin
        tcb.t_persist <- tcb.t_persist - 1;
        if tcb.t_persist = 0 then persist_timeout sess
      end;
      if tcb.t_2msl > 0 then begin
        tcb.t_2msl <- tcb.t_2msl - 1;
        if tcb.t_2msl = 0 && tcb.state = Time_wait then tcb.state <- Closed
      end;
      if not (timer_armed tcb) then Ordset.remove t.armed_timers i;
      visit i
    end
  in
  visit t.registered

let rec arm_fasttimo t =
  if not t.shutdown then
    ignore
      (Timewheel.schedule t.wheel ~after:fasttimo_ns (fun () ->
           fasttimo t;
           arm_fasttimo t))

let rec arm_slowtimo t =
  if not t.shutdown then
    ignore
      (Timewheel.schedule t.wheel ~after:slowtimo_ns (fun () ->
           slowtimo t;
           arm_slowtimo t))

let start_timers t =
  if not t.timers_running then begin
    t.timers_running <- true;
    arm_fasttimo t;
    arm_slowtimo t
  end

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)
(* ------------------------------------------------------------------ *)

let create plat pool ~wheel ~ip cfg ~name =
  (match cfg.locking with
   | Scr ->
     if cfg.ticketing then
       invalid_arg "Tcp: ticketing reintroduces the serialization SCR removes";
     if cfg.cksum_under_lock then
       invalid_arg "Tcp: cksum_under_lock requires a connection-state lock; SCR has none";
     if cfg.scr_log_bound < 2 then invalid_arg "Tcp: scr_log_bound must be at least 2"
   | One | Two | Six | Rcu -> ());
  let t =
    {
      plat;
      pool;
      wheel;
      ip;
      cfg;
      ck_locked = cfg.checksum && (cfg.locking = Six || cfg.cksum_under_lock);
      name;
      obj_ref = Platform.refcnt plat ~name:(name ^ ".ref") ~init:1;
      iss_source = Platform.refcnt plat ~name:(name ^ ".iss") ~init:1;
      conns =
        Conn_map.create plat ~shards:plat.Platform.map_shards
          ~name:(name ^ ".demux") ();
      create_lock =
        Lock.create plat.Platform.sim plat.Platform.arch Lock.Unfair
          ~name:(name ^ ".create");
      registry = [||];
      registered = 0;
      pending_delacks = Ordset.create ();
      armed_timers = Ordset.create ();
      accepting = Conn_map.create plat ~name:(name ^ ".accepting") ();
      timers_running = false;
      shutdown = false;
      cksum_failures = 0;
      syn_backlog_drops = 0;
      state_names = [||];
    }
  in
  Ip.register ip ~proto:Tcp_wire.protocol_number (fun ~src ~dst msg ->
      ignore (Atomic_ctr.incr t.obj_ref);
      input t ~src ~dst msg;
      ignore (Atomic_ctr.decr t.obj_ref));
  t

let shutdown t = t.shutdown <- true

let connect ?iss t ~local_port ~remote_addr ~remote_port =
  let key = { Conn_key.lport = local_port; raddr = remote_addr; rport = remote_port } in
  let sess = fresh_session t key in
  let tcb = sess.tcb in
  open_send_space tcb (match iss with Some s -> Tcp_seq.mask s | None -> next_iss t);
  tcb.state <- Syn_sent;
  register_session t sess;
  start_timers t;
  Costs.charge t.plat Costs.tcp_conn_setup;
  let acc = emit sess ~flags:Tcp_wire.flag_syn ~seq:tcb.iss ~payload:None [] in
  set_rexmt_timer sess;
  transmit sess acc;
  (* The in-memory peer may have answered synchronously on this stack. *)
  if tcb.state <> Established then
    Sim.suspend t.plat.Platform.sim (fun resume -> tcb.open_waiter <- Some resume);
  sess

let listen t ~local_port ~accept =
  let key = { Conn_key.lport = local_port; raddr = 0; rport = 0 } in
  let sess = fresh_session t key in
  sess.tcb.state <- Listen;
  Lock.with_lock t.create_lock (fun () ->
      Conn_map.insert t.conns key sess;
      Conn_map.insert t.accepting key accept);
  start_timers t

(* Stop listening: drop both the accept callback and the wildcard demux
   entry, so closed listen ports no longer accumulate (established
   children are untouched).  Returns [false] if nothing was listening. *)
let close_listener t ~local_port =
  let key = { Conn_key.lport = local_port; raddr = 0; rport = 0 } in
  Lock.with_lock t.create_lock (fun () ->
      let had_accept = Conn_map.remove t.accepting key in
      let had_demux =
        match Conn_map.lookup t.conns key with
        | Some sess when sess.tcb.state = Listen -> Conn_map.remove t.conns key
        | _ -> false
      in
      had_accept || had_demux)

let remote_endpoint sess = (sess.key.Conn_key.raddr, sess.key.Conn_key.rport)
let set_receiver sess f = sess.receiver <- f
let set_fin_handler sess f = sess.on_fin <- f
let ticket_gate sess = sess.gate

let send sess msg =
  let t = sess.proto in
  let tcb = sess.tcb in
  let sim = t.plat.Platform.sim in
  let len = Msg.length msg in
  if len > Sockbuf.max_size tcb.sb then
    invalid_arg "Tcp.send: message larger than the send buffer";
  (* Graceful degradation: under Block policy the application parks here
     (outside every connection lock) while the pool sits above its soft
     watermark, so protocol-internal transients keep their headroom.
     Under Drop the sockbuf sheds instead — nothing blocks. *)
  if t.cfg.sb_policy = Sockbuf.Block then Mpool.await_headroom t.pool;
  let out = sess.sync.output in
  enter sess out;
  (* Queue, shed, or wait for socket-buffer space (so_snd semantics). *)
  let rec enqueue () =
    match
      with_opt_lock sess.sync.rexmt (fun () ->
          access sess ~write:true Sb;
          Sockbuf.offer tcb.sb msg)
    with
    | `Queued -> true
    | `Dropped -> false
    | `Must_wait ->
      (* Park outside the section.  The failed offer and the waiter
         registration share one host-atomic span, so a concurrent wake
         cannot be lost.  The register callback cannot consume simulated
         time, so it releases the locks without RCU's (charging) snapshot
         publish — sound, because a failed offer mutated nothing — and an
         SCR section's deferred cost is paid once parked. *)
      let owed =
        match sess.sync.log with Some log -> scr_section_end sess log | None -> 0
      in
      let registered = ref false in
      Sim.suspend sim (fun resume ->
          tcb.sb_waiters <- resume :: tcb.sb_waiters;
          registered := true;
          release_rev out);
      assert !registered;
      Sim.delay sim owed;
      enter sess out;
      enqueue ()
  in
  let queued = enqueue () in
  if queued then sess.st.bytes_out <- sess.st.bytes_out + len;
  leave sess out;
  if queued then begin
    (* The data checksum pass runs here, outside every connection-state
       lock (Section 5.1); the header is folded in at transmit time.
       Where the placement puts checksums under the locks (Six's header
       lock, or the ablation), [emit] sums the whole segment instead. *)
    if t.cfg.checksum && not t.ck_locked then Membus.consume t.plat.Platform.bus ~bytes:len;
    pump sess
  end

let close sess =
  let tcb = sess.tcb in
  enter sess sess.sync.output;
  (match tcb.state with
   | Established -> tcb.state <- Fin_wait_1
   | Close_wait -> tcb.state <- Last_ack
   | _ -> ());
  tcb.fin_queued <- true;
  leave sess sess.sync.output;
  pump sess

let state_name sess = state_to_string sess.tcb.state
let stats sess = sess.st
let checksum_failures t = t.cksum_failures
let syn_backlog_drops t = t.syn_backlog_drops

let total_sockbuf_drops t =
  let n = ref 0 in
  for i = 0 to t.registered - 1 do
    n := !n + Sockbuf.drops t.registry.(i).tcb.sb
  done;
  !n

let sessions t =
  let rec newest_first i acc =
    if i = t.registered then acc else newest_first (i + 1) (t.registry.(i) :: acc)
  in
  newest_first 0 []

let lock_wait_ns sess =
  List.fold_left (fun acc l -> acc + Lock.total_wait_ns l) 0 (all_locks sess.sync)

let snd_nxt sess = sess.tcb.snd_nxt

type scr_counters = {
  scr_appends : int;
  scr_replayed : int;
  scr_resyncs : int;
  scr_truncations : int;
  scr_max_depth : int;
}

let scr_counters sess =
  Option.map
    (fun l ->
      {
        scr_appends = l.sl_appends;
        scr_replayed = l.sl_replayed;
        scr_resyncs = l.sl_resyncs;
        scr_truncations = l.sl_truncations;
        scr_max_depth = l.sl_max_depth;
      })
    sess.sync.log

let rcu_reads sess = Option.map (fun r -> r.ru_reads) sess.sync.rcu
