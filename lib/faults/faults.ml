open Pnp_util
open Pnp_xkern

type stage =
  | Bernoulli_loss of { p : float }
  | Gilbert_elliott of { p_gb : float; p_bg : float; loss_good : float; loss_bad : float }
  | Duplicate of { p : float }
  | Reorder of { p : float; hold_ns : int }
  | Corrupt of { p : float }
  | Jitter of { p : float; spike_ns : int }
  | Wan_rtt of { base_ns : int; spread_ns : int }
  | Blackout of { start_ns : int; duration_ns : int; period_ns : int }

type plan = { name : string; stages : stage list }

let plan ?(name = "custom") stages = { name; stages }
let none = { name = "baseline"; stages = [] }
let bernoulli p = { name = "loss"; stages = [ Bernoulli_loss { p } ] }

let burst =
  plan ~name:"burst"
    [ Gilbert_elliott { p_gb = 0.02; p_bg = 0.25; loss_good = 0.0; loss_bad = 0.5 } ]

(* Stage order within a plan is cosmetic — [instantiate] normalises
   consuming stages to the front.  Corruption itself is copy-on-write
   (Msg.unshare), so a flip damages exactly the one frame it hits even
   when duplicates share MNodes. *)
let builtin =
  [
    ("baseline", none);
    ("loss", bernoulli 0.02);
    ("burst", burst);
    ("dup", plan ~name:"dup" [ Duplicate { p = 0.03 } ]);
    ("reorder", plan ~name:"reorder" [ Reorder { p = 0.1; hold_ns = Units.us 400.0 } ]);
    ("corrupt", plan ~name:"corrupt" [ Corrupt { p = 0.02 } ]);
    ("jitter", plan ~name:"jitter" [ Jitter { p = 0.05; spike_ns = Units.ms 1.0 } ]);
    ( "blackout",
      plan ~name:"blackout"
        [ Blackout { start_ns = Units.ms 30.0; duration_ns = Units.ms 40.0; period_ns = 0 } ] );
    ( "wan",
      plan ~name:"wan"
        [
          Wan_rtt { base_ns = Units.ms 5.0; spread_ns = Units.ms 20.0 };
          Jitter { p = 0.05; spike_ns = Units.ms 2.0 };
        ] );
    ( "chaos",
      plan ~name:"chaos"
        [
          Gilbert_elliott { p_gb = 0.01; p_bg = 0.3; loss_good = 0.002; loss_bad = 0.4 };
          Blackout
            { start_ns = Units.ms 40.0; duration_ns = Units.ms 15.0; period_ns = Units.ms 400.0 };
          Corrupt { p = 0.005 };
          Duplicate { p = 0.01 };
          Reorder { p = 0.05; hold_ns = Units.us 300.0 };
          Jitter { p = 0.02; spike_ns = Units.us 500.0 };
        ] );
  ]

let find name = Option.map snd (List.find_opt (fun (n, _) -> n = name) builtin)

(* ------------------------------------------------------------------ *)
(* Instantiation                                                       *)
(* ------------------------------------------------------------------ *)

(* Gilbert-Elliott chain state: true = bad (bursty) state.  [salt] is
   drawn at instantiation for Wan_rtt stages only (0 otherwise, so the
   PRNG streams of every pre-existing plan are untouched): the per-flow
   base-RTT draw must depend on the seed but not on frame order. *)
type inst = { spec : stage; rng : Prng.t; mutable ge_bad : bool; salt : int }

type t = {
  source : plan;
  skip_bytes : int;
  insts : inst list;
  mutable offered : int;
  mutable dropped_loss : int;
  mutable dropped_burst : int;
  mutable dropped_blackout : int;
  mutable corrupted : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable delayed : int;
  mutable wan_stretched : int;
}

(* Consuming stages (loss, blackout) must run before damaging/cloning
   ones: otherwise a counted bit flip (or duplicate) can be swallowed
   before it reaches the wire, and the recovery oracle's exact books —
   "every injected flip is either checksum-rejected or a failure" — stop
   balancing.  Rather than trust every plan author to order stages, the
   pipeline is normalised here; relative order within each group is
   preserved. *)
let consuming = function
  | Bernoulli_loss _ | Gilbert_elliott _ | Blackout _ -> true
  | Duplicate _ | Reorder _ | Corrupt _ | Jitter _ | Wan_rtt _ -> false

let normalise stages =
  List.filter consuming stages @ List.filter (fun s -> not (consuming s)) stages

let instantiate plan ~prng ~skip_bytes =
  {
    source = plan;
    skip_bytes;
    insts =
      List.map
        (fun spec ->
          let rng = Prng.split prng in
          let salt =
            match spec with Wan_rtt _ -> Prng.int rng 0x3FFFFFFF | _ -> 0
          in
          { spec; rng; ge_bad = false; salt })
        (normalise plan.stages);
    offered = 0;
    dropped_loss = 0;
    dropped_burst = 0;
    dropped_blackout = 0;
    corrupted = 0;
    duplicated = 0;
    reordered = 0;
    delayed = 0;
    wan_stretched = 0;
  }

let plan_of t = t.source

type event =
  | Ev_drop of drop_cause
  | Ev_dup
  | Ev_corrupt of { off : int; bit : int }
  | Ev_reorder of { delay_ns : int }
  | Ev_delay of { delay_ns : int }

and drop_cause = Random_loss | Burst_loss | Blackout_window

let drop_cause_label = function
  | Random_loss -> "loss"
  | Burst_loss -> "burst"
  | Blackout_window -> "blackout"

let hit rng p = p > 0.0 && Prng.float rng 1.0 < p

(* Flip one bit inside the encapsulated datagram (at or past skip_bytes),
   where an Internet checksum is guaranteed to notice it.  The flip must
   stay on the wire: transmitted frames share MNodes with the sender's
   retransmission queue (Msg.dup), so writing in place would poison the
   source a later — checksummed-valid — retransmission is built from.
   [unshare] copy-on-writes the damaged node first. *)
let flip_one_bit t inst msg =
  let len = Msg.length msg in
  if len > t.skip_bytes then begin
    let off = t.skip_bytes + Prng.int inst.rng (len - t.skip_bytes) in
    let bit = Prng.int inst.rng 8 in
    Msg.unshare msg ~off;
    Msg.set_u8 msg off (Msg.get_u8 msg off lxor (1 lsl bit));
    Some (off, bit)
  end
  else None

(* FNV-1a over the frame's flow identity: IP protocol, source and
   destination addresses, and — when this is an unfragmented first piece
   long enough to carry them — the transport ports.  Fields that change
   per packet (id, ttl, length, the IP checksum) are deliberately
   excluded, so every frame of a connection hashes alike and the WAN
   stage's path-length draw is stable for the connection's lifetime. *)
let flow_hash t inst msg =
  let len = Msg.length msg in
  let h = ref (0x811c9dc5 lxor inst.salt) in
  let mix b = h := (!h lxor b) * 0x01000193 land 0x3FFFFFFF in
  let byte off = if t.skip_bytes + off < len then mix (Msg.get_u8 msg (t.skip_bytes + off)) in
  byte 9;
  for off = 12 to 19 do
    byte off
  done;
  let frag_off =
    if t.skip_bytes + 7 < len then
      ((Msg.get_u8 msg (t.skip_bytes + 6) lsl 8) lor Msg.get_u8 msg (t.skip_bytes + 7))
      land 0x1fff
    else 0
  in
  if frag_off = 0 then
    for off = 20 to 23 do
      byte off
    done;
  !h

let in_blackout ~start_ns ~duration_ns ~period_ns now =
  now >= start_ns
  &&
  if period_ns <= 0 then now < start_ns + duration_ns
  else (now - start_ns) mod period_ns < duration_ns

(* Run one candidate frame through one stage.  [None] means consumed. *)
let apply_stage t ~now ~on_event inst (msg, delay) =
  match inst.spec with
  | Bernoulli_loss { p } ->
    if hit inst.rng p then begin
      t.dropped_loss <- t.dropped_loss + 1;
      on_event (Ev_drop Random_loss);
      Msg.destroy msg;
      []
    end
    else [ (msg, delay) ]
  | Gilbert_elliott { p_gb; p_bg; loss_good; loss_bad } ->
    let loss = if inst.ge_bad then loss_bad else loss_good in
    let drop = hit inst.rng loss in
    (* Advance the chain once per offered frame, after the loss draw. *)
    (if inst.ge_bad then begin
       if hit inst.rng p_bg then inst.ge_bad <- false
     end
     else if hit inst.rng p_gb then inst.ge_bad <- true);
    if drop then begin
      t.dropped_burst <- t.dropped_burst + 1;
      on_event (Ev_drop Burst_loss);
      Msg.destroy msg;
      []
    end
    else [ (msg, delay) ]
  | Duplicate { p } ->
    if hit inst.rng p then begin
      t.duplicated <- t.duplicated + 1;
      on_event Ev_dup;
      [ (msg, delay); (Msg.dup msg, delay) ]
    end
    else [ (msg, delay) ]
  | Reorder { p; hold_ns } ->
    if hit inst.rng p then begin
      t.reordered <- t.reordered + 1;
      on_event (Ev_reorder { delay_ns = hold_ns });
      [ (msg, delay + hold_ns) ]
    end
    else [ (msg, delay) ]
  | Corrupt { p } ->
    if hit inst.rng p then begin
      match flip_one_bit t inst msg with
      | Some (off, bit) ->
        t.corrupted <- t.corrupted + 1;
        on_event (Ev_corrupt { off; bit });
        [ (msg, delay) ]
      | None -> [ (msg, delay) ] (* header-only runt; nothing safe to flip *)
    end
    else [ (msg, delay) ]
  | Jitter { p; spike_ns } ->
    if hit inst.rng p && spike_ns > 0 then begin
      let spike = Prng.int inst.rng spike_ns in
      t.delayed <- t.delayed + 1;
      on_event (Ev_delay { delay_ns = spike });
      [ (msg, delay + spike) ]
    end
    else [ (msg, delay) ]
  | Wan_rtt { base_ns; spread_ns } ->
    let extra =
      base_ns + if spread_ns > 0 then flow_hash t inst msg mod spread_ns else 0
    in
    t.wan_stretched <- t.wan_stretched + 1;
    on_event (Ev_delay { delay_ns = extra });
    [ (msg, delay + extra) ]
  | Blackout { start_ns; duration_ns; period_ns } ->
    if in_blackout ~start_ns ~duration_ns ~period_ns now then begin
      t.dropped_blackout <- t.dropped_blackout + 1;
      on_event (Ev_drop Blackout_window);
      Msg.destroy msg;
      []
    end
    else [ (msg, delay) ]

let feed t ~now ~on_event msg =
  t.offered <- t.offered + 1;
  List.fold_left
    (fun candidates inst ->
      List.concat_map (apply_stage t ~now ~on_event inst) candidates)
    [ (msg, 0) ] t.insts

let offered t = t.offered
let dropped t = t.dropped_loss + t.dropped_burst + t.dropped_blackout
let dropped_loss t = t.dropped_loss
let dropped_burst t = t.dropped_burst
let dropped_blackout t = t.dropped_blackout
let corrupted t = t.corrupted
let duplicated t = t.duplicated
let reordered t = t.reordered
let delayed t = t.delayed
let wan_stretched t = t.wan_stretched
