open Pnp_engine

(* BSD's slow-timeout scale (Section 2.1): 10 ms ticks over 128 slots, so
   one lap of the wheel is 1.28 s.  Expirations are serviced on CPU 0. *)
let slot_ns = Pnp_util.Units.ms 10.0
let slots = 128

type entry = {
  fire_tick : int;
  action : unit -> unit;
  mutable state : [ `Pending | `Cancelled | `Fired ];
}

type handle = entry

type t = {
  plat : Platform.t;
  name : string;
  chains : entry list array;
  chain_locks : Lock.t array;
  mutable pending : int;
  mutable fired : int;
  mutable ticking : bool;
  mutable next_tick : int; (* while [ticking], the armed tick *)
  on_tick : unit -> unit; (* the wheel's one tick event *)
}

(* Service all due entries of the slot for [tick], then arm the next tick
   if anything is still pending. *)
let rec service t tick =
  let slot = tick mod slots in
  let due = ref [] in
  Lock.with_lock t.chain_locks.(slot) (fun () ->
      let stay, fire = List.partition (fun e -> e.fire_tick > tick) t.chains.(slot) in
      t.chains.(slot) <- stay;
      due := fire);
  List.iter
    (fun e ->
      match e.state with
      | `Cancelled -> ()
      | `Fired -> assert false
      | `Pending ->
        e.state <- `Fired;
        t.pending <- t.pending - 1;
        t.fired <- t.fired + 1;
        e.action ())
    !due;
  arm t

and arm t =
  if t.pending > 0 && not t.ticking then begin
    t.ticking <- true;
    t.next_tick <- max t.next_tick ((Sim.now t.plat.Platform.sim / slot_ns) + 1);
    Sim.at t.plat.Platform.sim (t.next_tick * slot_ns) t.on_tick
  end

let rec has_due tick = function [] -> false | e :: es -> e.fire_tick <= tick || has_due tick es

(* The armed tick: spin up a worker only when its slot has work due;
   an empty tick just re-arms, allocating nothing. *)
let tick t =
  let tick = t.next_tick in
  t.ticking <- false;
  t.next_tick <- tick + 1;
  if has_due tick t.chains.(tick mod slots) then
    ignore
      (Sim.spawn t.plat.Platform.sim ~cpu:0
         ~name:(t.name ^ ".tick" ^ string_of_int tick)
         (fun () -> service t tick))
  else arm t

let create plat ~name () =
  let chain_locks =
    Array.init slots (fun i ->
        Lock.create plat.Platform.sim plat.Platform.arch Lock.Unfair
          ~name:(Printf.sprintf "%s.chain%d" name i))
  in
  let rec t =
    {
      plat;
      name;
      chains = Array.make slots [];
      chain_locks;
      pending = 0;
      fired = 0;
      ticking = false;
      next_tick = 0;
      on_tick = (fun () -> tick t);
    }
  in
  t

let schedule t ~after action =
  if after < 0 then invalid_arg "Timewheel.schedule: negative delay";
  let now = Sim.now t.plat.Platform.sim in
  let fire_tick = max ((now + after + slot_ns - 1) / slot_ns) ((now / slot_ns) + 1) in
  let e = { fire_tick; action; state = `Pending } in
  let slot = fire_tick mod slots in
  Lock.with_lock t.chain_locks.(slot) (fun () -> t.chains.(slot) <- e :: t.chains.(slot));
  t.pending <- t.pending + 1;
  arm t;
  e

let cancel t e =
  let slot = e.fire_tick mod slots in
  Lock.with_lock t.chain_locks.(slot) (fun () ->
      match e.state with
      | `Pending ->
        e.state <- `Cancelled;
        t.pending <- t.pending - 1;
        (* Unlink eagerly; the chain is short. *)
        t.chains.(slot) <- List.filter (fun e' -> e' != e) t.chains.(slot);
        true
      | `Cancelled | `Fired -> false)

let pending t = t.pending
let fired t = t.fired
