open Pnp_util

type discipline = Unfair | Fifo | Barging

type waiter = { th : Sim.thread; resume : int -> unit }

type t = {
  sim : Sim.t;
  arch : Arch.t;
  disc : discipline;
  name : string;
  acquire_ns : int;
  mutable announced : bool; (* discipline registered with the tracer *)
  mutable owner : int; (* the owner's tid; -1 while free *)
  mutable last_cpu : int;
  mutable waiters : waiter array;
      (* slots [0, nwaiters) in arrival order; [||] while nobody waits *)
  mutable nwaiters : int;
  mutable hold_start : int;
  mutable acquisitions : int;
  mutable contended : int;
  mutable total_wait_ns : int;
  mutable total_hold_ns : int;
}

let discipline_name = function
  | Unfair -> "unfair"
  | Fifo -> "fifo"
  | Barging -> "barging"

let create sim arch disc ~name =
  let acquire_ns =
    match disc with
    | Unfair | Barging -> arch.Arch.mutex_ns
    | Fifo -> arch.Arch.mcs_ns
  in
  {
    sim;
    arch;
    disc;
    name;
    acquire_ns;
    announced = false;
    owner = -1;
    last_cpu = -1;
    waiters = [||];
    nwaiters = 0;
    hold_start = 0;
    acquisitions = 0;
    contended = 0;
    total_wait_ns = 0;
    total_hold_ns = 0;
  }

let migration_ns t th =
  match t.arch.Arch.sync with
  | Arch.Sync_bus -> 0
  | Arch.Coherency ->
    if t.last_cpu >= 0 && t.last_cpu <> Sim.cpu th then t.arch.Arch.coherency_ns
    else 0

(* A lock registers its discipline with its first traced record: most are
   never traced, and only the order checker reads it, for traced locks. *)
let trace t ev =
  if not t.announced then begin
    t.announced <- true;
    Trace.register_lock (Sim.tracer t.sim) ~name:t.name ~discipline:(discipline_name t.disc)
  end;
  Sim.trace t.sim ev

let become_owner t th ~grant_time =
  t.owner <- Sim.tid th;
  t.last_cpu <- Sim.cpu th;
  t.acquisitions <- t.acquisitions + 1;
  t.hold_start <- grant_time

(* The queue array is allocated on first contention and doubles when
   full; [take_waiter] drops it again once the queue drains. *)
let enqueue t w =
  let n = t.nwaiters in
  if n = Array.length t.waiters then begin
    let grown = Array.make (max 4 (2 * n)) w in
    Array.blit t.waiters 0 grown 0 n;
    t.waiters <- grown
  end;
  t.waiters.(n) <- w;
  t.nwaiters <- n + 1

let acquire t =
  if Sim.defer_active t.sim then
    (* Deferred-charge section (SCR replay): the section re-executes code
       that took this lock, but a replica's lock operations are local —
       there is no cross-thread lock to contend on.  Charge the lock
       instruction cost and skip ownership entirely; the matching
       [release] below is a no-op.  Sections are host-atomic, so no other
       thread can observe the skipped ownership. *)
    Sim.delay t.sim t.acquire_ns
  else begin
  let th = Sim.self t.sim in
  (* The lock operation itself (test-and-set / MCS swap) costs time before
     we learn the outcome; another thread may slip in during it. *)
  Sim.delay t.sim t.acquire_ns;
  if Trace.enabled (Sim.tracer t.sim) then
    trace t (Trace.Lock_request { lock = t.name; waiters = t.nwaiters });
  if t.owner < 0 then begin
    let mig = migration_ns t th in
    become_owner t th ~grant_time:(Sim.now t.sim + mig);
    if Trace.enabled (Sim.tracer t.sim) then
      trace t (Trace.Lock_grant { lock = t.name; waiters = 0; wait_ns = 0 });
    if mig > 0 then Sim.delay t.sim mig
  end
  else begin
    t.contended <- t.contended + 1;
    let enq_time = Sim.now t.sim in
    Sim.suspend t.sim (fun resume -> enqueue t { th; resume });
    (* Resumed by [release]; ownership and stats were set there. *)
    let waited = Sim.now t.sim - enq_time in
    t.total_wait_ns <- t.total_wait_ns + waited;
    Sim.note_wait th waited;
    if Trace.enabled (Sim.tracer t.sim) then
      trace t (Trace.Lock_grant { lock = t.name; waiters = t.nwaiters; wait_ns = waited })
  end
  end

(* Remove and return the waiter chosen by the discipline; the queue must
   be non-empty.  Unfair locks model the IRIX mutex: the grant goes to an
   arbitrary waiter, drawn only when there is a choice to make. *)
let take_waiter t =
  let n = t.nwaiters in
  let q = t.waiters in
  let i =
    if n = 1 then 0
    else
      match t.disc with
      | Fifo -> 0
      | Barging -> n - 1 (* newest arrival wins the test-and-set race *)
      | Unfair -> Prng.int (Sim.prng t.sim) n
  in
  let w = q.(i) in
  Array.blit q (i + 1) q i (n - 1 - i);
  t.nwaiters <- n - 1;
  (* A drained queue lets its array go; otherwise the vacated tail slot
     aliases a live waiter so it retains nothing. *)
  if n = 1 then t.waiters <- [||] else q.(n - 1) <- q.(0);
  w

(* A non-owner release is always a caller bug; name everyone involved so
   the report is actionable without a debugger. *)
let non_owner_release t th =
  let owner_desc =
    if t.owner < 0 then "not held"
    else
      Printf.sprintf "owned by tid %d (%s)" t.owner
        (Sim.thread_name (Sim.thread_of_tid t.sim t.owner))
  in
  invalid_arg
    (Printf.sprintf "Lock.release %S: caller tid %d (%s) is not the owner; lock is %s" t.name
       (Sim.tid th) (Sim.thread_name th) owner_desc)

let release t =
  if Sim.defer_active t.sim then ()
  else begin
  let th = Sim.self t.sim in
  if t.owner <> Sim.tid th then
    non_owner_release t th;
  let now = Sim.now t.sim in
  t.total_hold_ns <- t.total_hold_ns + (now - t.hold_start);
  if Trace.enabled (Sim.tracer t.sim) then
    trace t (Trace.Lock_release { lock = t.name; hold_ns = now - t.hold_start });
  if t.nwaiters = 0 then begin
    t.owner <- -1;
    t.last_cpu <- Sim.cpu th
  end
  else
    let w = take_waiter t in
    let mig = migration_ns t w.th in
    let grant_time = now + t.arch.Arch.handoff_ns + mig in
    if Trace.enabled (Sim.tracer t.sim) then
      trace t
        (Trace.Lock_handoff
           {
             lock = t.name;
             to_tid = Sim.tid w.th;
             handoff_ns = t.arch.Arch.handoff_ns + mig;
           });
    become_owner t w.th ~grant_time;
    w.resume grant_time
  end

(* [Fun.protect] without its finaliser closure: release also when [f]
   raises, then re-raise [f]'s own exception with its backtrace. *)
let with_lock t f =
  acquire t;
  match f () with
  | v ->
    release t;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    release t;
    Printexc.raise_with_backtrace e bt

let name t = t.name
let owner t = t.owner
let acquisitions t = t.acquisitions
let contended_acquisitions t = t.contended
let total_wait_ns t = t.total_wait_ns
let total_hold_ns t = t.total_hold_ns
