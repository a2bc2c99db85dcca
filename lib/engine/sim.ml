open Pnp_util

type thread = {
  tid : int;
  cpu : int;
  name : string;
  mutable finished : bool;
  mutable runnable : bool; (* has a scheduled resumption (or is running) *)
  mutable waited_ns : int;
  mutable suspend_gen : int; (* suspension generation; catches stale resumes *)
}

type t = {
  mutable now : int;
  events : (unit -> unit) Eventq.t;
  rng : Prng.t;
  mutable next_tid : int;
  mutable next_cpu : int;
  mutable current : int; (* the running thread's tid; -1 outside a thread *)
  mutable threads : thread array; (* tid-indexed; first [next_tid] slots live *)
  mutable stopping : bool;
  mutable processed : int;
  tracer : Trace.t;
  handler : (unit, unit) Effect.Deep.handler; (* the one for all its threads *)
  mutable horizon : int;
      (* the latest wake-up a thread may wait for in place: the active
         [run]'s [until] (max_int when none), or one before the wake-up
         of the innermost in-place wait *)
  (* Deferred charging (SCR replay): while active, [delay] accumulates
     into [defer_acc] instead of advancing the clock, and [suspend] is an
     error — the section must be host-atomic. *)
  mutable defer_on : bool;
  mutable defer_acc : int;
}

let new_thread ~tid ~cpu ~name =
  { tid; cpu; name; finished = false; runnable = true; waited_ns = 0; suspend_gen = 0 }

type _ Effect.t +=
  | Suspend : t * ((int -> unit) -> unit) -> unit Effect.t
  | Park : t * int * int * (exn * Printexc.raw_backtrace) option -> unit Effect.t
      (* an in-place wait that has to give up: resume at the reserved
         (time, seq) key, then re-raise the exception, if any, outside
         the thread *)

let now t = t.now
let prng t = t.rng
let tracer t = t.tracer

let trace_thread t th ev =
  if Trace.enabled t.tracer then
    Trace.emit t.tracer ~ts:t.now ~tid:th.tid ~cpu:th.cpu ev

let trace t ev = if t.current >= 0 then trace_thread t t.threads.(t.current) ev

let at t time f =
  if time >= t.now then Eventq.add t.events ~time f
  else
    invalid_arg
      (Printf.sprintf "Sim.at: time %d is in the past (now %d)" time t.now)

let after t d = at t (t.now + d)

let self t =
  if t.current < 0 then failwith "Sim.self: not inside a simulated thread";
  t.threads.(t.current)

let thread_of_tid t tid =
  if tid < 0 || tid >= t.next_tid then invalid_arg "Sim.thread_of_tid: no such thread";
  t.threads.(tid)

(* One burst of a thread's execution: [t.current] holds its tid while
   [f x y] runs (the thread's body starting under the world's handler,
   or its continuation resuming) and is cleared when the thread
   suspends, finishes, or escapes with an exception.  Hand-rolled rather
   than [Fun.protect] so the per-burst cost is two integer stores, not a
   finaliser closure. *)
let run_burst t tid f x y =
  t.current <- tid;
  match f x y with
  | () -> t.current <- -1
  | exception e ->
    t.current <- -1;
    raise e

let resume_burst t th k = run_burst t th.tid Effect.Deep.continue k ()

(* The world's one effect handler, shared by all its threads: every
   burst runs with [t.current] set, so the handler reads the performing
   thread from it instead of closing over one. *)
let finish t =
  let th = t.threads.(t.current) in
  th.finished <- true;
  trace_thread t th Trace.Thread_exit

let effc (type a) t (eff : a Effect.t) : ((a, unit) Effect.Deep.continuation -> unit) option =
  match eff with
  | Suspend (owner, register) when owner == t ->
    let th = t.threads.(t.current) in
    Some
      (fun k ->
        (* A fresh generation per suspension: a resume carrying an old
           generation (or arriving while the thread is already runnable)
           is a double resume. *)
        th.suspend_gen <- th.suspend_gen + 1;
        let gen = th.suspend_gen in
        th.runnable <- false;
        let resume time =
          if th.runnable || gen <> th.suspend_gen then
            failwith (Printf.sprintf "Sim: thread %S resumed twice" th.name);
          th.runnable <- true;
          at t time (fun () -> resume_burst t th k)
        in
        register resume)
  | Park (owner, time, seq, exn) when owner == t ->
    let th = t.threads.(t.current) in
    Some
      (fun k ->
        (* The thread stays runnable: its resume is queued. *)
        th.suspend_gen <- th.suspend_gen + 1;
        Eventq.add_reserved t.events ~time ~seq (fun () -> resume_burst t th k);
        match exn with
        | None -> ()
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt)
  | _ -> None

let create ?(seed = 42) () =
  let rec t =
    {
      now = 0;
      events = Eventq.create ();
      rng = Prng.create seed;
      next_tid = 0;
      next_cpu = 0;
      current = -1;
      threads = [||];
      stopping = false;
      processed = 0;
      tracer = Trace.create ();
      handler = { retc = (fun () -> finish t); exnc = raise; effc = (fun eff -> effc t eff) };
      horizon = max_int;
      defer_on = false;
      defer_acc = 0;
    }
  in
  (* The Chrome export names threads from this table, so a thread
     spawned before tracing starts is named too. *)
  Trace.set_threads t.tracer (fun f ->
      for i = 0 to t.next_tid - 1 do
        f i t.threads.(i).name t.threads.(i).cpu
      done);
  t

(* Append [th] to the tid-indexed table, doubling the backing array as
   needed (the table replaces the old newest-first list, so diagnostics
   walk threads in tid order and tid lookups are O(1)). *)
let register_thread t th =
  let cap = Array.length t.threads in
  if t.next_tid >= cap then begin
    let table = Array.make (max 8 (2 * cap)) th in
    Array.blit t.threads 0 table 0 t.next_tid;
    t.threads <- table
  end;
  t.threads.(t.next_tid) <- th;
  t.next_tid <- t.next_tid + 1

let spawn t ?cpu ~name body =
  let cpu =
    match cpu with
    | Some c -> c
    | None ->
      let c = t.next_cpu in
      t.next_cpu <- t.next_cpu + 1;
      c
  in
  let th = new_thread ~tid:t.next_tid ~cpu ~name in
  register_thread t th;
  (* The fork edge: when the spawner is itself a simulated thread, its
     past happens-before everything the child does.  Emitted with the
     parent's tid so the happens-before checker can seed the child's
     clock from it; top-level spawns (setup code) have no parent edge. *)
  if Trace.enabled t.tracer then begin
    trace t (Trace.Thread_fork { child = th.tid });
    trace_thread t th (Trace.Thread_spawn { name })
  end;
  at t t.now (fun () ->
      run_burst t th.tid (fun body h -> Effect.Deep.match_with body () h) body t.handler);
  th

let in_thread t = t.current >= 0

let suspend t register =
  if t.defer_on then
    failwith "Sim.suspend: blocking operation inside a deferred-charge section";
  Effect.perform (Suspend (t, register))

(* Deferred charging: between [defer_begin] and [defer_end] every [delay]
   (and [yield]) accumulates into a counter instead of consuming simulated
   time, so a caller can run a whole protocol-processing section
   host-atomically and learn its total simulated cost afterwards.  SCR
   replay uses this to apply log entries in place and charge the stored
   cost on the applying thread's own clock.  Sections must not block:
   [suspend] raises while a defer is active.  Not nestable. *)
let defer_begin t =
  if t.defer_on then invalid_arg "Sim.defer_begin: already deferring";
  t.defer_on <- true;
  t.defer_acc <- 0

let defer_end t =
  if not t.defer_on then invalid_arg "Sim.defer_end: no deferred section";
  t.defer_on <- false;
  t.defer_acc

let defer_active t = t.defer_on

(* The dispatch loop of [run] and of an in-place [wait]: run, one at a
   time in global (time, seq) order, every queued event that sorts
   before the key, until [stop]. *)
let[@inline] run_before t ~time ~seq =
  let q = t.events in
  while (not t.stopping) && Eventq.head_before q ~time ~seq do
    let now = Eventq.peek_time_exn q in
    let action = Eventq.pop_exn q in
    assert (now >= t.now);
    t.now <- now;
    t.processed <- t.processed + 1;
    action ()
  done

(* A delaying thread need not suspend to let the events due before its
   wake-up run: it reserves the (time, seq) key its resume event would
   have had and runs every event ordered before that key itself, with
   [current] cleared as the dispatch loop runs them, then advances the
   clock and counts the resume it skipped.  The global event order, the
   event count and the trace are those of the suspend path.  A thread
   resumed inside the wait may wait in place only for a wake-up strictly
   before this one ([horizon]), or it would run events past a key that
   sits below it on the stack.  A [stop] or an event's exception parks
   the thread at its reserved key ([Park]), as if it had suspended: the
   exception escapes [run] with the thread's frames, and its locks,
   intact.  [current] is the thread's again before it parks: the handler
   reads the parking thread from it. *)
let wait t tid wake =
  let seq = Eventq.reserve t.events in
  let outer = t.horizon in
  t.horizon <- wake - 1;
  t.current <- -1;
  match run_before t ~time:wake ~seq with
  | () ->
    t.horizon <- outer;
    t.current <- tid;
    if t.stopping then Effect.perform (Park (t, wake, seq, None))
    else begin
      t.now <- wake;
      t.processed <- t.processed + 1
    end
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    t.horizon <- outer;
    t.current <- tid;
    Effect.perform (Park (t, wake, seq, Some (e, bt)))

(* Consume [d] of the calling thread's time.  With no event due at or
   before the wake-up the clock simply advances (the inline delay, the
   per-event hot path); with some due the thread waits in place; it
   suspends only outside a thread, past [horizon] or after [stop]. *)
let[@inline] pass t d =
  let wake = t.now + d in
  let tid = t.current in
  if tid >= 0 && wake <= t.horizon && not t.stopping then begin
    if Eventq.head_before t.events ~time:wake ~seq:max_int then wait t tid wake
    else begin
      t.now <- wake;
      t.processed <- t.processed + 1
    end
  end
  else suspend t (fun resume -> resume wake)

let delay t d =
  if d < 0 then invalid_arg "Sim.delay: negative duration";
  if t.defer_on then t.defer_acc <- t.defer_acc + d
  else if d > 0 then pass t d

(* A yield is a zero-length wait: the events already queued at this
   instant run first. *)
let yield t = if not t.defer_on then pass t 0

let stop t = t.stopping <- true

(* Every event at or before [limit]: the key ([limit], max_int) sorts
   after all of them, since no seq reaches max_int. *)
let run ?until t =
  t.stopping <- false;
  let limit = match until with Some l -> l | None -> max_int in
  t.horizon <- limit;
  run_before t ~time:limit ~seq:max_int;
  match until with
  | Some limit when not t.stopping -> t.now <- max t.now limit
  | _ -> ()

(* Diagnostics below walk the live prefix of the table; results come back
   in tid (spawn) order. *)
let filter_threads t pred =
  let acc = ref [] in
  for i = t.next_tid - 1 downto 0 do
    let th = t.threads.(i) in
    if pred th then acc := th :: !acc
  done;
  !acc

let blocked_threads t =
  filter_threads t (fun th -> (not th.finished) && not th.runnable)

let pp_blocked fmt t =
  match blocked_threads t with
  | [] -> Format.fprintf fmt "no blocked threads"
  | bs ->
    Format.fprintf fmt "%d blocked thread(s):" (List.length bs);
    List.iter
      (fun th -> Format.fprintf fmt "@ [tid %d cpu %d %S]" th.tid th.cpu th.name)
      bs

let tid th = th.tid
let cpu th = th.cpu
let thread_name th = th.name
let is_finished th = th.finished
let note_wait th d = th.waited_ns <- th.waited_ns + d
let wait_ns th = th.waited_ns
let events_processed t = t.processed
