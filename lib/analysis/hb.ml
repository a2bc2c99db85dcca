open Pnp_engine

(* FastTrack-style happens-before race detection over trace replay.

   Every simulated thread carries a vector clock; every synchronisation
   object in the trace is a release/acquire channel:

     lock L      release at [Lock_release], acquire at [Lock_grant]
     gate G      release at [Gate_advance], acquire at [Gate_pass]
     fork        parent's clock seeds the child at [Thread_fork]
     join        child's final clock ([Thread_exit]) joins the joiner
                 at [Thread_join]
     membus      [Membus_charge] is both an acquire and a release on a
                 single bus channel: a charge models a coherence
                 round-trip whose reply orders it after every earlier
                 completed transfer
     SCR log S   release at [Scr_append] (the append publishes the entry)
                 and at [Scr_apply_end]; acquire at [Scr_apply].  The
                 chain append -> apply -> next apply is exactly the
                 ordering state-compute replication relies on: entries
                 apply in log order, each apply section after the
                 appends it consumes and after the previous section.

   Two accesses to the same state race when neither happens-before the
   other.  Unlike the Eraser-style lockset checker this sees ordering
   that involves no common lock (fork/join, gate hand-offs), so the two
   disagree in both directions: lockset-only findings are false-positive
   candidates, HB-only findings are real races the lockset abstraction
   missed.

   The tracer is usually enabled mid-run, so locks can be held (and
   nodes live) from before the first record.  That cannot manufacture a
   false HB race: an edge is only *missing* when its release half
   predates the trace, and a missing edge makes the detector report
   *more* concurrency, which the lockset cross-check in `repro check`
   surfaces rather than hides.  In practice every access in the window
   re-synchronises through in-window grants/releases. *)

(* Vector clocks as int arrays indexed by tid.  Tids are dense and the
   thread population per trace is small (tens), so a join is a short
   loop over unboxed ints; a clock grows when it first sees a larger
   tid. *)
module Vc = struct
  type t = { mutable c : int array }

  let create () = { c = [||] }
  let get t tid = if tid < Array.length t.c then Array.unsafe_get t.c tid else 0

  let resize t n =
    let c = Array.make n 0 in
    Array.blit t.c 0 c 0 (Array.length t.c);
    t.c <- c

  let tick t tid =
    let len = Array.length t.c in
    if tid >= len then resize t (max (tid + 1) (2 * len));
    t.c.(tid) <- t.c.(tid) + 1

  (* a := a join b.  [a] grows to exactly [b]'s length, never doubles:
     joins in both directions must not ratchet each other's size up. *)
  let join a b =
    let n = Array.length b.c in
    if n > Array.length a.c then resize a n;
    let ac = a.c and bc = b.c in
    for i = 0 to n - 1 do
      let v = Array.unsafe_get bc i in
      if v > Array.unsafe_get ac i then Array.unsafe_set ac i v
    done

  let copy t = { c = Array.copy t.c }
end

type access = { a_tid : int; a_clk : int; a_rec : Trace.record }

type cell = {
  mutable last_write : access option;
  mutable reads : access list; (* reads since the last write, one per tid *)
  mutable reported : bool;
}

type race = {
  state : string;
  first : Trace.record;
  second : Trace.record;
  write_write : bool;
}

(* An SCR apply section claiming an index the trace never saw appended:
   the replay read ahead of the appended tail, so the "entry" it applied
   did not exist yet — the log-replay analogue of a use-before-publish
   race.  [v_max] is the highest index appended before the apply (for an
   apply ahead of the log's first in-window append, the index just below
   that append). *)
type violation = { v_log : string; v_idx : int; v_max : int; v_rec : Trace.record }

(* [happened_before a vc] — did access [a] happen before the point whose
   clock is [vc]? *)
let hb (a : access) (vc : Vc.t) = a.a_clk <= Vc.get vc a.a_tid

type t = {
  bus_sync : bool;
  clocks : Vc.t Replay.Slots.t; (* by tid *)
  exited : (int, Vc.t) Hashtbl.t;
  forked : (int, Vc.t) Hashtbl.t;
  (* One channel table per kind, keyed by the object's interned id. *)
  locks : Vc.t Replay.Slots.t;
  gates : Vc.t Replay.Slots.t;
  logs : Vc.t Replay.Slots.t;
  bus : Vc.t;
  cells : cell Replay.Slots.t; (* by state id *)
  (* Per SCR log id: highest index seen appended (absent before any append). *)
  appended : int Replay.Slots.t;
  (* Per SCR log id with no append in the window yet: the applies seen so
     far, newest first.  The window may open mid-replay, so such an apply
     may consume an entry appended before the trace began; it is judged
     only once the log's first in-window append shows where the tail was. *)
  held : (int * Trace.record) list Replay.Slots.t;
  mutable races : race list;
  mutable violations : violation list;
}

let create ?(bus_sync = true) () =
  {
    bus_sync;
    clocks = Replay.Slots.create ();
    exited = Hashtbl.create 16;
    forked = Hashtbl.create 16;
    locks = Replay.Slots.create ();
    gates = Replay.Slots.create ();
    logs = Replay.Slots.create ();
    bus = Vc.create ();
    cells = Replay.Slots.create ();
    appended = Replay.Slots.create ();
    held = Replay.Slots.create ();
    races = [];
    violations = [];
  }

let flag t log idx v_max r =
  t.violations <- { v_log = log; v_idx = idx; v_max; v_rec = r } :: t.violations

let clock t tid =
  match Replay.Slots.get t.clocks tid with
  | Some vc -> vc
  | None ->
    let vc =
      (* A thread's first event adopts the fork-time snapshot of its
         parent, if the fork was traced. *)
      match Hashtbl.find_opt t.forked tid with
      | Some parent_vc -> Vc.copy parent_vc
      | None -> Vc.create ()
    in
    Vc.tick vc tid;
    Replay.Slots.set t.clocks tid vc;
    vc

let channel tbl id =
  match Replay.Slots.get tbl id with
  | Some vc -> vc
  | None ->
    let vc = Vc.create () in
    Replay.Slots.set tbl id vc;
    vc

(* Release: publish the thread's clock into the channel, then tick so
   the thread's later events are not ordered behind this release. *)
let release t tid ch =
  let vc = clock t tid in
  Vc.join ch vc;
  Vc.tick vc tid

let acquire t tid ch = Vc.join (clock t tid) ch

let access t (r : Trace.record) sid state write =
  let tid = r.Trace.tid in
  let vc = clock t tid in
  let c =
    match Replay.Slots.get t.cells sid with
    | Some c -> c
    | None ->
      let c = { last_write = None; reads = []; reported = false } in
      Replay.Slots.set t.cells sid c;
      c
  in
  let report prev ~write_write =
    if not c.reported then begin
      c.reported <- true;
      t.races <- { state; first = prev.a_rec; second = r; write_write } :: t.races
    end
  in
  (match c.last_write with
  | Some w when w.a_tid <> tid && not (hb w vc) -> report w ~write_write:write
  | _ -> ());
  if write then begin
    List.iter
      (fun rd -> if rd.a_tid <> tid && not (hb rd vc) then report rd ~write_write:false)
      c.reads;
    c.last_write <- Some { a_tid = tid; a_clk = Vc.get vc tid; a_rec = r };
    c.reads <- []
  end
  else begin
    let entry = { a_tid = tid; a_clk = Vc.get vc tid; a_rec = r } in
    c.reads <- entry :: List.filter (fun rd -> rd.a_tid <> tid) c.reads
  end

let step t ctx (r : Trace.record) =
  let tid = r.Trace.tid and id = Replay.id ctx in
  match r.Trace.ev with
  | Trace.Thread_fork { child } ->
    let vc = clock t tid in
    Hashtbl.replace t.forked child (Vc.copy vc);
    Vc.tick vc tid
  | Trace.Thread_exit -> Hashtbl.replace t.exited tid (Vc.copy (clock t tid))
  | Trace.Thread_join { child } -> (
    match Hashtbl.find_opt t.exited child with
    | Some final -> Vc.join (clock t tid) final
    | None -> ())
  | Trace.Lock_grant _ -> acquire t tid (channel t.locks id)
  | Trace.Lock_release _ -> release t tid (channel t.locks id)
  | Trace.Scr_append { log; idx } ->
    (match Replay.Slots.get t.appended id with
    | Some prev -> if idx > prev then Replay.Slots.set t.appended id idx
    | None ->
      (* The first in-window append: entries below [idx] may predate the
         window, so a held apply read ahead only if it claimed [idx] or
         beyond.  Once a log has an append, [held] is never read again. *)
      Replay.Slots.set t.appended id idx;
      List.iter
        (fun (i, r) -> if i >= idx then flag t log i (idx - 1) r)
        (List.rev (Option.value ~default:[] (Replay.Slots.get t.held id))));
    release t tid (channel t.logs id)
  | Trace.Scr_apply { log; idx } ->
    (* idx = -1 marks an output/timer section, which consumes no log entry
       and cannot read ahead of the tail. *)
    (if idx >= 0 then
       match Replay.Slots.get t.appended id with
       | Some max_app -> if idx > max_app then flag t log idx max_app r
       | None ->
         let prev = Option.value ~default:[] (Replay.Slots.get t.held id) in
         Replay.Slots.set t.held id ((idx, r) :: prev));
    acquire t tid (channel t.logs id)
  | Trace.Scr_apply_end _ -> release t tid (channel t.logs id)
  | Trace.Gate_advance _ -> release t tid (channel t.gates id)
  | Trace.Gate_pass _ -> acquire t tid (channel t.gates id)
  | Trace.Membus_charge _ when t.bus_sync ->
    acquire t tid t.bus;
    release t tid t.bus
  | Trace.Access { state; write } -> access t r id state write
  | _ -> ()

let races_of t = List.rev t.races

let findings t =
  List.map
    (fun r ->
      Finding.v ~checker:"hb-race" ~subject:r.state
        ~witnesses:[ r.first; r.second ]
        (Printf.sprintf
           "unordered %s by tid %d and tid %d: no happens-before path \
            (fork/join, gate, lock release→acquire or bus reply) connects the \
            two accesses"
           (if r.write_write then "writes" else "read/write pair")
           r.first.Trace.tid r.second.Trace.tid))
    (races_of t)
  @ List.map
      (fun v ->
        Finding.v ~checker:"hb-race" ~subject:v.v_log ~witnesses:[ v.v_rec ]
          (Printf.sprintf
             "SCR replay read ahead of the appended tail: tid %d applied log \
              entry %d but only entries up to %d had been appended — the \
              append that publishes an entry must happen before the apply \
              that consumes it"
             v.v_rec.Trace.tid v.v_idx v.v_max))
      (List.rev t.violations)
  |> Finding.sort

let run_full ?bus_sync tracer = Replay.run tracer (create ?bus_sync ()) step
let run ?bus_sync tracer = races_of (run_full ?bus_sync tracer)
let races ?bus_sync tracer = List.map (fun r -> r.state) (run ?bus_sync tracer)
let check ?bus_sync tracer = findings (run_full ?bus_sync tracer)
