open Pnp_engine

(* FastTrack-style happens-before race detection over trace replay.

   Every simulated thread carries a vector clock; every synchronisation
   object in the trace is a release/acquire channel:

     lock L      release at [Lock_release], acquire at [Lock_grant]
     gate G      release at [Gate_advance], acquire at [Gate_pass]
     fork        parent's clock seeds the child at [Thread_fork]; no
                 simulated thread waits for another to finish, so fork
                 is the only thread edge
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
   that involves no common lock (fork, gate hand-offs), so the two
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
     joins in both directions must not ratchet each other's size up.
     The max is taken without a branch (entries are small and
     non-negative, so [v - w] keeps its sign): which side wins is data,
     and a mispredicted branch per entry cost more than the loop. *)
  let join a b =
    let n = Array.length b.c in
    if n > Array.length a.c then resize a n;
    let ac = a.c and bc = b.c in
    for i = 0 to n - 1 do
      let v = Array.unsafe_get bc i and w = Array.unsafe_get ac i in
      let d = v - w in
      Array.unsafe_set ac i (w + (d land lnot (d asr 62)))
    done

  let copy t = { c = Array.copy t.c }
end

(* One state's accesses that later ones are checked against: its last
   write, and the reads since it, one per tid, newest last.  An access
   is its tid, that thread's clock entry at the access, and its row. *)
type cell = {
  mutable written : bool;
  mutable w_tid : int;
  mutable w_clk : int;
  mutable w_pos : Trace.pos;
  mutable n : int; (* reads: the first [n] entries of the [r_] arrays *)
  mutable r_tid : int array;
  mutable r_clk : int array;
  mutable r_pos : int array;
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

(* Did the access by [tid] at its clock entry [clk] happen before the
   point whose clock is [vc]? *)
let hb ~tid ~clk (vc : Vc.t) = clk <= Vc.get vc tid

type t = {
  ctx : Replay.ctx;
  clocks : Vc.t Replay.Slots.t; (* by tid *)
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
     far (index and row), newest first.  The window may open mid-replay,
     so such an apply may consume an entry appended before the trace
     began; it is judged only once the log's first in-window append shows
     where the tail was. *)
  held : (int * Trace.pos) list Replay.Slots.t;
  mutable races : race list;
  mutable violations : violation list;
}

let create ctx =
  {
    ctx;
    clocks = Replay.Slots.create ();
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

let flag t log idx v_max pos =
  t.violations <-
    { v_log = log; v_idx = idx; v_max; v_rec = Replay.record t.ctx pos } :: t.violations

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

let cell t sid =
  match Replay.Slots.get t.cells sid with
  | Some c -> c
  | None ->
    let c =
      {
        written = false;
        w_tid = 0;
        w_clk = 0;
        w_pos = 0;
        n = 0;
        r_tid = [||];
        r_clk = [||];
        r_pos = [||];
        reported = false;
      }
    in
    Replay.Slots.set t.cells sid c;
    c

let report t c row prev ~write_write =
  if not c.reported then begin
    c.reported <- true;
    t.races <-
      {
        state = Trace.Row.name row;
        first = Replay.record t.ctx prev;
        second = Trace.Row.record row;
        write_write;
      }
      :: t.races
  end

(* The thread's read replaces its earlier one, if any, as the newest.
   Already the newest, as when a thread reads a state again, it is
   replaced in place. *)
let add_read c tid clk pos =
  if c.n > 0 && c.r_tid.(c.n - 1) = tid then begin
    c.r_clk.(c.n - 1) <- clk;
    c.r_pos.(c.n - 1) <- pos
  end
  else begin
    let k = ref 0 in
    for i = 0 to c.n - 1 do
      if c.r_tid.(i) <> tid then begin
        c.r_tid.(!k) <- c.r_tid.(i);
        c.r_clk.(!k) <- c.r_clk.(i);
        c.r_pos.(!k) <- c.r_pos.(i);
        incr k
      end
    done;
    let k = !k in
    c.r_tid <- Replay.grow c.r_tid k 0;
    c.r_clk <- Replay.grow c.r_clk k 0;
    c.r_pos <- Replay.grow c.r_pos k 0;
    c.r_tid.(k) <- tid;
    c.r_clk.(k) <- clk;
    c.r_pos.(k) <- pos;
    c.n <- k + 1
  end

let access t row =
  let tid = Trace.Row.tid row and write = Trace.Row.int0 row <> 0 in
  let vc = clock t tid in
  let c = cell t (Replay.id t.ctx) in
  if c.written && c.w_tid <> tid && not (hb ~tid:c.w_tid ~clk:c.w_clk vc) then
    report t c row c.w_pos ~write_write:write;
  let clk = Vc.get vc tid and pos = Trace.Row.pos row in
  if write then begin
    for i = c.n - 1 downto 0 do
      if c.r_tid.(i) <> tid && not (hb ~tid:c.r_tid.(i) ~clk:c.r_clk.(i) vc) then
        report t c row c.r_pos.(i) ~write_write:false
    done;
    c.written <- true;
    c.w_tid <- tid;
    c.w_clk <- clk;
    c.w_pos <- pos;
    c.n <- 0
  end
  else add_read c tid clk pos

let sync t row =
  let tid = Trace.Row.tid row and id = Replay.id t.ctx in
  match Trace.Row.kind row with
  | Trace.Kind.Thread_fork ->
    let vc = clock t tid in
    Hashtbl.replace t.forked (Trace.Row.int0 row) (Vc.copy vc);
    Vc.tick vc tid
  | Trace.Kind.Lock_grant -> acquire t tid (channel t.locks id)
  | Trace.Kind.Lock_release -> release t tid (channel t.locks id)
  | Trace.Kind.Scr_append ->
    let idx = Trace.Row.int0 row in
    (match Replay.Slots.get t.appended id with
     | Some prev -> if idx > prev then Replay.Slots.set t.appended id idx
     | None ->
       (* The first in-window append: entries below [idx] may predate the
          window, so a held apply read ahead only if it claimed [idx] or
          beyond.  Once a log has an append, [held] is never read again. *)
       Replay.Slots.set t.appended id idx;
       List.iter
         (fun (i, pos) -> if i >= idx then flag t (Trace.Row.name row) i (idx - 1) pos)
         (List.rev (Option.value ~default:[] (Replay.Slots.get t.held id))));
    release t tid (channel t.logs id)
  | Trace.Kind.Scr_apply ->
    let idx = Trace.Row.int0 row in
    (* idx = -1 marks an output/timer section, which consumes no log entry
       and cannot read ahead of the tail. *)
    (if idx >= 0 then
       match Replay.Slots.get t.appended id with
       | Some max_app -> if idx > max_app then flag t (Trace.Row.name row) idx max_app (Trace.Row.pos row)
       | None ->
         let prev = Option.value ~default:[] (Replay.Slots.get t.held id) in
         Replay.Slots.set t.held id ((idx, Trace.Row.pos row) :: prev));
    acquire t tid (channel t.logs id)
  | Trace.Kind.Scr_apply_end -> release t tid (channel t.logs id)
  | Trace.Kind.Gate_advance -> release t tid (channel t.gates id)
  | Trace.Kind.Gate_pass -> acquire t tid (channel t.gates id)
  | Trace.Kind.Membus_charge ->
    acquire t tid t.bus;
    release t tid t.bus
  | _ -> ()

let races t = List.rev_map (fun r -> r.state) t.races

let findings t =
  List.map
    (fun r ->
      Finding.v ~checker:"hb-race" ~subject:r.state
        ~witnesses:[ r.first; r.second ]
        (Printf.sprintf
           "unordered %s by tid %d and tid %d: no happens-before path \
            (fork, gate, lock release→acquire, SCR log append→apply or bus) \
            connects the two accesses"
           (if r.write_write then "writes" else "read/write pair")
           r.first.Trace.tid r.second.Trace.tid))
    (List.rev t.races)
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
