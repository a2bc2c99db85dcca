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

(* Vector clocks as tid-keyed hash tables: tids are dense but the
   thread population per trace is small (tens), and most clocks are
   sparse, so per-entry hashing beats sizing arrays to max-tid. *)
module Vc = struct
  type t = (int, int) Hashtbl.t

  let create () : t = Hashtbl.create 8
  let get (t : t) tid = Option.value ~default:0 (Hashtbl.find_opt t tid)
  let set (t : t) tid v = Hashtbl.replace t tid v
  let tick t tid = set t tid (get t tid + 1)

  (* a := a join b *)
  let join (a : t) (b : t) =
    Hashtbl.iter (fun tid v -> if v > get a tid then set a tid v) b

  let copy (t : t) : t = Hashtbl.copy t
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

let bus_channel = "\x00bus" (* unspellable as a lock or gate name *)

(* [happened_before a vc] — did access [a] happen before the point whose
   clock is [vc]? *)
let hb (a : access) (vc : Vc.t) = a.a_clk <= Vc.get vc a.a_tid

let run_full ?(bus_sync = true) tracer =
  let clocks : (int, Vc.t) Hashtbl.t = Hashtbl.create 16 in
  let channels : (string, Vc.t) Hashtbl.t = Hashtbl.create 16 in
  let exited : (int, Vc.t) Hashtbl.t = Hashtbl.create 16 in
  let forked : (int, Vc.t) Hashtbl.t = Hashtbl.create 16 in
  let cells : (string, cell) Hashtbl.t = Hashtbl.create 32 in
  (* Per SCR log: highest index seen appended (absent before any append). *)
  let appended : (string, int) Hashtbl.t = Hashtbl.create 4 in
  (* Per SCR log with no append in the window yet: the applies seen so
     far, newest first.  The window may open mid-replay, so such an apply
     may consume an entry appended before the trace began; it is judged
     only once the log's first in-window append shows where the tail was. *)
  let held : (string, (int * Trace.record) list) Hashtbl.t = Hashtbl.create 4 in
  let races = ref [] in
  let violations = ref [] in
  let flag log idx v_max r =
    violations := { v_log = log; v_idx = idx; v_max; v_rec = r } :: !violations
  in
  let clock tid =
    match Hashtbl.find_opt clocks tid with
    | Some vc -> vc
    | None ->
      let vc =
        (* A thread's first event adopts the fork-time snapshot of its
           parent, if the fork was traced. *)
        match Hashtbl.find_opt forked tid with
        | Some parent_vc -> Vc.copy parent_vc
        | None -> Vc.create ()
      in
      Vc.tick vc tid;
      Hashtbl.replace clocks tid vc;
      vc
  in
  let channel name =
    match Hashtbl.find_opt channels name with
    | Some vc -> vc
    | None ->
      let vc = Vc.create () in
      Hashtbl.replace channels name vc;
      vc
  in
  (* Release: publish the thread's clock into the channel, then tick so
     the thread's later events are not ordered behind this release. *)
  let release tid name =
    let vc = clock tid in
    Vc.join (channel name) vc;
    Vc.tick vc tid
  in
  let acquire tid name = Vc.join (clock tid) (channel name) in
  Trace.iter tracer (fun r ->
      let tid = r.Trace.tid in
      match r.Trace.ev with
      | Trace.Thread_fork { child } ->
        let vc = clock tid in
        Hashtbl.replace forked child (Vc.copy vc);
        Vc.tick vc tid
      | Trace.Thread_exit -> Hashtbl.replace exited tid (Vc.copy (clock tid))
      | Trace.Thread_join { child } -> (
        match Hashtbl.find_opt exited child with
        | Some final -> Vc.join (clock tid) final
        | None -> ())
      | Trace.Lock_grant { lock; _ } -> acquire tid ("L:" ^ lock)
      | Trace.Lock_release { lock; _ } -> release tid ("L:" ^ lock)
      | Trace.Scr_append { log; idx } ->
        (match Hashtbl.find_opt appended log with
        | Some prev -> if idx > prev then Hashtbl.replace appended log idx
        | None ->
          (* The first in-window append: entries below [idx] may predate
             the window, so a held apply read ahead only if it claimed
             [idx] or beyond. *)
          Hashtbl.replace appended log idx;
          List.iter
            (fun (i, r) -> if i >= idx then flag log i (idx - 1) r)
            (List.rev (Option.value ~default:[] (Hashtbl.find_opt held log)));
          Hashtbl.remove held log);
        release tid ("S:" ^ log)
      | Trace.Scr_apply { log; idx } ->
        (* idx = -1 marks an output/timer section, which consumes no log
           entry and cannot read ahead of the tail. *)
        (if idx >= 0 then
           match Hashtbl.find_opt appended log with
           | Some max_app -> if idx > max_app then flag log idx max_app r
           | None ->
             let prev = Option.value ~default:[] (Hashtbl.find_opt held log) in
             Hashtbl.replace held log ((idx, r) :: prev));
        acquire tid ("S:" ^ log)
      | Trace.Scr_apply_end { log; _ } -> release tid ("S:" ^ log)
      | Trace.Gate_advance { gate; _ } -> release tid ("G:" ^ gate)
      | Trace.Gate_pass { gate; _ } -> acquire tid ("G:" ^ gate)
      | Trace.Membus_charge _ when bus_sync ->
        acquire tid bus_channel;
        release tid bus_channel
      | Trace.Access { state; write } ->
        let vc = clock tid in
        let c =
          match Hashtbl.find_opt cells state with
          | Some c -> c
          | None ->
            let c = { last_write = None; reads = []; reported = false } in
            Hashtbl.replace cells state c;
            c
        in
        let report prev ~write_write =
          if not c.reported then begin
            c.reported <- true;
            races :=
              { state; first = prev.a_rec; second = r; write_write } :: !races
          end
        in
        (match c.last_write with
        | Some w when w.a_tid <> tid && not (hb w vc) ->
          report w ~write_write:write
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
      | _ -> ());
  (List.rev !races, List.rev !violations)

let run ?bus_sync tracer = fst (run_full ?bus_sync tracer)
let races ?bus_sync tracer = List.map (fun r -> r.state) (run ?bus_sync tracer)

let check ?bus_sync tracer =
  let races, violations = run_full ?bus_sync tracer in
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
    races
  @ List.map
      (fun v ->
        Finding.v ~checker:"hb-race" ~subject:v.v_log ~witnesses:[ v.v_rec ]
          (Printf.sprintf
             "SCR replay read ahead of the appended tail: tid %d applied log \
              entry %d but only entries up to %d had been appended — the \
              append that publishes an entry must happen before the apply \
              that consumes it"
             v.v_rec.Trace.tid v.v_idx v.v_max))
      violations
  |> Finding.sort
