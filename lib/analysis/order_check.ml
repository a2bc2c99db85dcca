open Pnp_engine

type lock_stat = {
  lock : string;
  discipline : string option;
  grants : int;
  reordered : int;
  max_window : int;
}

(* Per lock id: the reorder accounting and the FIFO assertion's
   request queue. *)
type cell = {
  name : string;
  mutable grants : int;
  mutable reordered : int;
  mutable max_window : int;
  mutable max_seq : int; (* highest packet seq granted so far *)
  mutable any_seq : bool;
  mutable pending : (int * Trace.record) list; (* (tid, request), oldest first *)
  mutable flagged : bool;
}

(* One step serves both analyses: the per-lock reorder accounting and
   the FIFO grant-order assertion, which replays each lock's request
   queue and requires grants to pop the head. *)
type t = {
  tracer : Trace.t; (* for the registered lock disciplines *)
  cells : cell Replay.Slots.t;
  mutable findings : Finding.t list;
}

let create tracer = { tracer; cells = Replay.Slots.create (); findings = [] }

let cell t ctx lock =
  let id = Replay.id ctx in
  match Replay.Slots.get t.cells id with
  | Some c -> c
  | None ->
    let c =
      {
        name = lock;
        grants = 0;
        reordered = 0;
        max_window = 0;
        max_seq = 0;
        any_seq = false;
        pending = [];
        flagged = false;
      }
    in
    Replay.Slots.set t.cells id c;
    c

let account ctx (r : Trace.record) a =
  match Replay.current_seq ctx ~tid:r.Trace.tid with
  | None -> ()
  | Some seq ->
    a.grants <- a.grants + 1;
    if a.any_seq && seq < a.max_seq then begin
      a.reordered <- a.reordered + 1;
      a.max_window <- max a.max_window (a.max_seq - seq)
    end;
    if (not a.any_seq) || seq > a.max_seq then begin
      a.max_seq <- seq;
      a.any_seq <- true
    end

let pop_grant t (r : Trace.record) c =
  let q = c.pending in
  (* A grant whose request predates trace start is not in the queue;
     ignore it rather than mistake it for an overtake. *)
  if List.exists (fun (tid, _) -> tid = r.Trace.tid) q then
    match q with
    | (head_tid, head_req) :: _ when head_tid <> r.Trace.tid ->
      (* Overtake.  Only a violation for FIFO locks. *)
      if (not c.flagged) && Trace.lock_discipline t.tracer c.name = Some "fifo" then begin
        c.flagged <- true;
        t.findings <-
          Finding.v ~checker:"fifo-order" ~subject:c.name ~witnesses:[ head_req; r ]
            (Printf.sprintf
               "FIFO lock granted out of arrival order: tid %d overtook the pending \
                request of tid %d"
               r.Trace.tid head_tid)
          :: t.findings
      end;
      c.pending <- List.filter (fun (tid, _) -> tid <> r.Trace.tid) q
    | _ :: rest -> c.pending <- rest
    | [] -> ()

let step t ctx (r : Trace.record) =
  match r.Trace.ev with
  | Trace.Lock_request { lock; _ } ->
    let c = cell t ctx lock in
    c.pending <- c.pending @ [ (r.Trace.tid, r) ]
  | Trace.Lock_grant { lock; _ } ->
    let c = cell t ctx lock in
    account ctx r c;
    pop_grant t r c
  | _ -> ()

let stats_of t =
  Replay.Slots.fold t.cells
    (fun _ c rows ->
      if c.grants = 0 then rows
      else
        {
          lock = c.name;
          discipline = Trace.lock_discipline t.tracer c.name;
          grants = c.grants;
          reordered = c.reordered;
          max_window = c.max_window;
        }
        :: rows)
    []
  |> List.sort (fun (x : lock_stat) y ->
         match compare y.reordered x.reordered with 0 -> compare x.lock y.lock | c -> c)

let findings t = Finding.sort t.findings
let stats tracer = stats_of (Replay.run tracer (create tracer) step)

let reordered_total rows =
  List.fold_left
    (fun (r, g) (s : lock_stat) -> (r + s.reordered, g + s.grants))
    (0, 0) rows

let check tracer = findings (Replay.run tracer (create tracer) step)
