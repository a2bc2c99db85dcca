open Pnp_engine

type lock_stat = {
  lock : string;
  discipline : string option;
  grants : int;
  reordered : int;
  max_window : int;
}

type acc = {
  mutable grants : int;
  mutable reordered : int;
  mutable max_window : int;
  mutable max_seq : int; (* highest packet seq granted so far *)
  mutable any_seq : bool;
}

(* One step serves both analyses: the per-lock reorder accounting and
   the FIFO grant-order assertion, which replays each lock's request
   queue and requires grants to pop the head. *)
type t = {
  tracer : Trace.t; (* for the registered lock disciplines *)
  tbl : (string, acc) Hashtbl.t;
  pending : (string, (int * Trace.record) list) Hashtbl.t;
  flagged : (string, unit) Hashtbl.t;
  mutable findings : Finding.t list;
}

let create tracer =
  {
    tracer;
    tbl = Hashtbl.create 32;
    pending = Hashtbl.create 32;
    flagged = Hashtbl.create 8;
    findings = [];
  }

let account t ctx (r : Trace.record) lock =
  match Replay.current_seq ctx ~tid:r.Trace.tid with
  | None -> ()
  | Some seq ->
    let a =
      match Hashtbl.find_opt t.tbl lock with
      | Some a -> a
      | None ->
        let a = { grants = 0; reordered = 0; max_window = 0; max_seq = 0; any_seq = false } in
        Hashtbl.replace t.tbl lock a;
        a
    in
    a.grants <- a.grants + 1;
    if a.any_seq && seq < a.max_seq then begin
      a.reordered <- a.reordered + 1;
      a.max_window <- max a.max_window (a.max_seq - seq)
    end;
    if (not a.any_seq) || seq > a.max_seq then begin
      a.max_seq <- seq;
      a.any_seq <- true
    end

let pop_grant t (r : Trace.record) lock =
  let q = Option.value ~default:[] (Hashtbl.find_opt t.pending lock) in
  (* A grant whose request predates trace start is not in the queue;
     ignore it rather than mistake it for an overtake. *)
  if List.exists (fun (tid, _) -> tid = r.Trace.tid) q then
    match q with
    | (head_tid, head_req) :: _ when head_tid <> r.Trace.tid ->
      (* Overtake.  Only a violation for FIFO locks. *)
      if Trace.lock_discipline t.tracer lock = Some "fifo" && not (Hashtbl.mem t.flagged lock)
      then begin
        Hashtbl.add t.flagged lock ();
        t.findings <-
          Finding.v ~checker:"fifo-order" ~subject:lock ~witnesses:[ head_req; r ]
            (Printf.sprintf
               "FIFO lock granted out of arrival order: tid %d overtook the pending \
                request of tid %d"
               r.Trace.tid head_tid)
          :: t.findings
      end;
      Hashtbl.replace t.pending lock (List.filter (fun (tid, _) -> tid <> r.Trace.tid) q)
    | _ :: rest -> Hashtbl.replace t.pending lock rest
    | [] -> ()

let step t ctx (r : Trace.record) =
  match r.Trace.ev with
  | Trace.Lock_request { lock; _ } ->
    let q = Option.value ~default:[] (Hashtbl.find_opt t.pending lock) in
    Hashtbl.replace t.pending lock (q @ [ (r.Trace.tid, r) ])
  | Trace.Lock_grant { lock; _ } ->
    account t ctx r lock;
    pop_grant t r lock
  | _ -> ()

let stats_of t =
  Hashtbl.fold
    (fun lock a rows ->
      {
        lock;
        discipline = Trace.lock_discipline t.tracer lock;
        grants = a.grants;
        reordered = a.reordered;
        max_window = a.max_window;
      }
      :: rows)
    t.tbl []
  |> List.sort (fun (x : lock_stat) y ->
         match compare y.reordered x.reordered with 0 -> compare x.lock y.lock | c -> c)

let findings t = Finding.sort t.findings
let stats tracer = stats_of (Replay.run tracer (create tracer) step)

let reordered_total rows =
  List.fold_left
    (fun (r, g) (s : lock_stat) -> (r + s.reordered, g + s.grants))
    (0, 0) rows

let check tracer = findings (Replay.run tracer (create tracer) step)
