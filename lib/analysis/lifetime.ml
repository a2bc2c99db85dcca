open Pnp_engine

(* ASan-for-Mpool: replay the node lifecycle events the pool emits
   (Mnode_alloc / Mnode_ref / Mnode_unref / Mnode_recycle / Mnode_write)
   and flag every touch of a node that is dead or whose arena buffer has
   been recycled.

   The state machine per node id:

     Live refs --unref to 0--> Freed --recycle--> Recycled
       ^  |                      |                   |
       |  alloc (cache re-arm)   +---alloc-----------+
       +--+                          (fresh id / cache hit)

   A node parked in a simulated per-thread cache is Freed but not
   Recycled: its buffer is retained, so a later cache-hit alloc re-arms
   the same id.  Recycling happens only for arena-drawn nodes freed past
   the cache, and after it the bytes belong to someone else — a write
   there is the memory-corruption class the arena introduced.

   Traces start mid-run, so ids can appear first as a ref/unref/write of
   a node allocated before the window: unknown ids are adopted at face
   value, never reported.  Nodes still live when the trace ends are not
   reported either: a measurement window legitimately ends with traffic
   in flight. *)

type status = Live | Freed | Recycled

type node_state = {
  mutable status : status;
  mutable refs : int; (* while [Live] *)
  mutable last : Trace.pos; (* most recent lifecycle row *)
  mutable reported : bool;
}

let status_label s =
  match s.status with
  | Live -> Printf.sprintf "live (refs %d)" s.refs
  | Freed -> "freed"
  | Recycled -> "recycled"

(* Node states by id: the pool numbers nodes densely from 0. *)
type t = {
  ctx : Replay.ctx;
  nodes : node_state Replay.Slots.t;
  mutable findings : Finding.t list;
}

let create ctx = { ctx; nodes = Replay.Slots.create (); findings = [] }

let report t s id pos what =
  if not s.reported then begin
    s.reported <- true;
    t.findings <-
      Finding.v ~checker:"lifetime"
        ~subject:(Printf.sprintf "mnode %d" id)
        ~witnesses:[ Replay.record t.ctx s.last; Replay.record t.ctx pos ]
        (Printf.sprintf "%s: node was %s" what (status_label s))
      :: t.findings
  end

(* The node's next state after a lifecycle row at [pos]: a node seen
   for the first time is adopted in it. *)
let set t id s status refs pos =
  match s with
  | Some s ->
    s.status <- status;
    s.refs <- refs;
    s.last <- pos
  | None -> Replay.Slots.set t.nodes id { status; refs; last = pos; reported = false }

let step t row =
  let pos = Trace.Row.pos row and id = Trace.Row.int0 row in
  match Trace.Row.kind row with
  | Trace.Kind.Mnode_alloc ->
    let s = Replay.Slots.get t.nodes id in
    (match s with
     | Some ({ status = Live; _ } as s) -> report t s id pos "allocated while still live"
     | Some _ | None -> () (* cache re-arm / recycled buffer reissued *));
    set t id s Live 1 pos
  | Trace.Kind.Mnode_ref ->
    let s = Replay.Slots.get t.nodes id in
    (match s with
     | Some ({ status = Freed | Recycled; _ } as s) ->
       report t s id pos "reference taken on a dead node (use-after-free)"
     | Some _ | None -> ());
    set t id s Live (Trace.Row.int1 row) pos
  | Trace.Kind.Mnode_unref ->
    let s = Replay.Slots.get t.nodes id and refs = Trace.Row.int1 row in
    (match s with
     | Some ({ status = Freed | Recycled; _ } as s) ->
       report t s id pos "reference dropped on a dead node (double-free)"
     | Some _ | None -> ());
    set t id s (if refs = 0 then Freed else Live) refs pos
  | Trace.Kind.Mnode_recycle ->
    let s = Replay.Slots.get t.nodes id in
    (match s with
     | Some ({ status = Recycled; _ } as s) ->
       report t s id pos "buffer recycled twice (double-free)"
     | Some ({ status = Live; _ } as s) -> report t s id pos "buffer recycled under a live node"
     | Some { status = Freed; _ } | None -> ());
    set t id s Recycled 0 pos
  | Trace.Kind.Mnode_write -> (
    match Replay.Slots.get t.nodes id with
    | None -> () (* pre-window allocation; liveness unknowable *)
    | Some s -> (
      match s.status with
      | Live -> s.last <- pos
      | Freed -> report t s id pos "bytes written after free (use-after-free)"
      | Recycled -> report t s id pos "bytes written after arena recycle (write-after-recycle)"))
  | _ -> ()

let findings t = Finding.sort (List.rev t.findings)
