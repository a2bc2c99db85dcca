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
   value, never reported.  Leak reporting (nodes still live when the
   trace ends) is opt-in for the same reason — a measurement window
   legitimately ends with traffic in flight; only drain-to-completion
   fixtures can demand emptiness. *)

type status = Live of int | Freed | Recycled

type node_state = {
  mutable status : status;
  mutable last : Trace.record option; (* most recent lifecycle event *)
  mutable reported : bool;
}

let status_label = function
  | Live n -> Printf.sprintf "live (refs %d)" n
  | Freed -> "freed"
  | Recycled -> "recycled"

(* Node states by id: the pool numbers nodes densely from 0. *)
type t = {
  nodes : node_state Replay.Slots.t;
  mutable findings : Finding.t list;
}

let create () = { nodes = Replay.Slots.create (); findings = [] }
let get t id = Replay.Slots.get t.nodes id

let adopt t id status r =
  Replay.Slots.set t.nodes id { status; last = Some r; reported = false }

let report t s id r what =
  if not s.reported then begin
    s.reported <- true;
    let witnesses = match s.last with Some prev -> [ prev; r ] | None -> [ r ] in
    t.findings <-
      Finding.v ~checker:"lifetime"
        ~subject:(Printf.sprintf "mnode %d" id)
        ~witnesses
        (Printf.sprintf "%s: node was %s" what (status_label s.status))
      :: t.findings
  end

let step t _ctx (r : Trace.record) =
  match r.Trace.ev with
  | Trace.Mnode_alloc { node = id } -> (
    match get t id with
    | None -> adopt t id (Live 1) r
    | Some s ->
      (match s.status with
      | Freed | Recycled -> () (* cache re-arm / recycled buffer reissued *)
      | Live _ -> report t s id r "allocated while still live");
      s.status <- Live 1;
      s.last <- Some r)
  | Trace.Mnode_ref { node = id; refs } -> (
    match get t id with
    | None -> adopt t id (Live refs) r
    | Some s ->
      (match s.status with
      | Freed | Recycled ->
        report t s id r "reference taken on a dead node (use-after-free)"
      | Live _ -> ());
      s.status <- Live refs;
      s.last <- Some r)
  | Trace.Mnode_unref { node = id; refs } -> (
    let next = if refs = 0 then Freed else Live refs in
    match get t id with
    | None -> adopt t id next r
    | Some s ->
      (match s.status with
      | Freed | Recycled ->
        report t s id r "reference dropped on a dead node (double-free)"
      | Live _ -> ());
      s.status <- next;
      s.last <- Some r)
  | Trace.Mnode_recycle { node = id } -> (
    match get t id with
    | None -> adopt t id Recycled r
    | Some s ->
      (match s.status with
      | Freed -> ()
      | Recycled -> report t s id r "buffer recycled twice (double-free)"
      | Live _ -> report t s id r "buffer recycled under a live node");
      s.status <- Recycled;
      s.last <- Some r)
  | Trace.Mnode_write { node = id } -> (
    match get t id with
    | None -> () (* pre-window allocation; liveness unknowable *)
    | Some s -> (
      match s.status with
      | Live _ -> s.last <- Some r
      | Freed -> report t s id r "bytes written after free (use-after-free)"
      | Recycled ->
        report t s id r "bytes written after arena recycle (write-after-recycle)"))
  | _ -> ()

let findings ?(leaks = false) t =
  let leak =
    if not leaks then []
    else
      let leaked =
        List.rev
          (Replay.Slots.fold t.nodes
             (fun id s acc -> match s.status with Live _ -> (id, s) :: acc | _ -> acc)
             [])
      in
      match leaked with
      | [] -> []
      | (id0, s0) :: _ ->
        let ids = List.map fst leaked in
        let shown = List.filteri (fun i _ -> i < 8) ids in
        [
          Finding.v ~checker:"lifetime" ~subject:"leak"
            ~witnesses:(match s0.last with Some r -> [ r ] | None -> [])
            (Printf.sprintf
               "%d node(s) still live at end of trace: %s%s (first leaked id %d)"
               (List.length ids)
               (String.concat ", " (List.map string_of_int shown))
               (if List.length ids > List.length shown then ", ..." else "")
               id0);
        ]
  in
  Finding.sort (List.rev (leak @ t.findings))

let check ?leaks tracer = findings ?leaks (Replay.run tracer (create ()) step)
