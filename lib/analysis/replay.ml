open Pnp_engine

(* The records some checker reads.  Wildcard-free on purpose: a new
   [Trace.ev] constructor does not compile here until someone decides
   whether the checkers read it. *)
let read_by_checkers : Trace.ev -> bool = function
  | Trace.Thread_fork _ | Trace.Thread_exit | Trace.Thread_join _ -> true (* Hb *)
  | Trace.Lock_request _ -> true (* Order_check *)
  | Trace.Lock_grant _ | Trace.Lock_release _ -> true
  | Trace.Gate_pass _ | Trace.Gate_advance _ -> true (* Hb *)
  | Trace.Membus_charge _ -> true (* Hb *)
  | Trace.Mnode_alloc _ | Trace.Mnode_ref _ | Trace.Mnode_unref _ | Trace.Mnode_recycle _
  | Trace.Mnode_write _ ->
    true (* Lifetime *)
  | Trace.Span_begin _ -> true (* the carried seq *)
  | Trace.Access _ -> true (* Lockset, Hb *)
  | Trace.Scr_append _ | Trace.Scr_apply _ | Trace.Scr_apply_end _ -> true
  | Trace.Thread_spawn _ | Trace.Lock_handoff _ | Trace.Gate_take _ | Trace.Mpool_alloc _
  | Trace.Span_end _ | Trace.Fault_drop _ | Trace.Fault_dup _ | Trace.Fault_corrupt _
  | Trace.Fault_reorder _ | Trace.Scr_replay _ | Trace.Rcu_read _ | Trace.Rcu_publish _ ->
    false

let kept = Trace.kinds read_by_checkers

module Slots = struct
  type 'a t = { mutable a : 'a option array }

  let create () = { a = [||] }
  let get t id = if id < Array.length t.a then t.a.(id) else None

  let set t id v =
    let len = Array.length t.a in
    if id >= len then begin
      let a = Array.make (max (id + 1) (2 * len)) None in
      Array.blit t.a 0 a 0 len;
      t.a <- a
    end;
    t.a.(id) <- Some v

  let fold t f acc =
    let acc = ref acc in
    Array.iteri (fun id v -> match v with Some v -> acc := f id v !acc | None -> ()) t.a;
    !acc
end

module Names = Hashtbl.Make (String)

(* One kind's names, numbered densely from 0 in first-seen order.
   Emitters pass a lock's or gate's own name string every time, so
   about half the lookups on a checked trace are the very string
   looked up last: [last] answers those without hashing. *)
type names = {
  ids : int Names.t;
  mutable strs : string array;
  mutable last : string;
  mutable last_id : int;
}

let names () = { ids = Names.create 16; strs = [||]; last = ""; last_id = -1 }

let intern tbl s =
  if s == tbl.last && tbl.last_id >= 0 then tbl.last_id
  else begin
    let id =
      match Names.find_opt tbl.ids s with
      | Some id -> id
      | None ->
        let id = Names.length tbl.ids in
        Names.add tbl.ids s id;
        if id = Array.length tbl.strs then begin
          let a = Array.make (max 8 (2 * id)) "" in
          Array.blit tbl.strs 0 a 0 id;
          tbl.strs <- a
        end;
        tbl.strs.(id) <- s;
        id
    in
    tbl.last <- s;
    tbl.last_id <- id;
    id
  end

(* Per thread: held locks as (lock id, grant record), oldest first,
   their ids alone (what most queries want, kept so [held_ids]
   allocates nothing), and the seq of the packet it is currently
   carrying up the stack. *)
type thread_state = {
  mutable locks : (int * Trace.record) list;
  mutable ids : int list;
  mutable seq : int option;
}

(* Thread states by tid.  Every record the replay tracks comes from a
   simulated thread, whose tid is a small non-negative int. *)
type ctx = {
  mutable threads : thread_state array;
  locks : names;
  gates : names;
  logs : names;
  states : names;
  scr_locks : int Slots.t; (* log id -> lock id of its SCR apply lock *)
  mutable id : int; (* the current record's name id *)
}

(* The state of a thread with no slot yet; never mutated. *)
let idle = { locks = []; ids = []; seq = None }

let find ctx tid = if tid < Array.length ctx.threads then ctx.threads.(tid) else idle

let state ctx tid =
  let s = find ctx tid in
  if s != idle then s
  else begin
    let len = Array.length ctx.threads in
    if tid >= len then begin
      let a = Array.make (max (tid + 1) (2 * len)) idle in
      Array.blit ctx.threads 0 a 0 len;
      ctx.threads <- a
    end;
    let s = { locks = []; ids = []; seq = None } in
    ctx.threads.(tid) <- s;
    s
  end

let id ctx = ctx.id
let lock_name ctx id = ctx.locks.strs.(id)
let held_ids ctx ~tid = (find ctx tid).ids
let held_grants ctx ~tid = (find ctx tid).locks
let held ctx ~tid = List.map (lock_name ctx) (held_ids ctx ~tid)
let current_seq ctx ~tid = (find ctx tid).seq

(* Remove the most recent occurrence: a Counting lock's underlying lock
   appears once, but be robust to repeated ids. *)
let remove_last id locks =
  let rec go = function
    | [] -> []
    | (n, _) :: rest when n = id && not (List.exists (fun (m, _) -> m = id) rest) -> rest
    | entry :: rest -> entry :: go rest
  in
  go locks

let acquire ctx tid id r =
  let s = state ctx tid in
  s.locks <- s.locks @ [ (id, r) ];
  s.ids <- s.ids @ [ id ]

let drop ctx tid id =
  let s = state ctx tid in
  s.locks <- remove_last id s.locks;
  s.ids <- List.map fst s.locks

(* SCR apply sections are host-atomic and ordered by the log, so for
   lockset purposes they behave as critical sections of one synthetic
   per-log lock: accesses inside them are consistently protected.  The
   channel ordering itself is Hb's job; this only keeps Eraser-style
   classification from calling the serialized sections unprotected. *)
let scr_lock ctx log =
  match Slots.get ctx.scr_locks log with
  | Some id -> id
  | None ->
    let id = intern ctx.locks ("scr:" ^ ctx.logs.strs.(log)) in
    Slots.set ctx.scr_locks log id;
    id

let name_id ctx (ev : Trace.ev) =
  match ev with
  | Trace.Lock_request { lock; _ } | Trace.Lock_grant { lock; _ } | Trace.Lock_release { lock; _ }
    ->
    intern ctx.locks lock
  | Trace.Gate_pass { gate; _ } | Trace.Gate_advance { gate; _ } -> intern ctx.gates gate
  | Trace.Scr_append { log; _ } | Trace.Scr_apply { log; _ } | Trace.Scr_apply_end { log; _ } ->
    intern ctx.logs log
  | Trace.Access { state; _ } -> intern ctx.states state
  | _ -> -1

let apply ctx (r : Trace.record) =
  match r.Trace.ev with
  | Trace.Lock_grant _ -> acquire ctx r.Trace.tid ctx.id r
  | Trace.Lock_release _ -> drop ctx r.Trace.tid ctx.id
  | Trace.Scr_apply _ -> acquire ctx r.Trace.tid (scr_lock ctx ctx.id) r
  | Trace.Scr_apply_end _ -> drop ctx r.Trace.tid (scr_lock ctx ctx.id)
  | Trace.Span_begin { seq; phase = Trace.Enqueue } -> (state ctx r.Trace.tid).seq <- Some seq
  | _ -> ()

let replay tracer f =
  let ctx =
    {
      threads = [||];
      locks = names ();
      gates = names ();
      logs = names ();
      states = names ();
      scr_locks = Slots.create ();
      id = -1;
    }
  in
  Trace.iter_kinds tracer kept (fun r ->
      ctx.id <- name_id ctx r.Trace.ev;
      f ctx r;
      apply ctx r)

let run tracer t step =
  replay tracer (step t);
  t
