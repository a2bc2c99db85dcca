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

module Pairs = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k lxor (k lsr 30)
end)

let pair a b = (a lsl 30) lor b

module Names = Hashtbl.Make (String)

(* One kind's names, numbered densely from 0 in first-seen order.
   Emitters pass a lock's or state's own name string every time, so a
   small cache answers most lookups by identity: a slot, picked from the
   string's length and three of its bytes, holds the last string seen
   there.  Only a miss hashes the whole string.  The slots start out
   holding a string of the table's own, which no trace row can hold. *)
type names = {
  ids : int Names.t;
  mutable strs : string array;
  seen : string array;
  seen_id : int array;
}

let cache_slots = 128

let names () =
  {
    ids = Names.create 16;
    strs = [||];
    seen = Array.make cache_slots (String.make 1 ' ');
    seen_id = Array.make cache_slots 0;
  }

(* Names that differ share a prefix more often than an end, so the
   slot reads the last byte, the one four before it and the middle
   one. *)
let[@inline] slot s =
  let n = String.length s in
  if n < 4 then n
  else
    let last = Char.code (String.unsafe_get s (n - 1))
    and fourth = Char.code (String.unsafe_get s (n - 4))
    and middle = Char.code (String.unsafe_get s (n / 2)) in
    (n + (7 * last) + (3 * fourth) + (5 * middle)) land (cache_slots - 1)

let intern tbl s =
  let k = slot s in
  if Array.unsafe_get tbl.seen k == s then Array.unsafe_get tbl.seen_id k
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
    tbl.seen.(k) <- s;
    tbl.seen_id.(k) <- id;
    id
  end

(* Per thread: the locks it holds, oldest first, as their ids and the
   positions of the rows that granted them, and the seq of the packet
   it is currently carrying up the stack. *)
type thread_state = {
  mutable n : int;
  mutable ids : int array;
  mutable grants : int array;
  mutable carrying : bool;
  mutable seq : int;
}

(* Thread states by tid.  Every record the replay tracks comes from a
   simulated thread, whose tid is a small non-negative int. *)
type ctx = {
  tracer : Trace.t;
  mutable threads : thread_state array;
  locks : names;
  gates : names;
  logs : names;
  states : names;
  scr_locks : int Slots.t; (* log id -> lock id of its SCR apply lock *)
  mutable id : int; (* the current row's name id *)
}

let new_state () = { n = 0; ids = [||]; grants = [||]; carrying = false; seq = 0 }

(* The state of a thread with no slot yet; never mutated. *)
let idle = new_state ()

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
    let s = new_state () in
    ctx.threads.(tid) <- s;
    s
  end

let tracer ctx = ctx.tracer
let id ctx = ctx.id
let record ctx pos = Trace.record_at ctx.tracer pos
let lock_name ctx id = ctx.locks.strs.(id)
let held_count ctx ~tid = (find ctx tid).n
let held_id ctx ~tid i = (find ctx tid).ids.(i)
let held_grant ctx ~tid i = (find ctx tid).grants.(i)

(* The index of the thread's most recent hold of the lock below [i],
   or -1. *)
let rec last_hold s id i = if i < 0 || s.ids.(i) = id then i else last_hold s id (i - 1)

let holds ctx ~tid id =
  let s = find ctx tid in
  last_hold s id (s.n - 1) >= 0

let carrying ctx ~tid = (find ctx tid).carrying
let seq ctx ~tid = (find ctx tid).seq

let grow a n = Array.append a (Array.make (max 4 n) 0)

let acquire ctx tid id pos =
  let s = state ctx tid in
  if s.n = Array.length s.ids then begin
    s.ids <- grow s.ids s.n;
    s.grants <- grow s.grants s.n
  end;
  s.ids.(s.n) <- id;
  s.grants.(s.n) <- pos;
  s.n <- s.n + 1

(* Remove the most recent hold of the lock: a Counting lock's
   underlying lock appears once, but be robust to repeated ids. *)
let drop ctx tid id =
  let s = state ctx tid in
  let i = last_hold s id (s.n - 1) in
  if i >= 0 then begin
    for k = i to s.n - 2 do
      s.ids.(k) <- s.ids.(k + 1);
      s.grants.(k) <- s.grants.(k + 1)
    done;
    s.n <- s.n - 1
  end

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

(* One row: intern its name, hand it to [f], then apply it to the
   context.  One match per row says both what a kind's name is and
   what the kind does to the context. *)
let[@inline] name ctx tbl row = ctx.id <- intern tbl (Trace.Row.name row)

let[@inline] visit ctx f row =
  match Trace.Row.kind row with
  | Trace.Kind.Lock_grant ->
    name ctx ctx.locks row;
    f row;
    acquire ctx (Trace.Row.tid row) ctx.id (Trace.Row.pos row)
  | Trace.Kind.Lock_release ->
    name ctx ctx.locks row;
    f row;
    drop ctx (Trace.Row.tid row) ctx.id
  | Trace.Kind.Lock_request ->
    name ctx ctx.locks row;
    f row
  | Trace.Kind.Access ->
    name ctx ctx.states row;
    f row
  | Trace.Kind.Gate_pass | Trace.Kind.Gate_advance ->
    name ctx ctx.gates row;
    f row
  | Trace.Kind.Scr_append ->
    name ctx ctx.logs row;
    f row
  | Trace.Kind.Scr_apply ->
    name ctx ctx.logs row;
    f row;
    acquire ctx (Trace.Row.tid row) (scr_lock ctx ctx.id) (Trace.Row.pos row)
  | Trace.Kind.Scr_apply_end ->
    name ctx ctx.logs row;
    f row;
    drop ctx (Trace.Row.tid row) (scr_lock ctx ctx.id)
  | Trace.Kind.Span_begin ->
    ctx.id <- -1;
    f row;
    if Trace.Row.int1 row = 0 (* Enqueue *) then begin
      let s = state ctx (Trace.Row.tid row) in
      s.carrying <- true;
      s.seq <- Trace.Row.int0 row
    end
  | _ ->
    ctx.id <- -1;
    f row

let create tracer =
  {
    tracer;
    threads = [||];
    locks = names ();
    gates = names ();
    logs = names ();
    states = names ();
    scr_locks = Slots.create ();
    id = -1;
  }

let[@inline] replay ctx f = Trace.iter_rows ctx.tracer kept (fun row -> visit ctx f row)
