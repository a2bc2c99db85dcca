open Pnp_engine

(* The records some checker reads.  Wildcard-free on purpose: a new
   [Trace.ev] constructor does not compile here until someone decides
   whether the checkers read it. *)
let read_by_checkers : Trace.ev -> bool = function
  | Trace.Thread_fork _ -> true (* Hb *)
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
  | Trace.Thread_spawn _ | Trace.Thread_exit | Trace.Lock_handoff _ | Trace.Gate_take _
  | Trace.Mpool_alloc _ | Trace.Span_end _ | Trace.Fault_drop _ | Trace.Fault_dup _
  | Trace.Fault_corrupt _ | Trace.Fault_reorder _ | Trace.Scr_replay _ | Trace.Rcu_read _
  | Trace.Rcu_publish _ ->
    false

let kept = Trace.kinds read_by_checkers

(* [a], or a copy of it at least twice as long that has an index [i],
   its new slots filled with [x]. *)
let grow a i x =
  let len = Array.length a in
  if i < len then a
  else begin
    let b = Array.make (max 8 (max (i + 1) (2 * len))) x in
    Array.blit a 0 b 0 len;
    b
  end

module Slots = struct
  type 'a t = { mutable a : 'a option array }

  let create () = { a = [||] }
  let get t id = if id < Array.length t.a then t.a.(id) else None

  let set t id v =
    t.a <- grow t.a id None;
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
  mutable scr_base : int;
      (* the tracer's name count when the replay began: the SCR apply
         lock of the log with id [l] has lock id [scr_base + l] *)
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
    ctx.threads <- grow ctx.threads tid idle;
    let s = new_state () in
    ctx.threads.(tid) <- s;
    s
  end

let tracer ctx = ctx.tracer
let id ctx = ctx.id
let record ctx pos = Trace.record_at ctx.tracer pos

let lock_name ctx id =
  if id < ctx.scr_base then Trace.name ctx.tracer id
  else "scr:" ^ Trace.name ctx.tracer (id - ctx.scr_base)

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

let acquire ctx tid id pos =
  let s = state ctx tid in
  s.ids <- grow s.ids s.n 0;
  s.grants <- grow s.grants s.n 0;
  s.ids.(s.n) <- id;
  s.grants.(s.n) <- pos;
  s.n <- s.n + 1

(* Remove the most recent hold of the lock. *)
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
let scr_lock ctx log = ctx.scr_base + log

(* One row: read its name's id, hand it to [f], then apply it to the
   context.  One match per row says both whether a kind has a name and
   what the kind does to the context. *)
let[@inline] visit ctx f row =
  match Trace.Row.kind row with
  | Trace.Kind.Lock_grant ->
    ctx.id <- Trace.Row.id row;
    f row;
    acquire ctx (Trace.Row.tid row) ctx.id (Trace.Row.pos row)
  | Trace.Kind.Lock_release ->
    ctx.id <- Trace.Row.id row;
    f row;
    drop ctx (Trace.Row.tid row) ctx.id
  | Trace.Kind.Lock_request | Trace.Kind.Access | Trace.Kind.Gate_pass
  | Trace.Kind.Gate_advance | Trace.Kind.Scr_append ->
    ctx.id <- Trace.Row.id row;
    f row
  | Trace.Kind.Scr_apply ->
    ctx.id <- Trace.Row.id row;
    f row;
    acquire ctx (Trace.Row.tid row) (scr_lock ctx ctx.id) (Trace.Row.pos row)
  | Trace.Kind.Scr_apply_end ->
    ctx.id <- Trace.Row.id row;
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

let create tracer = { tracer; threads = [||]; scr_base = 0; id = -1 }

let[@inline] replay ctx f =
  ctx.scr_base <- Trace.name_count ctx.tracer;
  Trace.iter_rows ctx.tracer kept (fun row -> visit ctx f row)
