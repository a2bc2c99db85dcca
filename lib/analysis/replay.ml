open Pnp_engine

(* Per thread: held locks as (name, grant record), oldest first, their
   names alone (what most queries want, kept so [held] allocates
   nothing), and the seq of the packet it is currently carrying up the
   stack. *)
type thread_state = {
  mutable locks : (string * Trace.record) list;
  mutable names : string list;
  mutable seq : int option;
}

(* Thread states by tid.  Every record the replay tracks comes from a
   simulated thread, whose tid is a small non-negative int. *)
type ctx = { mutable threads : thread_state array }

(* The state of a thread with no slot yet; never mutated. *)
let idle = { locks = []; names = []; seq = None }

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
    let s = { locks = []; names = []; seq = None } in
    ctx.threads.(tid) <- s;
    s
  end

let held ctx ~tid = (find ctx tid).names
let grant_record ctx ~tid ~lock = List.assoc_opt lock (find ctx tid).locks
let current_seq ctx ~tid = (find ctx tid).seq

(* Remove the most recent occurrence: a Counting lock's underlying lock
   appears once, but be robust to repeated names. *)
let remove_last name locks =
  let rec go = function
    | [] -> []
    | (n, _) :: rest when n = name && not (List.mem_assoc name rest) -> rest
    | entry :: rest -> entry :: go rest
  in
  go locks

let acquire ctx tid name r =
  let s = state ctx tid in
  s.locks <- s.locks @ [ (name, r) ];
  s.names <- s.names @ [ name ]

let drop ctx tid name =
  let s = state ctx tid in
  s.locks <- remove_last name s.locks;
  s.names <- List.map fst s.locks

let apply ctx (r : Trace.record) =
  match r.Trace.ev with
  | Trace.Lock_grant { lock; _ } -> acquire ctx r.Trace.tid lock r
  | Trace.Lock_release { lock; _ } -> drop ctx r.Trace.tid lock
  (* SCR apply sections are host-atomic and ordered by the log, so for
     lockset purposes they behave as critical sections of one synthetic
     per-log lock: accesses inside them are consistently protected.  The
     channel ordering itself is Hb's job; this only keeps Eraser-style
     classification from calling the serialized sections unprotected. *)
  | Trace.Scr_apply { log; _ } -> acquire ctx r.Trace.tid ("scr:" ^ log) r
  | Trace.Scr_apply_end { log; _ } -> drop ctx r.Trace.tid ("scr:" ^ log)
  | Trace.Span_begin { seq; phase = Trace.Enqueue } ->
    (state ctx r.Trace.tid).seq <- Some seq
  | _ -> ()

let replay tracer f =
  let ctx = { threads = [||] } in
  Trace.iter tracer (fun r ->
      f ctx r;
      apply ctx r)

let run tracer t step =
  replay tracer (step t);
  t
