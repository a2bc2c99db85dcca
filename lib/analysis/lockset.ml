open Pnp_engine

type class_ =
  | Virgin
  | Exclusive of int
  | Shared of string list
  | Shared_modified of string list

type state = { id : string; class_ : class_; accesses : int }

(* [class_] over lock ids; names come back in [result]. *)
type cls =
  | C_virgin
  | C_exclusive of int
  | C_shared of int list
  | C_shared_modified of int list

type cell = {
  name : string;
  mutable cls : cls;
  mutable init_ls : int list;
      (* locks consistently held by the initialising thread; seeds the
         candidate set when the state becomes shared *)
  mutable n : int;
  mutable last : Trace.record option; (* previous access, for the witness pair *)
  mutable reported : bool;
}

(* One access as the state machine needs it.  Accesses are classified
   only once the whole trace has been replayed, because whether one
   counts depends on later records (see [step]).  The record itself is
   rebuilt for witnesses. *)
type access = {
  a_sid : int;
  a_state : string;
  a_write : bool;
  a_ts : int;
  a_tid : int;
  a_cpu : int;
  a_held : int list; (* lock ids, oldest first *)
}

type t = {
  cells : cell Replay.Slots.t; (* by state id *)
  cutoff : (int, int) Hashtbl.t; (* tid -> ts of its last unmatched release *)
  mutable accesses : access list; (* newest first, not yet classified *)
  mutable ctx : Replay.ctx option; (* the replay's, for lock names *)
  mutable findings : Finding.t list;
}

let create () =
  {
    cells = Replay.Slots.create ();
    cutoff = Hashtbl.create 16;
    accesses = [];
    ctx = None;
    findings = [];
  }

let rec mem (l : int) = function [] -> false | x :: rest -> x = l || mem l rest
let inter a b = List.filter (fun l -> mem l b) a

let locks_str = function
  | [] -> "{}"
  | ls -> "{" ^ String.concat ", " ls ^ "}"

(* The tracer is usually enabled mid-run (the measurement window), so a
   thread can be holding locks whose grants predate the trace.  Such a
   hold is revealed by its release: a [Lock_release] for a lock the
   replay never saw granted.  Accesses by that thread up to its last
   unmatched release ran with an unknowable held-set and must not be
   classified; so [step] only records accesses, and [result] classifies
   them once every release has been seen. *)
let step t ctx (r : Trace.record) =
  if Option.is_none t.ctx then t.ctx <- Some ctx;
  let tid = r.Trace.tid in
  match r.Trace.ev with
  | Trace.Access { state; write } ->
    t.accesses <-
      {
        a_sid = Replay.id ctx;
        a_state = state;
        a_write = write;
        a_ts = r.Trace.ts;
        a_tid = tid;
        a_cpu = r.Trace.cpu;
        a_held = Replay.held_ids ctx ~tid;
      }
      :: t.accesses
  | Trace.Lock_release _ ->
    if not (mem (Replay.id ctx) (Replay.held_ids ctx ~tid)) then
      Hashtbl.replace t.cutoff tid r.Trace.ts
  | _ -> ()

let incomplete_context t a =
  match Hashtbl.find_opt t.cutoff a.a_tid with Some ts -> a.a_ts <= ts | None -> false

let lock_names t ls =
  match t.ctx with Some ctx -> List.map (Replay.lock_name ctx) ls | None -> []

let classify t a =
  let c =
    match Replay.Slots.get t.cells a.a_sid with
    | Some c -> c
    | None ->
      let c =
        { name = a.a_state; cls = C_virgin; init_ls = []; n = 0; last = None; reported = false }
      in
      Replay.Slots.set t.cells a.a_sid c;
      c
  in
  c.n <- c.n + 1;
  let tid = a.a_tid and held = a.a_held and write = a.a_write in
  let r =
    { Trace.ts = a.a_ts; tid; cpu = a.a_cpu; ev = Trace.Access { state = a.a_state; write } }
  in
  let report ls =
    if not c.reported then begin
      c.reported <- true;
      let witnesses = match c.last with Some prev -> [ prev; r ] | None -> [ r ] in
      t.findings <-
        Finding.v ~checker:"lockset" ~subject:a.a_state ~witnesses
          (Printf.sprintf
             "candidate lockset went empty: %s by tid %d holding %s (candidates \
              were %s) — shared state is reachable without a consistent lock"
             (if write then "write" else "read")
             tid
             (locks_str (lock_names t held))
             (locks_str (lock_names t ls)))
        :: t.findings
    end
  in
  (match c.cls with
   | C_virgin ->
     c.cls <- C_exclusive tid;
     c.init_ls <- held
   | C_exclusive owner when owner = tid -> c.init_ls <- inter c.init_ls held
   | C_exclusive _ ->
     (* Second thread: the candidate set is the locks the initialising
        thread consistently held, intersected with this access's held
        set. *)
     let ls' = inter c.init_ls held in
     if write then begin
       c.cls <- C_shared_modified ls';
       if ls' = [] then report c.init_ls
     end
     else c.cls <- C_shared ls'
   | C_shared ls ->
     let ls' = inter ls held in
     if write then begin
       c.cls <- C_shared_modified ls';
       if ls' = [] then report ls
     end
     else c.cls <- C_shared ls'
   | C_shared_modified ls ->
     let ls' = inter ls held in
     c.cls <- C_shared_modified ls';
     if ls' = [] then report ls);
  c.last <- Some r

let result t =
  List.iter (fun a -> if not (incomplete_context t a) then classify t a) (List.rev t.accesses);
  t.accesses <- [];
  let class_ = function
    | C_virgin -> Virgin
    | C_exclusive tid -> Exclusive tid
    | C_shared ls -> Shared (lock_names t ls)
    | C_shared_modified ls -> Shared_modified (lock_names t ls)
  in
  let states =
    Replay.Slots.fold t.cells
      (fun _ c acc -> { id = c.name; class_ = class_ c.cls; accesses = c.n } :: acc)
      []
    |> List.sort (fun a b -> compare a.id b.id)
  in
  (states, Finding.sort t.findings)

let run tracer = result (Replay.run tracer (create ()) step)

let check tracer = snd (run tracer)
