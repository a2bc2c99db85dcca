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

(* Per state id, from its first classified access. *)
type cell = {
  name : string;
  mutable cls : cls;
  mutable init_ls : int list;
      (* locks consistently held by the initialising thread; seeds the
         candidate set when the state becomes shared *)
  mutable n : int;
  mutable last : Trace.pos; (* previous access, for the witness pair *)
  mutable reported : bool;
}

(* Held sets: each distinct stack of held locks (oldest first) an access
   ran under, numbered from 0, the empty stack, by extending a stack's
   set with one lock at a time. *)
type sets = {
  child : int Replay.Pairs.t; (* [Replay.pair set lock] -> set *)
  mutable locks : int list array; (* set -> its locks, oldest first *)
  mutable count : int;
}

(* Accesses are classified only once the whole trace has been replayed,
   because whether one counts depends on later records (see [access]).
   Until then an access is three ints in [acc]: its row's position, its
   state's id and the held set it ran under; its tid, timestamp and
   kind are read back from the row.  [acc] is a list of blocks of [block_ints]
   ints, small enough to be allocated young, so it grows without copying
   and without slack. *)
type t = {
  ctx : Replay.ctx;
  cells : cell Replay.Slots.t; (* by state id *)
  cutoff : int Replay.Slots.t; (* tid -> ts of its last unmatched release *)
  sets : sets;
  mutable last_set : int array; (* tid -> the held set of its last access *)
  mutable acc : int array list; (* the full blocks, newest first *)
  mutable block : int array;
  mutable fill : int; (* ints used in [block] *)
  mutable findings : Finding.t list;
}

let block_ints = 255

let create ctx =
  {
    ctx;
    cells = Replay.Slots.create ();
    cutoff = Replay.Slots.create ();
    sets = { child = Replay.Pairs.create 16; locks = [| [] |]; count = 1 };
    last_set = [||];
    acc = [];
    block = Array.make block_ints 0;
    fill = 0;
    findings = [];
  }

let rec mem (l : int) = function [] -> false | x :: rest -> x = l || mem l rest

(* [a] restricted to the locks in [b]; [a] itself when that keeps them
   all. *)
let rec inter a b =
  match a with
  | [] -> a
  | x :: rest ->
    let rest' = inter rest b in
    if not (mem x b) then rest' else if rest' == rest then a else x :: rest'

let locks_str = function
  | [] -> "{}"
  | ls -> "{" ^ String.concat ", " ls ^ "}"

let extend sets set lock =
  let key = Replay.pair set lock in
  match Replay.Pairs.find_opt sets.child key with
  | Some s -> s
  | None ->
    let s = sets.count in
    sets.locks <- Replay.grow sets.locks s [];
    sets.locks.(s) <- sets.locks.(set) @ [ lock ];
    sets.count <- s + 1;
    Replay.Pairs.replace sets.child key s;
    s

(* Whether the thread's held locks from the [i]th on are [ls]. *)
let rec same_stack ctx tid n i = function
  | [] -> i = n
  | l :: rest -> i < n && Replay.held_id ctx ~tid i = l && same_stack ctx tid n (i + 1) rest

(* The held set of the thread's current stack: the set of its last
   access while the stack is unchanged, which is the usual case. *)
let held_set t tid =
  let ctx = t.ctx in
  let n = Replay.held_count ctx ~tid in
  t.last_set <- Replay.grow t.last_set tid 0;
  let last = t.last_set.(tid) in
  if same_stack ctx tid n 0 t.sets.locks.(last) then last
  else begin
    let s = ref 0 in
    for i = 0 to n - 1 do
      s := extend t.sets !s (Replay.held_id ctx ~tid i)
    done;
    t.last_set.(tid) <- !s;
    !s
  end

let record_access t pos sid set =
  if t.fill = Array.length t.block then begin
    t.acc <- t.block :: t.acc;
    t.block <- Array.make block_ints 0;
    t.fill <- 0
  end;
  t.block.(t.fill) <- pos;
  t.block.(t.fill + 1) <- sid;
  t.block.(t.fill + 2) <- set;
  t.fill <- t.fill + 3

(* The tracer is usually enabled mid-run (the measurement window), so a
   thread can be holding locks whose grants predate the trace.  Such a
   hold is revealed by its release: a [Lock_release] for a lock the
   replay never saw granted.  Accesses by that thread up to its last
   unmatched release ran with an unknowable held-set and must not be
   classified; so [access] only records accesses, and [result] classifies
   them once every release has been seen. *)
let access t row =
  record_access t (Trace.Row.pos row) (Replay.id t.ctx) (held_set t (Trace.Row.tid row))

let release t row =
  let tid = Trace.Row.tid row in
  if not (Replay.holds t.ctx ~tid (Replay.id t.ctx)) then
    Replay.Slots.set t.cutoff tid (Trace.Row.ts row)

let lock_names t ls = List.map (Replay.lock_name t.ctx) ls

let report t c row held ls =
  if not c.reported then begin
    c.reported <- true;
    let r = Trace.Row.record row in
    let witnesses = if c.last >= 0 then [ Replay.record t.ctx c.last; r ] else [ r ] in
    t.findings <-
      Finding.v ~checker:"lockset" ~subject:c.name ~witnesses
        (Printf.sprintf
           "candidate lockset went empty: %s by tid %d holding %s (candidates \
            were %s) — shared state is reachable without a consistent lock"
           (if Trace.Row.int0 row <> 0 then "write" else "read")
           (Trace.Row.tid row)
           (locks_str (lock_names t held))
           (locks_str (lock_names t ls)))
      :: t.findings
  end

let classify t row pos sid set =
  Trace.Row.seek (Replay.tracer t.ctx) row pos;
  let tid = Trace.Row.tid row in
  let incomplete_context =
    match Replay.Slots.get t.cutoff tid with Some ts -> Trace.Row.ts row <= ts | None -> false
  in
  if not incomplete_context then begin
    let c =
      match Replay.Slots.get t.cells sid with
      | Some c -> c
      | None ->
        let c =
          {
            name = Trace.Row.name row;
            cls = C_virgin;
            init_ls = [];
            n = 0;
            last = -1;
            reported = false;
          }
        in
        Replay.Slots.set t.cells sid c;
        c
    in
    c.n <- c.n + 1;
    let held = t.sets.locks.(set) and write = Trace.Row.int0 row <> 0 in
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
         if ls' = [] then report t c row held c.init_ls
       end
       else c.cls <- C_shared ls'
     | C_shared ls ->
       let ls' = inter ls held in
       if write then begin
         c.cls <- C_shared_modified ls';
         if ls' = [] then report t c row held ls
       end
       else if ls' != ls then c.cls <- C_shared ls'
     | C_shared_modified ls ->
       let ls' = inter ls held in
       if ls' != ls then c.cls <- C_shared_modified ls';
       if ls' = [] then report t c row held ls);
    c.last <- pos
  end

let result t =
  let row = Trace.Row.cursor () in
  let classify_block b len =
    let rec go i =
      if i < len then begin
        classify t row b.(i) b.(i + 1) b.(i + 2);
        go (i + 3)
      end
    in
    go 0
  in
  List.iter (fun b -> classify_block b (Array.length b)) (List.rev t.acc);
  classify_block t.block t.fill;
  t.acc <- [];
  t.fill <- 0;
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
