type pkt_phase = Enqueue | Ip | Lock_wait | Tcp_input | Upcall

type ev =
  | Thread_spawn of { name : string }
  | Thread_fork of { child : int }
  | Thread_exit
  | Lock_request of { lock : string; waiters : int }
  | Lock_grant of { lock : string; waiters : int; wait_ns : int }
  | Lock_handoff of { lock : string; to_tid : int; handoff_ns : int }
  | Lock_release of { lock : string; hold_ns : int }
  | Gate_take of { gate : string; ticket : int }
  | Gate_pass of { gate : string; ticket : int; wait_ns : int }
  | Gate_advance of { gate : string; serving : int }
  | Membus_charge of { bytes : int; dur_ns : int }
  | Mpool_alloc of { hit : bool }
  | Mnode_alloc of { node : int }
  | Mnode_ref of { node : int; refs : int }
  | Mnode_unref of { node : int; refs : int }
  | Mnode_recycle of { node : int }
  | Mnode_write of { node : int }
  | Span_begin of { seq : int; phase : pkt_phase }
  | Span_end of { seq : int; phase : pkt_phase }
  | Access of { state : string; write : bool }
  | Fault_drop of { cause : string }
  | Fault_dup of { copies : int }
  | Fault_corrupt of { off : int; bit : int }
  | Fault_reorder of { delay_ns : int }
  | Scr_append of { log : string; idx : int }
  | Scr_apply of { log : string; idx : int }
  | Scr_apply_end of { log : string; idx : int }
  | Scr_replay of { log : string; upto : int }
  | Rcu_read of { state : string }
  | Rcu_publish of { state : string }

type record = { ts : int; tid : int; cpu : int; ev : ev }

(* Arena-backed packed record store.  Records land in fixed-size chunks
   as unboxed rows of ints: the timestamp, a header word, the
   constructor's int fields (none to two; booleans and phases as small
   ints) and, for a named constructor (lock, gate, log, state, spawn
   name, fault cause), its name's id in the tracer's name table.  The
   header packs the tid (high 26 bits), the cpu (31 bits, both
   sign-extended) and a 6-bit event kind, the constructor's index.  So a
   record is two to five words of row and no block of its own: emitted
   [ev]s die young instead of being promoted with the chunk.
   [iter_rows] reads rows in place through a cursor and skips a row by
   its kind; [iter] rebuilds each [ev] from its row.  [clear] keeps the
   chunks for the next trace to refill, so repeated trace/clear cycles
   reuse the same memory.
   Chunks are allocated lazily on the first emit: a disabled tracer (the
   default — one exists per sim) costs its name table, not a chunk. *)
type chunk = {
  c_words : int array; (* rows: ts, [pack ~tid ~cpu kind], the kind's ints, its name id *)
  mutable c_len : int; (* words used *)
}

let words_per_chunk = 16384
let max_row = 5
let empty_chunk () = { c_words = [||]; c_len = 0 }
let fresh_chunk () = { c_words = Array.make words_per_chunk 0; c_len = 0 }

(* tid sign-extended from the high 26 bits, cpu from the next 31, kind
   in the low 6. *)
let pack ~tid ~cpu kind = (tid lsl 37) lor ((cpu land 0x7fff_ffff) lsl 6) lor kind
let tid_of w = w asr 37
let cpu_of w = (w lsl 26) asr 32
let kind_of w = w land 63

let phase_index = function Enqueue -> 0 | Ip -> 1 | Lock_wait -> 2 | Tcp_input -> 3 | Upcall -> 4

let phase_of_index = function
  | 0 -> Enqueue
  | 1 -> Ip
  | 2 -> Lock_wait
  | 3 -> Tcp_input
  | _ -> Upcall

module Kind = struct
  type t =
    | Thread_spawn | Thread_fork | Thread_exit
    | Lock_request | Lock_grant | Lock_handoff | Lock_release
    | Gate_take | Gate_pass | Gate_advance
    | Membus_charge | Mpool_alloc
    | Mnode_alloc | Mnode_ref | Mnode_unref | Mnode_recycle | Mnode_write
    | Span_begin | Span_end | Access
    | Fault_drop | Fault_dup | Fault_corrupt | Fault_reorder
    | Scr_append | Scr_apply | Scr_apply_end | Scr_replay
    | Rcu_read | Rcu_publish
end

(* The stored kind numbers, in [encode]'s order: kind [k] is
   [kind_of_index.(k)]. *)
let kind_of_index =
  Kind.
    [|
      Thread_spawn; Thread_fork; Thread_exit; Lock_request; Lock_grant; Lock_handoff;
      Lock_release; Gate_take; Gate_pass; Gate_advance; Membus_charge; Mpool_alloc;
      Mnode_alloc; Mnode_ref; Mnode_unref; Mnode_recycle; Mnode_write; Span_begin;
      Span_end; Access; Fault_drop; Fault_dup; Fault_corrupt; Fault_reorder; Scr_append;
      Scr_apply; Scr_apply_end; Scr_replay; Rcu_read; Rcu_publish;
    |]

let n_kinds = Array.length kind_of_index

(* The inverse of [encode] below: kind [k]'s constructor from its name
   and int fields. *)
let decode k name a b =
  match kind_of_index.(k) with
  | Kind.Thread_spawn -> Thread_spawn { name }
  | Kind.Thread_fork -> Thread_fork { child = a }
  | Kind.Thread_exit -> Thread_exit
  | Kind.Lock_request -> Lock_request { lock = name; waiters = a }
  | Kind.Lock_grant -> Lock_grant { lock = name; waiters = a; wait_ns = b }
  | Kind.Lock_handoff -> Lock_handoff { lock = name; to_tid = a; handoff_ns = b }
  | Kind.Lock_release -> Lock_release { lock = name; hold_ns = a }
  | Kind.Gate_take -> Gate_take { gate = name; ticket = a }
  | Kind.Gate_pass -> Gate_pass { gate = name; ticket = a; wait_ns = b }
  | Kind.Gate_advance -> Gate_advance { gate = name; serving = a }
  | Kind.Membus_charge -> Membus_charge { bytes = a; dur_ns = b }
  | Kind.Mpool_alloc -> Mpool_alloc { hit = a <> 0 }
  | Kind.Mnode_alloc -> Mnode_alloc { node = a }
  | Kind.Mnode_ref -> Mnode_ref { node = a; refs = b }
  | Kind.Mnode_unref -> Mnode_unref { node = a; refs = b }
  | Kind.Mnode_recycle -> Mnode_recycle { node = a }
  | Kind.Mnode_write -> Mnode_write { node = a }
  | Kind.Span_begin -> Span_begin { seq = a; phase = phase_of_index b }
  | Kind.Span_end -> Span_end { seq = a; phase = phase_of_index b }
  | Kind.Access -> Access { state = name; write = a <> 0 }
  | Kind.Fault_drop -> Fault_drop { cause = name }
  | Kind.Fault_dup -> Fault_dup { copies = a }
  | Kind.Fault_corrupt -> Fault_corrupt { off = a; bit = b }
  | Kind.Fault_reorder -> Fault_reorder { delay_ns = a }
  | Kind.Scr_append -> Scr_append { log = name; idx = a }
  | Kind.Scr_apply -> Scr_apply { log = name; idx = a }
  | Kind.Scr_apply_end -> Scr_apply_end { log = name; idx = a }
  | Kind.Scr_replay -> Scr_replay { log = name; upto = a }
  | Kind.Rcu_read -> Rcu_read { state = name }
  | Kind.Rcu_publish -> Rcu_publish { state = name }

module Names = Hashtbl.Make (String)

(* Every name the tracer has recorded, numbered densely from 0 in
   first-emission order.  Emitters pass a lock's or state's own name
   string every time, so a small cache answers most lookups by
   identity: a slot, picked from the string's length and three of its
   bytes, holds the last string seen there.  Only a miss hashes the
   whole string.  The slots start out holding a string of the table's
   own, which no emitter can pass. *)
type names = {
  ids : int Names.t;
  mutable strs : string array; (* id -> name *)
  seen : string array;
  seen_id : int array;
  mutable misses : int; (* lookups the cache did not answer *)
}

let cache_slots = 128

let new_names () =
  {
    ids = Names.create 16;
    strs = [||];
    seen = Array.make cache_slots (String.make 1 ' ');
    seen_id = Array.make cache_slots 0;
    misses = 0;
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
    tbl.misses <- tbl.misses + 1;
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

type t = {
  mutable on : bool;
  mutable chunks : chunk array;
      (* every chunk allocated so far, the trace's [used] first, oldest
         first; the rest (and the slots past the last chunk, which hold
         empty chunks) are free for the trace to grow into *)
  mutable used : int;
  mutable cur : chunk; (* [chunks.(used - 1)], or an empty chunk before the first row *)
  mutable n : int;
  names : names; (* kept by [clear] *)
  mutable threads : (int -> string -> int -> unit) -> unit; (* see [set_threads] *)
  locks : (string, string) Hashtbl.t; (* lock name -> discipline; kept by [clear] *)
}

let create () =
  {
    on = false;
    chunks = [||];
    used = 0;
    cur = empty_chunk ();
    n = 0;
    names = new_names ();
    threads = ignore;
    locks = Hashtbl.create 16;
  }

let enabled t = t.on
let enable t = t.on <- true
let disable t = t.on <- false

let set_threads t each = t.threads <- each

(* Registered by each lock on its first traced record, so a lock created
   before tracing starts still has its discipline for the order checker. *)
let register_lock t ~name ~discipline = Hashtbl.replace t.locks name discipline
let lock_discipline t name = Hashtbl.find_opt t.locks name
let name_count t = Names.length t.names.ids

let name t id =
  if id < 0 || id >= name_count t then invalid_arg "Trace.name: not a name id";
  t.names.strs.(id)

let name_misses t = t.names.misses

let clear t =
  (* Keep the chunks: the next trace run refills them in place. *)
  t.used <- 0;
  t.cur <- empty_chunk ();
  t.n <- 0

let[@inline] has_room c = c.c_len + max_row <= Array.length c.c_words

(* [t.cur] is full: start the next chunk, reusing one [clear] left. *)
let next_chunk t =
  let n = t.used in
  if n = Array.length t.chunks then begin
    let a = Array.make (max 4 (2 * n)) (empty_chunk ()) in
    Array.blit t.chunks 0 a 0 n;
    t.chunks <- a
  end;
  if Array.length t.chunks.(n).c_words = 0 then t.chunks.(n) <- fresh_chunk ();
  let c = t.chunks.(n) in
  t.used <- n + 1;
  c.c_len <- 0;
  t.cur <- c;
  c

(* The row after its ts and header word: [encode] writes the
   constructor's int fields and name id and returns its kind; [decode]
   is its inverse.  The writes are unchecked: [encode] only runs on a
   chunk with [has_room]. *)
let[@inline] row0 c k =
  c.c_len <- c.c_len + 2;
  k

let[@inline] row1 c k a =
  let i = c.c_len in
  Array.unsafe_set c.c_words (i + 2) a;
  c.c_len <- i + 3;
  k

let[@inline] row2 c k a b =
  let i = c.c_len in
  Array.unsafe_set c.c_words (i + 2) a;
  Array.unsafe_set c.c_words (i + 3) b;
  c.c_len <- i + 4;
  k

(* The row [k] just written, with the id of [s] after its ints. *)
let[@inline] named tbl c s k =
  let i = c.c_len in
  Array.unsafe_set c.c_words i (intern tbl s);
  c.c_len <- i + 1;
  k

let[@inline] encode tbl c ev =
  match ev with
  | Thread_spawn { name } -> named tbl c name (row0 c 0)
  | Thread_fork { child } -> row1 c 1 child
  | Thread_exit -> row0 c 2
  | Lock_request { lock; waiters } -> named tbl c lock (row1 c 3 waiters)
  | Lock_grant { lock; waiters; wait_ns } -> named tbl c lock (row2 c 4 waiters wait_ns)
  | Lock_handoff { lock; to_tid; handoff_ns } -> named tbl c lock (row2 c 5 to_tid handoff_ns)
  | Lock_release { lock; hold_ns } -> named tbl c lock (row1 c 6 hold_ns)
  | Gate_take { gate; ticket } -> named tbl c gate (row1 c 7 ticket)
  | Gate_pass { gate; ticket; wait_ns } -> named tbl c gate (row2 c 8 ticket wait_ns)
  | Gate_advance { gate; serving } -> named tbl c gate (row1 c 9 serving)
  | Membus_charge { bytes; dur_ns } -> row2 c 10 bytes dur_ns
  | Mpool_alloc { hit } -> row1 c 11 (Bool.to_int hit)
  | Mnode_alloc { node } -> row1 c 12 node
  | Mnode_ref { node; refs } -> row2 c 13 node refs
  | Mnode_unref { node; refs } -> row2 c 14 node refs
  | Mnode_recycle { node } -> row1 c 15 node
  | Mnode_write { node } -> row1 c 16 node
  | Span_begin { seq; phase } -> row2 c 17 seq (phase_index phase)
  | Span_end { seq; phase } -> row2 c 18 seq (phase_index phase)
  | Access { state; write } -> named tbl c state (row1 c 19 (Bool.to_int write))
  | Fault_drop { cause } -> named tbl c cause (row0 c 20)
  | Fault_dup { copies } -> row1 c 21 copies
  | Fault_corrupt { off; bit } -> row2 c 22 off bit
  | Fault_reorder { delay_ns } -> row1 c 23 delay_ns
  | Scr_append { log; idx } -> named tbl c log (row1 c 24 idx)
  | Scr_apply { log; idx } -> named tbl c log (row1 c 25 idx)
  | Scr_apply_end { log; idx } -> named tbl c log (row1 c 26 idx)
  | Scr_replay { log; upto } -> named tbl c log (row1 c 27 upto)
  | Rcu_read { state } -> named tbl c state (row0 c 28)
  | Rcu_publish { state } -> named tbl c state (row0 c 29)

(* Per kind, its row's length in words and whether it takes a name
   (whose id is then the last word of its row): read off one sample of
   each kind, which must encode to its own kind, or [encode] and
   [decode] disagree. *)
let row_words, named_kinds =
  let named = ref 0 in
  let rows =
    Array.init n_kinds (fun k ->
        let tbl = new_names () and c = { c_words = Array.make max_row 0; c_len = 0 } in
        if encode tbl c (decode k "" 0 0) <> k then invalid_arg "Trace: encode and decode disagree";
        if Names.length tbl.ids > 0 then named := !named lor (1 lsl k);
        c.c_len)
  in
  (rows, !named)

let is_named k = named_kinds land (1 lsl k) <> 0

let emit t ~ts ~tid ~cpu ev =
  if t.on then begin
    let c = if has_room t.cur then t.cur else next_chunk t in
    let i = c.c_len in
    let k = encode t.names c ev in
    Array.unsafe_set c.c_words i ts;
    Array.unsafe_set c.c_words (i + 1) (pack ~tid ~cpu k);
    t.n <- t.n + 1
  end

let count t = t.n

(* A set of kinds as a bit mask; [n_kinds] fits one int. *)
type kinds = int

let all_kinds = (1 lsl n_kinds) - 1

let kinds p =
  let m = ref 0 in
  for k = 0 to n_kinds - 1 do
    if p (decode k "" 0 0) then m := !m lor (1 lsl k)
  done;
  !m

(* A position packs a row's chunk and its first word. *)
let row_bits = 14
let () = assert (words_per_chunk <= 1 lsl row_bits)

type pos = int

type tracer = t

module Row = struct
  (* The chunk being visited and the current row in it, with the row's
     header and kind read once for every accessor.  Every row starts at
     least [max_row] words before the chunk's end ([has_room]), so its
     two int fields can be read whatever its length. *)
  type t = {
    mutable w : int array; (* the chunk's [c_words] *)
    mutable names : names; (* its tracer's *)
    mutable ci : int; (* its index in [t.chunks] *)
    mutable i : int; (* the row's first word *)
    mutable h : int; (* its header word *)
    mutable kind : Kind.t;
  }

  let[@inline] kind r = r.kind
  let[@inline] ts r = Array.unsafe_get r.w r.i
  let[@inline] tid r = tid_of r.h
  let[@inline] cpu r = cpu_of r.h
  let[@inline] int0 r = Array.unsafe_get r.w (r.i + 2)
  let[@inline] int1 r = Array.unsafe_get r.w (r.i + 3)
  let[@inline] id r = Array.unsafe_get r.w (r.i + Array.unsafe_get row_words (kind_of r.h) - 1)
  let name r = r.names.strs.(id r)
  let[@inline] pos r = (r.ci lsl row_bits) lor r.i

  let[@inline] visit (t : tracer) r c ci =
    r.w <- c.c_words;
    r.names <- t.names;
    r.ci <- ci

  (* To the row at word [i], with header [h]. *)
  let[@inline] move r i h =
    r.i <- i;
    r.h <- h;
    r.kind <- Array.unsafe_get kind_of_index (kind_of h)

  let on names = { w = [||]; names; ci = 0; i = 0; h = 0; kind = Kind.Thread_exit }
  let cursor () = on (new_names ())

  let seek (t : tracer) r p =
    let ci = p lsr row_bits in
    if ci <> r.ci || Array.length r.w = 0 then visit t r t.chunks.(ci) ci;
    let i = p land ((1 lsl row_bits) - 1) in
    (* The accessors read up to [max_row] words unchecked. *)
    if i + max_row > Array.length r.w then invalid_arg "Trace.Row.seek: not a position";
    move r i (Array.unsafe_get r.w (i + 1))

  let record r =
    let k = kind_of r.h in
    {
      ts = ts r;
      tid = tid r;
      cpu = cpu r;
      ev = decode k (if is_named k then name r else "") (int0 r) (int1 r);
    }
end

let record_at t p =
  let r = Row.on t.names in
  Row.seek t r p;
  Row.record r

let iter_rows t mask f =
  let r = Row.on t.names in
  for ci = 0 to t.used - 1 do
    (* The rows as they stand when the chunk's visit begins. *)
    let c = t.chunks.(ci) in
    let w = c.c_words and len = c.c_len and i = ref 0 in
    Row.visit t r c ci;
    while !i < len do
      let h = Array.unsafe_get w (!i + 1) in
      let k = kind_of h in
      if mask land (1 lsl k) <> 0 then begin
        Row.move r !i h;
        f r
      end;
      i := !i + Array.unsafe_get row_words k
    done
  done

let iter t f = iter_rows t all_kinds (fun r -> f (Row.record r))

let events t =
  let acc = ref [] in
  iter t (fun r -> acc := r :: !acc);
  List.rev !acc

let pp_phase = function
  | Enqueue -> "enqueue"
  | Ip -> "ip"
  | Lock_wait -> "lock-wait"
  | Tcp_input -> "tcp-input"
  | Upcall -> "upcall"

(* ------------------------------------------------------------------ *)
(* Per-lock contention attribution                                     *)
(* ------------------------------------------------------------------ *)

type lock_stats = {
  lock : string;
  acquisitions : int;
  contended : int;
  wait_ns : int;
  hold_ns : int;
  handoff_ns : int;
  max_queue : int;
}

type acc = {
  mutable a_acq : int;
  mutable a_cont : int;
  mutable a_wait : int;
  mutable a_hold : int;
  mutable a_handoff : int;
  mutable a_maxq : int;
}

let lock_kinds =
  kinds (function
    | Lock_request _ | Lock_grant _ | Lock_handoff _ | Lock_release _ -> true
    | _ -> false)

let lock_table t =
  let accs = Array.make (name_count t) None in
  iter_rows t lock_kinds (fun r ->
      let id = Row.id r in
      let a =
        match accs.(id) with
        | Some a -> a
        | None ->
          let a = { a_acq = 0; a_cont = 0; a_wait = 0; a_hold = 0; a_handoff = 0; a_maxq = 0 } in
          accs.(id) <- Some a;
          a
      in
      match Row.kind r with
      | Kind.Lock_request ->
        let waiters = Row.int0 r in
        if waiters > a.a_maxq then a.a_maxq <- waiters
      | Kind.Lock_grant ->
        let wait_ns = Row.int1 r in
        a.a_acq <- a.a_acq + 1;
        if wait_ns > 0 then a.a_cont <- a.a_cont + 1;
        a.a_wait <- a.a_wait + wait_ns
      | Kind.Lock_handoff -> a.a_handoff <- a.a_handoff + Row.int1 r
      | Kind.Lock_release -> a.a_hold <- a.a_hold + Row.int0 r
      | _ -> ());
  let rows = ref [] in
  Array.iteri
    (fun id -> function
      | None -> ()
      | Some a ->
        rows :=
          {
            lock = name t id;
            acquisitions = a.a_acq;
            contended = a.a_cont;
            wait_ns = a.a_wait;
            hold_ns = a.a_hold;
            handoff_ns = a.a_handoff;
            max_queue = a.a_maxq;
          }
          :: !rows)
    accs;
  !rows
  |> List.sort (fun x y ->
         match compare y.wait_ns x.wait_ns with 0 -> compare x.lock y.lock | c -> c)

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON                                             *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* ns -> us with sub-us precision preserved (chrome "ts" is microseconds). *)
let us ns = Printf.sprintf "%d.%03d" (ns / 1000) (ns mod 1000)

let to_chrome_string t =
  let buf = Buffer.create 65536 in
  let first = ref true in
  let add fmt =
    Printf.ksprintf
      (fun s ->
        if !first then first := false else Buffer.add_string buf ",\n";
        Buffer.add_string buf s)
      fmt
  in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  (* Thread-name metadata rows (one per simulated thread). *)
  t.threads (fun tid name cpu ->
      add
        "{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"%s (cpu %d)\"}}"
        tid (json_escape name) cpu);
  let complete ~name ~cat r ~start_ns ~dur_ns ~args =
    add "{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"name\":\"%s\",\"cat\":\"%s\"%s}"
      r.tid (us start_ns) (us dur_ns) (json_escape name) cat
      (if args = "" then "" else Printf.sprintf ",\"args\":{%s}" args)
  in
  let instant ~name ~cat r ~args =
    add "{\"ph\":\"i\",\"pid\":0,\"tid\":%d,\"ts\":%s,\"s\":\"t\",\"name\":\"%s\",\"cat\":\"%s\"%s}"
      r.tid (us r.ts) (json_escape name) cat
      (if args = "" then "" else Printf.sprintf ",\"args\":{%s}" args)
  in
  let async ph r ~seq ~phase =
    add
      "{\"ph\":\"%s\",\"pid\":0,\"tid\":%d,\"ts\":%s,\"id\":\"0x%x\",\"cat\":\"pkt\",\"name\":\"%s\"}"
      ph r.tid (us r.ts) seq (pp_phase phase)
  in
  iter t (fun r ->
      match r.ev with
      | Thread_spawn { name } -> instant ~name:("spawn " ^ name) ~cat:"thread" r ~args:""
      | Thread_fork { child } ->
        instant ~name:"fork" ~cat:"thread" r ~args:(Printf.sprintf "\"child\":%d" child)
      | Thread_exit -> instant ~name:"exit" ~cat:"thread" r ~args:""
      | Lock_request { lock; waiters } ->
        instant ~name:("request " ^ lock) ~cat:"lock" r
          ~args:(Printf.sprintf "\"waiters\":%d" waiters)
      | Lock_grant { lock; wait_ns; waiters } ->
        if wait_ns > 0 then
          complete ~name:("wait " ^ lock) ~cat:"lock" r ~start_ns:(r.ts - wait_ns)
            ~dur_ns:wait_ns
            ~args:(Printf.sprintf "\"waiters_left\":%d" waiters)
      | Lock_handoff { lock; to_tid; handoff_ns } ->
        complete ~name:("handoff " ^ lock) ~cat:"lock" r ~start_ns:r.ts ~dur_ns:handoff_ns
          ~args:(Printf.sprintf "\"to_tid\":%d" to_tid)
      | Lock_release { lock; hold_ns } ->
        complete ~name:("hold " ^ lock) ~cat:"lock" r ~start_ns:(r.ts - hold_ns)
          ~dur_ns:hold_ns ~args:""
      | Gate_take { gate; ticket } ->
        instant ~name:("ticket " ^ gate) ~cat:"gate" r
          ~args:(Printf.sprintf "\"ticket\":%d" ticket)
      | Gate_pass { gate; ticket; wait_ns } ->
        if wait_ns > 0 then
          complete ~name:("gate " ^ gate) ~cat:"gate" r ~start_ns:(r.ts - wait_ns)
            ~dur_ns:wait_ns
            ~args:(Printf.sprintf "\"ticket\":%d" ticket)
      | Gate_advance { gate; serving } ->
        instant ~name:("advance " ^ gate) ~cat:"gate" r
          ~args:(Printf.sprintf "\"serving\":%d" serving)
      | Membus_charge { bytes; dur_ns } ->
        complete ~name:"membus" ~cat:"bus" r ~start_ns:(r.ts - dur_ns) ~dur_ns
          ~args:(Printf.sprintf "\"bytes\":%d" bytes)
      | Mpool_alloc { hit } ->
        instant ~name:(if hit then "mpool hit" else "mpool miss") ~cat:"mpool" r ~args:""
      | Mnode_alloc { node } ->
        instant ~name:"mnode alloc" ~cat:"mpool" r
          ~args:(Printf.sprintf "\"node\":%d" node)
      | Mnode_ref { node; refs } ->
        instant ~name:"mnode ref" ~cat:"mpool" r
          ~args:(Printf.sprintf "\"node\":%d,\"refs\":%d" node refs)
      | Mnode_unref { node; refs } ->
        instant ~name:"mnode unref" ~cat:"mpool" r
          ~args:(Printf.sprintf "\"node\":%d,\"refs\":%d" node refs)
      | Mnode_recycle { node } ->
        instant ~name:"mnode recycle" ~cat:"mpool" r
          ~args:(Printf.sprintf "\"node\":%d" node)
      | Mnode_write { node } ->
        instant ~name:"mnode write" ~cat:"mpool" r
          ~args:(Printf.sprintf "\"node\":%d" node)
      | Span_begin { seq; phase } -> async "b" r ~seq ~phase
      | Span_end { seq; phase } -> async "e" r ~seq ~phase
      | Access { state; write } ->
        instant ~name:((if write then "write " else "read ") ^ state) ~cat:"access" r
          ~args:""
      | Fault_drop { cause } -> instant ~name:("fault drop " ^ cause) ~cat:"fault" r ~args:""
      | Fault_dup { copies } ->
        instant ~name:"fault dup" ~cat:"fault" r
          ~args:(Printf.sprintf "\"copies\":%d" copies)
      | Fault_corrupt { off; bit } ->
        instant ~name:"fault corrupt" ~cat:"fault" r
          ~args:(Printf.sprintf "\"off\":%d,\"bit\":%d" off bit)
      | Fault_reorder { delay_ns } ->
        instant ~name:"fault reorder" ~cat:"fault" r
          ~args:(Printf.sprintf "\"delay_ns\":%d" delay_ns)
      | Scr_append { log; idx } ->
        instant ~name:("append " ^ log) ~cat:"scr" r
          ~args:(Printf.sprintf "\"idx\":%d" idx)
      | Scr_apply { log; idx } ->
        instant ~name:("apply " ^ log) ~cat:"scr" r
          ~args:(Printf.sprintf "\"idx\":%d" idx)
      | Scr_apply_end { log; idx } ->
        instant ~name:("apply-end " ^ log) ~cat:"scr" r
          ~args:(Printf.sprintf "\"idx\":%d" idx)
      | Scr_replay { log; upto } ->
        instant ~name:("replay " ^ log) ~cat:"scr" r
          ~args:(Printf.sprintf "\"upto\":%d" upto)
      | Rcu_read { state } -> instant ~name:("rcu read " ^ state) ~cat:"rcu" r ~args:""
      | Rcu_publish { state } ->
        instant ~name:("rcu publish " ^ state) ~cat:"rcu" r ~args:"");
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let write_chrome t file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_string t))
