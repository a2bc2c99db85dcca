type pkt_phase = Enqueue | Ip | Lock_wait | Tcp_input | Upcall

type ev =
  | Thread_spawn of { name : string }
  | Thread_fork of { child : int }
  | Thread_exit
  | Thread_join of { child : int }
  | Thread_block
  | Thread_resume
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

(* Arena-backed record store.  Records land in fixed-size chunks whose
   ts and thread columns are unboxed int arrays (only the event payload
   stays a heap value), replacing the one-cons-plus-one-record-per-event
   list the tracer used to build.  The thread column packs tid and cpu
   into one int (both are small: thread and CPU numbers, or -1), so a
   record costs three words of chunk.  [clear] recycles full chunks into
   a free list, so repeated trace/clear cycles reuse the same memory.
   Chunks are allocated lazily on the first emit: a disabled tracer (the
   default — one exists per sim) costs a few words, not a chunk. *)
type chunk = {
  c_ts : int array;
  c_who : int array; (* [pack ~tid ~cpu] *)
  c_ev : ev array;
}

let chunk_size = 4096

let empty_chunk = { c_ts = [||]; c_who = [||]; c_ev = [||] }

let fresh_chunk () =
  {
    c_ts = Array.make chunk_size 0;
    c_who = Array.make chunk_size 0;
    c_ev = Array.make chunk_size Thread_block;
  }

(* tid in the high bits, cpu sign-extended from the low 31. *)
let pack ~tid ~cpu = (tid lsl 31) lor (cpu land 0x7fff_ffff)
let tid_of w = w asr 31
let cpu_of w = (w lsl 32) asr 32

type t = {
  mutable on : bool;
  mutable filled : chunk list; (* full chunks, newest first *)
  mutable cur : chunk;
  mutable cur_len : int;
  mutable free : chunk list; (* recycled by [clear] *)
  mutable n : int;
  names : (int, string * int) Hashtbl.t; (* tid -> (name, cpu); always kept *)
  locks : (string, string) Hashtbl.t; (* lock name -> discipline; kept by [clear] *)
}

let create () =
  {
    on = false;
    filled = [];
    cur = empty_chunk;
    cur_len = 0;
    free = [];
    n = 0;
    names = Hashtbl.create 16;
    locks = Hashtbl.create 16;
  }

let enabled t = t.on
let enable t = t.on <- true
let disable t = t.on <- false

(* Registered at every spawn regardless of [on], so threads created before
   tracing starts still get names in the exported view. *)
let register_thread t ~tid ~cpu name = Hashtbl.replace t.names tid (name, cpu)

(* Registered by each lock on its first traced record, so a lock created
   before tracing starts still has its discipline for the order checker. *)
let register_lock t ~name ~discipline = Hashtbl.replace t.locks name discipline
let lock_discipline t name = Hashtbl.find_opt t.locks name

let clear t =
  (* Keep the chunks: the next trace run refills them in place. *)
  if Array.length t.cur.c_ts > 0 then t.free <- t.cur :: t.free;
  t.free <- List.rev_append t.filled t.free;
  t.filled <- [];
  t.cur <- empty_chunk;
  t.cur_len <- 0;
  t.n <- 0

let emit t ~ts ~tid ~cpu ev =
  if t.on then begin
    if t.cur_len = Array.length t.cur.c_ts then begin
      if t.cur_len > 0 then t.filled <- t.cur :: t.filled;
      (t.cur <-
         (match t.free with
         | c :: rest ->
           t.free <- rest;
           c
         | [] -> fresh_chunk ()));
      t.cur_len <- 0
    end;
    let c = t.cur and i = t.cur_len in
    c.c_ts.(i) <- ts;
    c.c_who.(i) <- pack ~tid ~cpu;
    c.c_ev.(i) <- ev;
    t.cur_len <- i + 1;
    t.n <- t.n + 1
  end

let count t = t.n

let iter t f =
  let visit c len =
    for i = 0 to len - 1 do
      let w = c.c_who.(i) in
      f { ts = c.c_ts.(i); tid = tid_of w; cpu = cpu_of w; ev = c.c_ev.(i) }
    done
  in
  List.iter (fun c -> visit c (Array.length c.c_ts)) (List.rev t.filled);
  visit t.cur t.cur_len

let events t =
  let acc = ref [] in
  iter t (fun r -> acc := r :: !acc);
  List.rev !acc

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun r -> acc := f !acc r);
  !acc

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

let lock_table t =
  let tbl : (string, acc) Hashtbl.t = Hashtbl.create 16 in
  let get name =
    match Hashtbl.find_opt tbl name with
    | Some a -> a
    | None ->
      let a = { a_acq = 0; a_cont = 0; a_wait = 0; a_hold = 0; a_handoff = 0; a_maxq = 0 } in
      Hashtbl.replace tbl name a;
      a
  in
  List.iter
    (fun r ->
      match r.ev with
      | Lock_request { lock; waiters } ->
        let a = get lock in
        if waiters > a.a_maxq then a.a_maxq <- waiters
      | Lock_grant { lock; wait_ns; _ } ->
        let a = get lock in
        a.a_acq <- a.a_acq + 1;
        if wait_ns > 0 then a.a_cont <- a.a_cont + 1;
        a.a_wait <- a.a_wait + wait_ns
      | Lock_handoff { lock; handoff_ns; _ } ->
        let a = get lock in
        a.a_handoff <- a.a_handoff + handoff_ns
      | Lock_release { lock; hold_ns } ->
        let a = get lock in
        a.a_hold <- a.a_hold + hold_ns
      | _ -> ())
    (events t);
  Hashtbl.fold
    (fun lock a rows ->
      {
        lock;
        acquisitions = a.a_acq;
        contended = a.a_cont;
        wait_ns = a.a_wait;
        hold_ns = a.a_hold;
        handoff_ns = a.a_handoff;
        max_queue = a.a_maxq;
      }
      :: rows)
    tbl []
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
  let evs = events t in
  (* Thread-name metadata rows (one per simulated thread). *)
  Hashtbl.fold (fun tid (name, cpu) acc -> (tid, name, cpu) :: acc) t.names []
  |> List.sort compare
  |> List.iter (fun (tid, name, cpu) ->
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
  List.iter
    (fun r ->
      match r.ev with
      | Thread_spawn { name } -> instant ~name:("spawn " ^ name) ~cat:"thread" r ~args:""
      | Thread_fork { child } ->
        instant ~name:"fork" ~cat:"thread" r ~args:(Printf.sprintf "\"child\":%d" child)
      | Thread_exit -> instant ~name:"exit" ~cat:"thread" r ~args:""
      | Thread_join { child } ->
        instant ~name:"join" ~cat:"thread" r ~args:(Printf.sprintf "\"child\":%d" child)
      | Thread_block | Thread_resume ->
        (* Block/resume intervals are already visible through the wait
           duration events; keep the raw stream out of the rendered view. *)
        ()
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
        instant ~name:("rcu publish " ^ state) ~cat:"rcu" r ~args:"")
    evs;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let write_chrome t file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_string t))
