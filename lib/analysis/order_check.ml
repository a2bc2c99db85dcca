open Pnp_engine

type lock_stat = {
  lock : string;
  discipline : string option;
  grants : int;
  reordered : int;
  max_window : int;
}

(* Per lock id: the reorder accounting and the FIFO assertion's
   request queue. *)
type cell = {
  name : string;
  fifo : bool; (* registered with the FIFO discipline *)
  mutable grants : int;
  mutable reordered : int;
  mutable max_window : int;
  mutable max_seq : int; (* highest packet seq granted so far *)
  mutable any_seq : bool;
  (* Pending requests, oldest first: the [n] first entries of
     [req_tids] and [req_pos], the requesting tid and the request
     row. *)
  mutable n : int;
  mutable req_tids : int array;
  mutable req_pos : int array;
  mutable flagged : bool;
}

(* One step serves both analyses: the per-lock reorder accounting and
   the FIFO grant-order assertion, which replays each lock's request
   queue and requires grants to pop the head. *)
type t = {
  ctx : Replay.ctx; (* its tracer has the registered lock disciplines *)
  cells : cell Replay.Slots.t;
  mutable findings : Finding.t list;
}

let create ctx = { ctx; cells = Replay.Slots.create (); findings = [] }

let cell t =
  let id = Replay.id t.ctx in
  match Replay.Slots.get t.cells id with
  | Some c -> c
  | None ->
    let name = Replay.lock_name t.ctx id in
    let c =
      {
        name;
        fifo = Trace.lock_discipline (Replay.tracer t.ctx) name = Some "fifo";
        grants = 0;
        reordered = 0;
        max_window = 0;
        max_seq = 0;
        any_seq = false;
        n = 0;
        req_tids = [||];
        req_pos = [||];
        flagged = false;
      }
    in
    Replay.Slots.set t.cells id c;
    c

let account t tid a =
  if Replay.carrying t.ctx ~tid then begin
    let seq = Replay.seq t.ctx ~tid in
    a.grants <- a.grants + 1;
    if a.any_seq && seq < a.max_seq then begin
      a.reordered <- a.reordered + 1;
      a.max_window <- max a.max_window (a.max_seq - seq)
    end;
    if (not a.any_seq) || seq > a.max_seq then begin
      a.max_seq <- seq;
      a.any_seq <- true
    end
  end

let enqueue c tid pos =
  c.req_tids <- Replay.grow c.req_tids c.n 0;
  c.req_pos <- Replay.grow c.req_pos c.n 0;
  c.req_tids.(c.n) <- tid;
  c.req_pos.(c.n) <- pos;
  c.n <- c.n + 1

(* Drop every pending request [tid] made, keeping the others in order. *)
let remove c tid =
  let k = ref 0 in
  for i = 0 to c.n - 1 do
    if c.req_tids.(i) <> tid then begin
      c.req_tids.(!k) <- c.req_tids.(i);
      c.req_pos.(!k) <- c.req_pos.(i);
      incr k
    end
  done;
  c.n <- !k

let rec pending c tid i = i < c.n && (c.req_tids.(i) = tid || pending c tid (i + 1))

let pop_grant t row c =
  let tid = Trace.Row.tid row in
  (* A grant whose request predates trace start is not in the queue;
     ignore it rather than mistake it for an overtake. *)
  if pending c tid 0 then begin
    let head_tid = c.req_tids.(0) in
    if head_tid <> tid then begin
      (* Overtake.  Only a violation for FIFO locks. *)
      if c.fifo && not c.flagged then begin
        c.flagged <- true;
        t.findings <-
          Finding.v ~checker:"fifo-order" ~subject:c.name
            ~witnesses:[ Replay.record t.ctx c.req_pos.(0); Trace.Row.record row ]
            (Printf.sprintf
               "FIFO lock granted out of arrival order: tid %d overtook the pending \
                request of tid %d"
               tid head_tid)
          :: t.findings
      end;
      remove c tid
    end
    else begin
      for i = 0 to c.n - 2 do
        c.req_tids.(i) <- c.req_tids.(i + 1);
        c.req_pos.(i) <- c.req_pos.(i + 1)
      done;
      c.n <- c.n - 1
    end
  end

let grant t row =
  let c = cell t in
  account t (Trace.Row.tid row) c;
  pop_grant t row c

let request t row = enqueue (cell t) (Trace.Row.tid row) (Trace.Row.pos row)

let stats_of t =
  Replay.Slots.fold t.cells
    (fun _ c rows ->
      if c.grants = 0 then rows
      else
        {
          lock = c.name;
          discipline = Trace.lock_discipline (Replay.tracer t.ctx) c.name;
          grants = c.grants;
          reordered = c.reordered;
          max_window = c.max_window;
        }
        :: rows)
    []
  |> List.sort (fun (x : lock_stat) y ->
         match compare y.reordered x.reordered with 0 -> compare x.lock y.lock | c -> c)

let findings t = Finding.sort t.findings

(* The order statistics alone, for callers that need no other checker:
   the same two steps [Check.run] routes these kinds to. *)
let stats tracer =
  let t = create (Replay.create tracer) in
  Replay.replay t.ctx (fun row ->
      match Trace.Row.kind row with
      | Trace.Kind.Lock_request -> request t row
      | Trace.Kind.Lock_grant -> grant t row
      | _ -> ());
  stats_of t

let reordered_total rows =
  List.fold_left
    (fun (r, g) (s : lock_stat) -> (r + s.reordered, g + s.grants))
    (0, 0) rows
