(* Simulated per-layer counts from the traced pass: where the modelled
   1994 machine spends each packet's time, which lock classes it waits
   on, and the counters the harness already reports per cell.  All of
   them are exact functions of the seed, so a change that only touches
   host cost must leave every one of them unchanged. *)

open Pnp_engine
open Pnp_harness

(* The packet phases whose self time is reported.  Driver service
   (Enqueue) ends before the IP span begins and is left out. *)
let phase_index = function
  | Trace.Ip -> Some 0
  | Trace.Lock_wait -> Some 1
  | Trace.Tcp_input -> Some 2
  | Trace.Upcall -> Some 3
  | Trace.Enqueue -> None

let phases = 4

type lock_class = { mutable acq : int; mutable wait : int; mutable hold : int }

type t = {
  self_ns : int array;   (** per phase: span time not covered by child spans *)
  spans : int array;     (** per phase: closed spans *)
  conn : lock_class;     (** per-connection state locks *)
  map : lock_class;      (** demux map locks *)
  mutable reorder_bytes : int;  (** deepest grant overtake on a conn lock *)
  mutable results : Run.result list;
  mutable outcomes : Overload.outcome list;
}

let create () =
  {
    self_ns = Array.make phases 0;
    spans = Array.make phases 0;
    conn = { acq = 0; wait = 0; hold = 0 };
    map = { acq = 0; wait = 0; hold = 0 };
    reorder_bytes = 0;
    results = [];
    outcomes = [];
  }

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

type frame = { phase : Trace.pkt_phase; seq : int; start : int; mutable child : int }

(* Self time per phase.  Spans nest per simulated thread (the IP span
   encloses lock wait, input and upcall), so each thread keeps a stack;
   an end closes every frame above its begin.  Ends whose begin preceded
   the measurement window have no frame and are skipped. *)
let add_spans t tr =
  let stacks = Hashtbl.create 16 in
  let close (f : frame) ~ts rest =
    let dur = ts - f.start in
    (match phase_index f.phase with
     | Some i ->
       t.self_ns.(i) <- t.self_ns.(i) + dur - f.child;
       t.spans.(i) <- t.spans.(i) + 1
     | None -> ());
    match rest with parent :: _ -> parent.child <- parent.child + dur | [] -> ()
  in
  Trace.iter tr (fun (r : Trace.record) ->
      let stack = Option.value (Hashtbl.find_opt stacks r.Trace.tid) ~default:[] in
      match r.Trace.ev with
      | Trace.Span_begin { seq; phase } ->
        Hashtbl.replace stacks r.Trace.tid ({ phase; seq; start = r.Trace.ts; child = 0 } :: stack)
      | Trace.Span_end { seq; phase }
        when List.exists (fun f -> f.phase = phase && f.seq = seq) stack ->
        let rec unwind = function
          | [] -> []
          | f :: rest ->
            close f ~ts:r.Trace.ts rest;
            if f.phase = phase && f.seq = seq then rest else unwind rest
        in
        Hashtbl.replace stacks r.Trace.tid (unwind stack)
      | _ -> ())

let add_locks t tr =
  List.iter
    (fun (s : Trace.lock_stats) ->
      let cls =
        if contains ~sub:".conn:" s.Trace.lock then Some t.conn
        else if contains ~sub:".demux" s.Trace.lock then Some t.map
        else None
      in
      match cls with
      | Some c ->
        c.acq <- c.acq + s.Trace.acquisitions;
        c.wait <- c.wait + s.Trace.wait_ns;
        c.hold <- c.hold + s.Trace.hold_ns
      | None -> ())
    (Trace.lock_table tr);
  List.iter
    (fun (s : Pnp_analysis.Order_check.lock_stat) ->
      if contains ~sub:".conn:" s.Pnp_analysis.Order_check.lock then
        t.reorder_bytes <- max t.reorder_bytes s.Pnp_analysis.Order_check.max_window)
    (Pnp_analysis.Order_check.stats tr)

(* Run one cell traced, fold what it shows into [t], and return its
   execution for the same digest check every other mode passes. *)
let observe t (cell : Workloads.cell) =
  match cell with
  | Workloads.Run_cell cfg | Workloads.Check_cell cfg ->
    let r, tr = Run.run_traced cfg in
    add_spans t tr;
    add_locks t tr;
    t.results <- r :: t.results;
    let problems =
      match cell with
      | Workloads.Check_cell _ -> Workloads.finding_texts (Pnp_analysis.Check.all tr)
      | Workloads.Run_cell _ | Workloads.Incast_cell _ -> []
    in
    { (Workloads.ok r) with Workloads.problems }
  | Workloads.Incast_cell seed ->
    let o = Workloads.incast ~seed () in
    t.outcomes <- o :: t.outcomes;
    Workloads.of_outcome o

let per den num = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let mean f = function
  | [] -> 0.0
  | xs -> List.fold_left (fun acc x -> acc +. f x) 0.0 xs /. float_of_int (List.length xs)

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(* (name, unit, value); a count the workload cannot produce reads 0. *)
let metrics t =
  let phase name i = (name, "sim_ns", per t.spans.(i) t.self_ns.(i)) in
  let rs = t.results and os = t.outcomes in
  let drops f = float_of_int (sum (fun (o : Overload.outcome) -> f o.Overload.drops) os) in
  let completions_ms =
    List.concat_map
      (fun (o : Overload.outcome) ->
        List.map (fun (_, ns) -> float_of_int ns /. 1e6) o.Overload.completion_ns)
      os
  in
  [
    phase "tcp.sim_ip_ns" 0;
    phase "tcp.sim_lock_wait_ns" 1;
    phase "tcp.sim_input_ns" 2;
    phase "tcp.sim_upcall_ns" 3;
    ("lock.sim_conn_wait_ns", "sim_ns", per t.conn.acq t.conn.wait);
    ("lock.sim_conn_hold_ns", "sim_ns", per t.conn.acq t.conn.hold);
    ("lock.sim_map_wait_ns", "sim_ns", per t.map.acq t.map.wait);
    ("lock.sim_map_hold_ns", "sim_ns", per t.map.acq t.map.hold);
    ("lock.sim_wait_pct", "%", mean (fun (r : Run.result) -> r.Run.lock_wait_pct) rs);
    ("mpool.sim_cache_hit_pct", "%", mean (fun (r : Run.result) -> r.Run.cache_hit_pct) rs);
    ("tcp.sim_pred_miss_pct", "%", mean (fun (r : Run.result) -> r.Run.pred_miss_pct) rs);
    ("tcp.sim_ooo_pct", "%", mean (fun (r : Run.result) -> r.Run.ooo_pct) rs);
    ("tcp.sim_rexmit_pct", "%", mean (fun (r : Run.result) -> r.Run.rexmit_pct) rs);
    ( "tcp.scr_replays_per_append",
      "ratio",
      per
        (sum (fun (r : Run.result) -> r.Run.scr_appends) rs)
        (sum (fun (r : Run.result) -> r.Run.scr_replayed) rs) );
    ("tcp.sim_reorder_window_pkts", "packets", float_of_int t.reorder_bytes /. 4096.0);
    ("overload.syn_drops", "count", drops (fun d -> d.Pnp_analysis.Recovery.syn_backlog));
    ("overload.link_drops", "count", drops (fun d -> d.Pnp_analysis.Recovery.link));
    ( "overload.rexmits",
      "count",
      float_of_int (sum (fun (o : Overload.outcome) -> o.Overload.rexmits) os) );
    ( "mpool.pressure_entries",
      "count",
      float_of_int (sum (fun (o : Overload.outcome) -> o.Overload.pool_pressure_entries) os)
    );
    ( "overload.sim_p99_completion_ms",
      "sim_ms",
      match completions_ms with [] -> 0.0 | cs -> Report.percentile 99.0 cs );
  ]
