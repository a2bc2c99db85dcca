(* Host-side performance profile of the simulator itself.

   The paper's methodology multiplies seeds x processor counts x config
   cells, so the wall-clock cost of the reproduction is dominated by how
   many simulated events the host machine can retire per second — not by
   anything about the modeled hardware.  This module is the measuring
   stick: a process-wide event counter fed by [Run], [Overload] and
   [Chaos] after every world they run, OCaml GC allocation
   counters, and the sweep-cell memo's hit/miss counters, snapshotted
   around a workload and reported as a delta.

   The counters are atomics because sweep cells run on Pool worker
   domains.  GC words come from [Gc.quick_stat] on the calling domain;
   counts from worker domains fold into the global totals when the pool
   joins them, so a snapshot taken after a sweep sees the whole run. *)

let sim_events = Atomic.make 0
let cell_hits = Atomic.make 0
let cell_misses = Atomic.make 0

(* Mpool buffer-arena high-water mark: a process-wide max over pools (a
   max, not a sum — the figure of interest is the largest arena any one
   cell needed, which bounds per-cell host memory). *)
let arena_hwm = Atomic.make 0

let note_sim_events n = if n > 0 then ignore (Atomic.fetch_and_add sim_events n)
let note_cell_hit () = ignore (Atomic.fetch_and_add cell_hits 1)
let note_cell_miss () = ignore (Atomic.fetch_and_add cell_misses 1)

let rec note_arena_hwm n =
  let cur = Atomic.get arena_hwm in
  if n > cur && not (Atomic.compare_and_set arena_hwm cur n) then note_arena_hwm n

type snapshot = {
  wall_s : float;
  events : int;
  minor_words : float;
  major_words : float;
  hits : int;
  misses : int;
  hwm : int;
}

let snapshot () =
  let gc = Gc.quick_stat () in
  {
    wall_s = Unix.gettimeofday ();
    events = Atomic.get sim_events;
    minor_words = gc.Gc.minor_words;
    major_words = gc.Gc.major_words;
    hits = Atomic.get cell_hits;
    misses = Atomic.get cell_misses;
    hwm = Atomic.get arena_hwm;
  }

type delta = {
  elapsed_s : float;
  sim_events : int;
  gc_minor_words : float;
  gc_major_words : float;
  cell_hits : int;
  cell_misses : int;
  arena_hwm : int;
}

let delta before after =
  {
    elapsed_s = after.wall_s -. before.wall_s;
    sim_events = after.events - before.events;
    gc_minor_words = after.minor_words -. before.minor_words;
    gc_major_words = after.major_words -. before.major_words;
    cell_hits = after.hits - before.hits;
    cell_misses = after.misses - before.misses;
    (* The arena mark is a running process max, not a rate: report the
       window-end value rather than a meaningless difference. *)
    arena_hwm = after.hwm;
  }

let events_per_sec d =
  if d.elapsed_s > 0.0 then float_of_int d.sim_events /. d.elapsed_s else 0.0

let cell_hit_pct d =
  let total = d.cell_hits + d.cell_misses in
  if total > 0 then 100.0 *. float_of_int d.cell_hits /. float_of_int total
  else 0.0

let measure f =
  let before = snapshot () in
  let v = f () in
  (v, delta before (snapshot ()))
