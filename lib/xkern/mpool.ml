open Pnp_engine
module Buf = Pnp_util.Buf

type mnode = {
  id : int;
  data : [ `R | `W ] Buf.t; (* handed out writable only by [write] *)
  size_class : int; (* < 2: the buffer comes from, and returns to, the arena *)
  refs : Atomic_ctr.t;
  (* One-slot checksum-sum memo (see Inet_cksum.sum_slices): the 16-bit
     one's-complement sum of data[sum_off, sum_off+sum_len) as of write
     generation [sum_gen].  [write] bumps [gen] before it hands out the
     writable buffer, so a segment duplicated from a template (refs > 1 on
     the rexmt queue, drivers' payload sharing) is summed once and then
     served in O(1) — the host-side "coalescing" of repeated data
     touches that real stacks get from hardware checksum offload. *)
  mutable gen : int;
  mutable sum_gen : int; (* -1 = no cached sum *)
  mutable sum_off : int;
  mutable sum_len : int;
  mutable sum_val : int;
}

(* Two cached size classes: header nodes and MTU-sized data nodes.  Larger
   requests are allocated exactly and never cached. *)
let class_capacities = [| 256; 4608 |]

let class_of n =
  if n <= class_capacities.(0) then 0 else if n <= class_capacities.(1) then 1 else 2

let cache_limit = 64

exception Out_of_mnodes of { requested : int; live : int; capacity : int }

(* One thread's free cache: a LIFO per size class, with the depth kept
   alongside so the free path never walks the list to count it. *)
type tid_cache = {
  nodes : mnode list array; (* per-class LIFO *)
  depths : int array;
}

type t = {
  plat : Platform.t;
  tracer : Trace.t; (* the sim's, fixed for its life *)
  capacity : int; (* max live mnodes; max_int = unbounded *)
  malloc_lock : Lock.t;
  mutable caches : tid_cache array; (* tid-indexed; no hashing on the hot path *)
  mutable cache_table_growths : int;
  mutable next_id : int;
  mutable allocations : int;
  mutable cache_hits : int;
  mutable global_allocations : int;
  mutable live : int;
  (* Host-side buffer arena: the Bytes behind cached-class nodes are
     drawn from per-class free lists and recycled when a node's refcount
     reaches zero outside the simulated per-thread caches.  Purely host
     allocation policy — the simulated malloc/cache charges above are
     untouched, so no figure depends on it.
     A buffer can only re-enter the free lists at refcount zero, which is
     what keeps recycling invisible to retransmission-queue sharing
     ([Msg.dup]/[Msg.unshare]): a node still referenced anywhere keeps
     its buffer. *)
  arena_free : [ `R | `W ] Buf.t list array; (* per cached class *)
  arena_free_n : int array;
  mutable arena_out : int; (* bytes inside arena-drawn nodes now live *)
  mutable arena_hwm : int; (* peak of [arena_out] *)
  (* Graceful degradation: a soft high-watermark below the hard capacity.
     Crossing it upward flips [in_pressure]; falling back below wakes any
     threads parked in [await_headroom].  The gap between the watermark and the hard
     capacity is the protocol's headroom budget: admission-controlled
     producers stop at the watermark so that protocol-internal transients
     (header pushes, ACK emission, retransmission) never hit the hard
     wall.  [soft = max_int] (unbounded pools) makes every check a single
     always-false compare, so bench-path pools pay nothing. *)
  soft : int;
  mutable in_pressure : bool;
  mutable pressure_entries : int;
  mutable headroom_waiters : (Pnp_util.Units.ns -> unit) list; (* LIFO; woken in reverse *)
}

(* Instruction budgets: a cache hit is a couple of pointer operations; the
   global path runs the allocator under its lock and touches cold memory. *)
let cache_hit_instrs = 18
let malloc_instrs = 120
let free_instrs = 60

(* Every trace site tests [tracing] first, so an untraced run never
   builds the record. *)
let tracing t = Trace.enabled t.tracer

let trace_alloc t ~hit =
  if tracing t then Sim.trace t.plat.Platform.sim (Trace.Mpool_alloc { hit })

(* Lifecycle events for the arena sanitizer (Pnp_analysis.Lifetime):
   alloc / ref / unref / recycle / write, keyed by node id.  Silent
   outside simulated threads (setup/teardown traffic has no tid to
   charge). *)
let trace_node t ev = Sim.trace t.plat.Platform.sim ev

let create ?(capacity = max_int) plat =
  if capacity <= 0 then invalid_arg "Mpool.create: capacity must be positive";
  {
    plat;
    tracer = Sim.tracer plat.Platform.sim;
    capacity;
    soft = (if capacity = max_int then max_int else max 1 (capacity / 2));
    in_pressure = false;
    pressure_entries = 0;
    headroom_waiters = [];
    malloc_lock =
      Lock.create plat.Platform.sim plat.Platform.arch Lock.Unfair ~name:"malloc";
    caches = [||];
    cache_table_growths = 0;
    next_id = 0;
    allocations = 0;
    cache_hits = 0;
    global_allocations = 0;
    live = 0;
    arena_free = Array.make 2 [];
    arena_free_n = Array.make 2 0;
    arena_out = 0;
    arena_hwm = 0;
  }

let no_cache = { nodes = [||]; depths = [||] } (* a tid that has not used the pool *)

(* Extend the tid-indexed table to cover [tid].  The only non-O(1) step
   in the cache path, and it runs once per table doubling — the fast
   path below is a bounds check and two array loads, never a hash
   lookup.  A thread's cache is made when it first uses the pool. *)
let grow_caches t tid =
  t.cache_table_growths <- t.cache_table_growths + 1;
  let table = Array.make (max 16 (max (tid + 1) (2 * Array.length t.caches))) no_cache in
  Array.blit t.caches 0 table 0 (Array.length t.caches);
  t.caches <- table

let thread_cache t =
  let tid = Sim.tid (Sim.self t.plat.Platform.sim) in
  if tid >= Array.length t.caches then grow_caches t tid;
  if Array.unsafe_get t.caches tid == no_cache then
    t.caches.(tid) <- { nodes = Array.make 2 []; depths = Array.make 2 0 };
  Array.unsafe_get t.caches tid

(* Bound on recycled buffers kept per class: enough to absorb steady-state
   churn without pinning an allocation spike's memory forever. *)
let arena_retain = 1024

let arena_take t cls =
  let cap = class_capacities.(cls) in
  t.arena_out <- t.arena_out + cap;
  if t.arena_out > t.arena_hwm then t.arena_hwm <- t.arena_out;
  match t.arena_free.(cls) with
  | b :: rest ->
    t.arena_free.(cls) <- rest;
    t.arena_free_n.(cls) <- t.arena_free_n.(cls) - 1;
    b
  | [] -> Buf.create cap

(* A dead node's buffer returns to the free lists; only ever called at
   refcount zero for nodes not parked in a simulated per-thread cache. *)
let arena_recycle t node =
  let cls = node.size_class in
  if cls < 2 then begin
    if tracing t then trace_node t (Trace.Mnode_recycle { node = node.id });
    t.arena_out <- t.arena_out - Buf.length node.data;
    if t.arena_free_n.(cls) < arena_retain then begin
      t.arena_free.(cls) <- node.data :: t.arena_free.(cls);
      t.arena_free_n.(cls) <- t.arena_free_n.(cls) + 1
    end
  end

let fresh_node t n cls =
  let node =
    {
      id = t.next_id;
      data = (if cls = 2 then Buf.create n else arena_take t cls);
      size_class = cls;
      refs = Platform.refcnt t.plat ~name:"mnode" ~init:1;
      gen = 0;
      sum_gen = -1;
      sum_off = 0;
      sum_len = 0;
      sum_val = 0;
    }
  in
  t.next_id <- t.next_id + 1;
  if tracing t then trace_node t (Trace.Mnode_alloc { node = node.id });
  node

let global_alloc t n cls =
  t.global_allocations <- t.global_allocations + 1;
  if Sim.in_thread t.plat.Platform.sim then begin
    Lock.acquire t.malloc_lock;
    Platform.charge_instrs t.plat malloc_instrs;
    Lock.release t.malloc_lock;
    (* Freshly allocated memory is cold for this CPU. *)
    Platform.charge t.plat (Arch.touch_ns t.plat.Platform.arch 128)
  end;
  fresh_node t n cls

(* Pressure edges.  Both are out of line: the hot paths only pay a
   compare-and-branch against [soft] / [in_pressure]. *)
let enter_pressure t =
  t.in_pressure <- true;
  t.pressure_entries <- t.pressure_entries + 1

let leave_pressure t =
  t.in_pressure <- false;
  match t.headroom_waiters with
  | [] -> ()
  | ws ->
    t.headroom_waiters <- [];
    let now = Sim.now t.plat.Platform.sim in
    (* Registration order (the list is a LIFO): deterministic wakeups. *)
    List.iter (fun resume -> resume now) (List.rev ws)

let alloc t n =
  if n < 0 then invalid_arg "Mpool.alloc: negative size";
  if t.live >= t.capacity then
    raise (Out_of_mnodes { requested = n; live = t.live; capacity = t.capacity });
  t.allocations <- t.allocations + 1;
  t.live <- t.live + 1;
  if (not t.in_pressure) && t.live >= t.soft then enter_pressure t;
  let cls = class_of n in
  let use_cache =
    cls < 2 && t.plat.Platform.message_caching && Sim.in_thread t.plat.Platform.sim
  in
  if not use_cache then begin
    trace_alloc t ~hit:false;
    global_alloc t n cls
  end
  else begin
    let cache = thread_cache t in
    match cache.nodes.(cls) with
    | node :: rest ->
      cache.nodes.(cls) <- rest;
      cache.depths.(cls) <- cache.depths.(cls) - 1;
      t.cache_hits <- t.cache_hits + 1;
      trace_alloc t ~hit:true;
      Platform.charge_instrs t.plat cache_hit_instrs;
      ignore (Atomic_ctr.incr node.refs);
      (* A cached node comes back to life: 0 -> 1 is a re-arm, not a
         reference taken on a live node, so it traces as an alloc. *)
      if tracing t then trace_node t (Trace.Mnode_alloc { node = node.id });
      node
    | [] ->
      trace_alloc t ~hit:false;
      global_alloc t n cls
  end

let incref t node =
  let r = Atomic_ctr.incr node.refs in
  if tracing t then trace_node t (Trace.Mnode_ref { node = node.id; refs = r })

let global_free t =
  if Sim.in_thread t.plat.Platform.sim then begin
    Lock.acquire t.malloc_lock;
    Platform.charge_instrs t.plat free_instrs;
    Lock.release t.malloc_lock
  end

let decref t node =
  let r = Atomic_ctr.decr node.refs in
  if r < 0 then failwith "Mpool.decref: reference count went negative";
  if tracing t then trace_node t (Trace.Mnode_unref { node = node.id; refs = r });
  if r = 0 then begin
    t.live <- t.live - 1;
    if t.in_pressure && t.live < t.soft then leave_pressure t;
    let use_cache =
      node.size_class < 2
      && t.plat.Platform.message_caching
      && Sim.in_thread t.plat.Platform.sim
    in
    if use_cache then begin
      let cache = thread_cache t in
      let cls = node.size_class in
      if cache.depths.(cls) < cache_limit then begin
        Platform.charge_instrs t.plat cache_hit_instrs;
        cache.nodes.(cls) <- node :: cache.nodes.(cls);
        cache.depths.(cls) <- cache.depths.(cls) + 1
      end
      else begin
        global_free t;
        arena_recycle t node
      end
    end
    else begin
      global_free t;
      arena_recycle t node
    end
  end

let under_pressure t = t.in_pressure
let headroom t = if t.capacity = max_int then max_int else t.capacity - t.live

(* Admission control for producers running in simulated threads: park
   until the pool falls back below the soft watermark.  Loops because a
   wakeup races other woken producers re-entering pressure.  Outside a
   simulated thread (setup traffic) this is a no-op — there is nothing
   to suspend. *)
let rec await_headroom t =
  if t.in_pressure && Sim.in_thread t.plat.Platform.sim then begin
    Sim.suspend t.plat.Platform.sim (fun resume ->
        t.headroom_waiters <- resume :: t.headroom_waiters);
    await_headroom t
  end

let data node = (node.data :> [ `R ] Buf.t)
let capacity node = Buf.length node.data
let refs node = Atomic_ctr.get node.refs

(* Checksum-sum memo.  A hit returns exactly the sum a scan of the
   bytes would; the codec tests check memoised sums against
   [Inet_cksum.sum_bytes] of the message's bytes.  Handing out the
   writable buffer is the write: it moves the generation first. *)
let write t node =
  node.gen <- node.gen + 1;
  if tracing t then trace_node t (Trace.Mnode_write { node = node.id });
  node.data

let cached_sum node ~off ~len =
  if node.sum_gen = node.gen && node.sum_off = off && node.sum_len = len then node.sum_val
  else -1

let cache_sum node ~off ~len v =
  node.sum_gen <- node.gen;
  node.sum_off <- off;
  node.sum_len <- len;
  node.sum_val <- v

(* Reset at quiescence: at a point where no simulated thread is running
   (between the warmup and measure phases, teardown) the caller lets the
   arena drop surplus recycled buffers back to the GC, so one phase's
   allocation burst does not pin host memory for the rest of the run.
   Keeps up to 64 buffers per class. *)
let quiesce t =
  let retain = 64 in
  for cls = 0 to Array.length t.arena_free - 1 do
    if t.arena_free_n.(cls) > retain then begin
      let rec take n = function
        | b :: rest when n > 0 -> b :: take (n - 1) rest
        | _ -> []
      in
      t.arena_free.(cls) <- take retain t.arena_free.(cls);
      t.arena_free_n.(cls) <- retain
    end
  done

let arena_hwm t = t.arena_hwm
let arena_out t = t.arena_out

let pool_capacity t = t.capacity
let pressure_entries t = t.pressure_entries
let allocations t = t.allocations
let cache_hits t = t.cache_hits
let global_allocations t = t.global_allocations
let live_nodes t = t.live
let cache_table_growths t = t.cache_table_growths
let thread_caches t = Array.fold_left (fun n c -> if c == no_cache then n else n + 1) 0 t.caches
