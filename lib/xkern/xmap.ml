open Pnp_engine

module type KEY = sig
  type t

  val hash : t -> int
  val equal : t -> t -> bool
end

(* Instruction budgets for the simulated cost of a map operation.  These
   are 1994 path lengths: hashing, key comparison and chain chasing on a
   machine where most of it misses the cache — large enough that locking
   the maps on the demultiplexing path costs measurable throughput
   (Section 3.1 reports ~10%% at 8 CPUs). *)
let cache_probe_instrs = 45
let hash_instrs = 70
let link_instrs = 25 (* per chain element examined *)

(* Each shard starts with the paper's 32 buckets: a power of two, so the
   bucket index is a mask, not a division, on the per-packet demux
   path. *)
let initial_buckets = 32

(* A shard doubles its bucket array when its population exceeds this many
   bindings per bucket, keeping mean chain length bounded as the map
   grows into the 10^5..10^6 range. *)
let grow_load = 2

module Make (K : KEY) = struct
  type 'v shard = {
    sname : string; (* lock name; also namespaces Trace.Access state *)
    mutable cache_state : string; (* [sname ^ "#cache"] once traced, else "" *)
    lock : Lock.t;
    mutable buckets : (K.t * 'v) list array;
    mutable one_behind : (K.t * 'v) option;
    mutable size : int;
    mutable cache_hits : int;
    mutable resizes : int;
  }

  (* One thread's private 1-behind cache and counters, used only on the
     unlocked lookup path (map_locking = false).  Keeping them per thread
     is what makes the unlocked path write-free on shared state: the old
     implementation mutated the shared cache and counters from an
     intentionally lock-free read, a write/write race the lockset checker
     (rightly) flags. *)
  type 'v tslot = { mutable t_behind : (K.t * 'v) option; mutable t_hits : int }

  type 'v t = {
    plat : Platform.t;
    mask : int; (* shard count - 1; shard count is a power of two *)
    shift : int; (* log2 shard count; bucket index uses the high bits *)
    shards : 'v shard array;
    mutable tslots : 'v tslot array; (* tid-indexed; unlocked path only *)
    unused : 'v tslot; (* the slot of a tid that has not looked up; never written *)
    hslot : 'v tslot; (* host-context (outside any sim thread) slot *)
  }

  let fresh_slot () = { t_behind = None; t_hits = 0 }

  let create plat ?(shards = 1) ~name () =
    if shards <= 0 then invalid_arg "Xmap.create: shards must be positive";
    let rec pow2 n = if n >= shards then n else pow2 (2 * n) in
    let nshards = pow2 1 in
    let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
    let shard i =
      (* A single-shard map keeps the bare name so existing lock tables
         and traces are unchanged. *)
      let sname = if nshards = 1 then name else Printf.sprintf "%s.s%d" name i in
      {
        sname;
        cache_state = "";
        (* Map-manager locks stay raw mutexes, even in the paper's MCS
           experiments (Section 4.1). *)
        lock = Lock.create plat.Platform.sim plat.Platform.arch Lock.Unfair ~name:sname;
        buckets = Array.make initial_buckets [];
        one_behind = None;
        size = 0;
        cache_hits = 0;
        resizes = 0;
      }
    in
    {
      plat;
      mask = nshards - 1;
      shift = log2 nshards;
      shards = Array.init nshards shard;
      tslots = [||];
      unused = fresh_slot ();
      hslot = fresh_slot ();
    }

  let hashv k = K.hash k land max_int
  let shard_of t h = t.shards.(h land t.mask)
  let bindex t sh h = (h lsr t.shift) land (Array.length sh.buckets - 1)

  (* Shared-state access annotation for the lockset checker; guarded on
     the tracer so the disabled path costs one field read.  The state
     name is built on the shard's first traced access and shared by the
     rest. *)
  let access t sh ~write =
    let sim = t.plat.Platform.sim in
    if Trace.enabled (Sim.tracer sim) then begin
      if sh.cache_state = "" then sh.cache_state <- sh.sname ^ "#cache";
      Sim.trace sim (Trace.Access { state = sh.cache_state; write })
    end

  (* A thread's slot is made on its first unlocked lookup: threads that
     never look up cost none. *)
  let grow_tslots t tid =
    let table = Array.make (max 16 (max (tid + 1) (2 * Array.length t.tslots))) t.unused in
    Array.blit t.tslots 0 table 0 (Array.length t.tslots);
    t.tslots <- table

  let tslot t =
    let sim = t.plat.Platform.sim in
    if Sim.in_thread sim then begin
      let tid = Sim.tid (Sim.self sim) in
      if tid >= Array.length t.tslots then grow_tslots t tid;
      if Array.unsafe_get t.tslots tid == t.unused then t.tslots.(tid) <- fresh_slot ();
      Array.unsafe_get t.tslots tid
    end
    else t.hslot

  (* Drop any per-thread cached binding for [k]; called (under the shard
     lock) whenever a binding is replaced or removed so no thread can
     keep serving a stale value.  The slots are host-side bookkeeping —
     scrubbing them carries no simulated cost, like the shared
     invalidation in [remove].  Only the unlocked lookup reads the
     slots, so with map locking on neither [insert] nor [remove] touches
     them. *)
  let scrub_tslots t k =
    let scrub s =
      match s.t_behind with
      | Some (k', _) when K.equal k k' -> s.t_behind <- None
      | _ -> ()
    in
    Array.iter scrub t.tslots;
    scrub t.hslot

  (* Single-pass chain surgery: walk once, report whether a binding for
     [k] was dropped.  When nothing matches the original list is returned
     untouched (no reallocation). *)
  let remove_binding k chain =
    let rec walk acc = function
      | [] -> (false, chain)
      | (k', _) :: rest when K.equal k k' -> (true, List.rev_append acc rest)
      | b :: rest -> walk (b :: acc) rest
    in
    walk [] chain

  (* Double a shard's bucket array, redistributing every binding.  Runs
     under the shard lock; charges one link traversal per rehashed
     binding, the simulated cost of walking the old chains. *)
  let grow_shard t sh =
    sh.resizes <- sh.resizes + 1;
    let old = sh.buckets in
    let nb = 2 * Array.length old in
    sh.buckets <- Array.make nb [];
    Array.iter
      (fun chain ->
        List.iter
          (fun ((k, _) as b) ->
            Platform.charge_instrs t.plat link_instrs;
            let i = (hashv k lsr t.shift) land (nb - 1) in
            sh.buckets.(i) <- b :: sh.buckets.(i))
          chain)
      old

  let insert t k v =
    let h = hashv k in
    let sh = shard_of t h in
    Lock.with_lock sh.lock (fun () ->
        Platform.charge_instrs t.plat hash_instrs;
        let i = bindex t sh h in
        let replaced, chain = remove_binding k sh.buckets.(i) in
        sh.buckets.(i) <- (k, v) :: chain;
        if not replaced then sh.size <- sh.size + 1;
        access t sh ~write:true;
        sh.one_behind <- Some (k, v);
        if not t.plat.Platform.map_locking then begin
          scrub_tslots t k;
          (tslot t).t_behind <- Some (k, v)
        end;
        if sh.size > grow_load * Array.length sh.buckets then grow_shard t sh)

  let chain_find t sh i k =
    let rec walk pos = function
      | [] ->
        Platform.charge_instrs t.plat (hash_instrs + (link_instrs * pos));
        None
      | (k', v) :: rest ->
        if K.equal k k' then begin
          Platform.charge_instrs t.plat (hash_instrs + (link_instrs * (pos + 1)));
          Some (k', v)
        end
        else walk (pos + 1) rest
    in
    walk 0 sh.buckets.(i)

  (* The locked lookup keeps the shared per-shard 1-behind cache and
     counters, all under the shard lock.  When the platform disables map
     locking (the Section 3.1 aside) the lookup runs lock-free and uses
     only its thread's private slot — the chain read itself is the
     intentionally unserialised demux read the experiment measures, but
     the bookkeeping no longer writes shared state from the unlocked
     path. *)
  let lookup t k =
    let h = hashv k in
    let sh = shard_of t h in
    if t.plat.Platform.map_locking then
      Lock.with_lock sh.lock (fun () ->
          Platform.charge_instrs t.plat cache_probe_instrs;
          access t sh ~write:false;
          match sh.one_behind with
          | Some (k', v) when K.equal k k' ->
            sh.cache_hits <- sh.cache_hits + 1;
            Some v
          | _ -> (
            match chain_find t sh (bindex t sh h) k with
            | Some ((_, v) as binding) ->
              access t sh ~write:true;
              sh.one_behind <- Some binding;
              Some v
            | None -> None))
    else begin
      let s = tslot t in
      Platform.charge_instrs t.plat cache_probe_instrs;
      match s.t_behind with
      | Some (k', v) when K.equal k k' ->
        s.t_hits <- s.t_hits + 1;
        Some v
      | _ -> (
        match chain_find t sh (bindex t sh h) k with
        | Some ((_, v) as binding) ->
          s.t_behind <- Some binding;
          Some v
        | None -> None)
    end

  let remove t k =
    let h = hashv k in
    let sh = shard_of t h in
    Lock.with_lock sh.lock (fun () ->
        Platform.charge_instrs t.plat hash_instrs;
        let i = bindex t sh h in
        let removed, chain = remove_binding k sh.buckets.(i) in
        if removed then begin
          sh.buckets.(i) <- chain;
          sh.size <- sh.size - 1;
          access t sh ~write:true;
          (match sh.one_behind with
          | Some (k', _) when K.equal k k' -> sh.one_behind <- None
          | _ -> ());
          if not t.plat.Platform.map_locking then scrub_tslots t k
        end;
        removed)

  let sum t f = Array.fold_left (fun acc sh -> acc + f sh) 0 t.shards

  let length t = sum t (fun sh -> sh.size)

  let cache_hits t =
    sum t (fun sh -> sh.cache_hits)
    + Array.fold_left (fun acc s -> acc + s.t_hits) 0 t.tslots
    + t.hslot.t_hits

  let bucket_count t = sum t (fun sh -> Array.length sh.buckets)
  let resizes t = sum t (fun sh -> sh.resizes)
end
