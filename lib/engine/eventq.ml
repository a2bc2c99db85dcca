(* 4-ary min-heap keyed by (time, seq), stored as a structure of arrays.

   The simulator pops one event per simulated action, so this is the
   hottest data structure in the system.  Three layout decisions follow
   from that:

   - Structure of arrays: [times], [seqs] and [slots] are unboxed
     [int array]s, so [add]/[pop_exn] allocate nothing per event.
   - Payloads do not move: the heap holds each entry's slot index into
     [payloads], so a sift level moves three integers and no pointer (no
     [caml_modify]).  Past [len], [slots] holds the free slots.  A pop
     clears its slot: the queue keeps no popped closure (or the fiber
     stack it holds) alive.
   - 4-ary rather than binary: the heap is shallower (log4 vs log2), and
     the four children of a node are adjacent, so a sift-down level is
     one cache line of keys instead of two scattered ones.

   [payloads] starts filled with an immediate, so it is never a flat
   float array and a slot can be cleared without an ['a] at hand;
   [pop_exn] reads a payload back at the type [add] stored it at.

   The sequence number makes the ordering total, so ties resolve in
   insertion order — the determinism guarantee every run rides on. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable payloads : Obj.t array;
  mutable len : int;
  mutable next_seq : int;
}

let empty = Obj.repr 0

(* Unchecked, for [insert] and [pop_exn]: their indices are below the capacity. *)
let[@inline] ( .!() ) (a : int array) i = Array.unsafe_get a i
let[@inline] ( .!()<- ) (a : int array) i (v : int) = Array.unsafe_set a i v

let create () =
  { times = [||]; seqs = [||]; slots = [||]; payloads = [||]; len = 0; next_seq = 0 }

(* Double capacity.  Only a full heap grows: the new slots are all free. *)
let grow t =
  let n = t.len in
  let cap = max 16 (2 * n) in
  let extend a fill = Array.append a (Array.make (cap - n) fill) in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.slots <- Array.init cap (fun i -> if i < n then t.slots.(i) else i);
  t.payloads <- extend t.payloads empty

(* Insert at a given (time, seq) key: [add] takes the next seq; a
   waiting thread that reserved one earlier ([reserve]) passes it back. *)
let[@inline] insert t ~time ~seq payload =
  let n = t.len in
  if n = Array.length t.times then grow t;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let slot = slots.!(n) in
  t.payloads.(slot) <- Obj.repr payload;
  t.len <- n + 1;
  (* Sift up with a hole: shift parents down and write the new entry
     once at its final position. *)
  let i = ref n in
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let p = (!i - 1) / 4 in
    let pt = times.!(p) in
    if pt > time || (pt = time && seqs.!(p) > seq) then begin
      times.!(!i) <- pt;
      seqs.!(!i) <- seqs.!(p);
      slots.!(!i) <- slots.!(p);
      i := p
    end
    else continue_ := false
  done;
  times.!(!i) <- time;
  seqs.!(!i) <- seq;
  slots.!(!i) <- slot

let add t ~time payload =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  insert t ~time ~seq payload

let reserve t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let add_reserved t ~time ~seq payload =
  if seq >= t.next_seq then invalid_arg "Eventq.add_reserved: seq was not reserved";
  insert t ~time ~seq payload

let[@inline] head_before t ~time ~seq =
  t.len > 0
  && (let ht = t.times.(0) in
      ht < time || (ht = time && t.seqs.(0) < seq))

exception Empty

let pop_exn t =
  let n = t.len in
  if n = 0 then raise Empty;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let slot = slots.!(0) in
  let res = t.payloads.(slot) in
  t.payloads.(slot) <- empty;
  let n = n - 1 in
  t.len <- n;
  if n > 0 then begin
    (* Re-insert the last entry from the root, sifting its hole down
       toward the smallest of each node's (up to) four children. *)
    let xt = times.!(n) and xs = seqs.!(n) and xslot = slots.!(n) in
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let base = (4 * !i) + 1 in
      if base >= n then continue_ := false
      else begin
        let m = ref base in
        let last = if base + 3 < n then base + 3 else n - 1 in
        for c = base + 1 to last do
          let ct = times.!(c) and mt = times.!(!m) in
          if ct < mt || (ct = mt && seqs.!(c) < seqs.!(!m)) then m := c
        done;
        let c = !m in
        let ct = times.!(c) in
        if ct < xt || (ct = xt && seqs.!(c) < xs) then begin
          times.!(!i) <- ct;
          seqs.!(!i) <- seqs.!(c);
          slots.!(!i) <- slots.!(c);
          i := c
        end
        else continue_ := false
      end
    done;
    times.!(!i) <- xt;
    seqs.!(!i) <- xs;
    slots.!(!i) <- xslot
  end;
  slots.!(n) <- slot;
  Obj.obj res

let peek_time_exn t =
  if t.len = 0 then raise Empty;
  t.times.(0)

let size t = t.len
let is_empty t = t.len = 0
