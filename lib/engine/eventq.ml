(* 4-ary min-heap keyed by (time, seq), stored as a structure of arrays.

   The simulator pops one event per simulated action, so this is the
   hottest data structure in the system.  Two layout decisions follow
   from that:

   - Structure of arrays, not an array of entry records: [times] and
     [seqs] are unboxed [int array]s, so [add]/[pop_exn] never allocate
     a per-event box (the old record layout cost a 4-word entry per
     event) and the sift loops walk flat integer arrays.
   - 4-ary rather than binary: the heap is shallower (log4 vs log2), and
     the four children of a node are adjacent, so a sift-down level is
     one cache line of keys instead of two scattered ones.

   The sequence number makes the ordering total, so ties resolve in
   insertion order — the determinism guarantee every run rides on. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { times = [||]; seqs = [||]; payloads = [||]; len = 0; next_seq = 0 }

(* Double capacity, seeding fresh payload slots with [dummy] (an 'a we
   already hold; unused slots are never read). *)
let grow t dummy =
  let cap = max 16 (2 * Array.length t.times) in
  let times = Array.make cap 0 and seqs = Array.make cap 0 in
  let payloads = Array.make cap dummy in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.payloads 0 payloads 0 t.len;
  t.times <- times;
  t.seqs <- seqs;
  t.payloads <- payloads

(* Insert at a given (time, seq) key: [add] takes the next seq; a
   waiting thread that reserved one earlier ([reserve]) passes it back. *)
let[@inline] insert t ~time ~seq payload =
  if t.len = Array.length t.times then grow t payload;
  let times = t.times and seqs = t.seqs and payloads = t.payloads in
  (* Sift up with a hole: shift parents down and write the new event
     once at its final slot. *)
  let i = ref t.len in
  t.len <- t.len + 1;
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let p = (!i - 1) / 4 in
    if times.(p) > time || (times.(p) = time && seqs.(p) > seq) then begin
      times.(!i) <- times.(p);
      seqs.(!i) <- seqs.(p);
      payloads.(!i) <- payloads.(p);
      i := p
    end
    else continue_ := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  payloads.(!i) <- payload

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
  let times = t.times and seqs = t.seqs and payloads = t.payloads in
  let res = payloads.(0) in
  let n = n - 1 in
  t.len <- n;
  if n > 0 then begin
    (* Re-insert the last element from the root, sifting its hole down
       toward the smaller of each node's (up to) four children. *)
    let xt = times.(n) and xs = seqs.(n) in
    let xp = payloads.(n) in
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let base = (4 * !i) + 1 in
      if base >= n then continue_ := false
      else begin
        let m = ref base in
        let last = min (base + 3) (n - 1) in
        for c = base + 1 to last do
          if
            times.(c) < times.(!m)
            || (times.(c) = times.(!m) && seqs.(c) < seqs.(!m))
          then m := c
        done;
        let c = !m in
        if times.(c) < xt || (times.(c) = xt && seqs.(c) < xs) then begin
          times.(!i) <- times.(c);
          seqs.(!i) <- seqs.(c);
          payloads.(!i) <- payloads.(c);
          i := c
        end
        else continue_ := false
      end
    done;
    times.(!i) <- xt;
    seqs.(!i) <- xs;
    payloads.(!i) <- xp
  end;
  res

let peek_time_exn t =
  if t.len = 0 then raise Empty;
  t.times.(0)

let size t = t.len
let is_empty t = t.len = 0
