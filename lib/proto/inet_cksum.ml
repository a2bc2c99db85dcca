open Pnp_engine
open Pnp_util
open Pnp_xkern

let fold s =
  let s = (s land 0xffff) + (s lsr 16) in
  (s land 0xffff) + (s lsr 16)

let add a b = fold (a + b)

let sum_bytes_bytewise b off len =
  let s = ref 0 in
  let i = ref off in
  let stop = off + len - 1 in
  while !i < stop do
    s := !s + (Char.code (Bytes.unsafe_get b !i) lsl 8) + Char.code (Bytes.unsafe_get b (!i + 1));
    i := !i + 2
  done;
  if !i = stop then s := !s + (Char.code (Bytes.unsafe_get b !i) lsl 8);
  fold !s

(* Reduce an arbitrary non-negative partial sum to 16 bits with
   end-around carries (the two-round [fold] only handles 32-bit
   inputs). *)
let fold_carries s =
  let s = ref s in
  while !s > 0xffff do
    s := (!s land 0xffff) + (!s lsr 16)
  done;
  !s

let swap16 s = ((s land 0xff) lsl 8) lor (s lsr 8)

(* Word-at-a-time sum: 8 bytes per iteration.  Because 2^16 = 1
   (mod 2^16 - 1), a 64-bit word is congruent to the sum of its four
   16-bit lanes, so we accumulate whole words (as two 32-bit halves to
   stay inside the 63-bit native int) and fold once at the end.  On a
   little-endian host the lanes are the byte-swapped network-order
   words; the RFC 1071 byte-order-independence property says the one's-
   complement sum of swapped words is the swap of the sum, so a single
   [swap16] of the folded head corrects the whole prefix.  The <8-byte
   tail (whose first byte is always at even parity, since the head
   consumes multiples of 8) uses the byte-wise scheme. *)
let sum b off len =
  if len <= 0 then 0
  else begin
    let stop = off + len in
    let s = ref 0 in
    let i = ref off in
    let last8 = stop - 8 in
    if !i <= last8 then begin
      let acc = ref 0 in
      while !i <= last8 do
        let w = Buf.get_int64_ne b !i in
        acc :=
          !acc
          + Int64.to_int (Int64.shift_right_logical w 32)
          + (Int64.to_int w land 0xffff_ffff);
        i := !i + 8
      done;
      let folded = fold_carries !acc in
      s := if Sys.big_endian then folded else swap16 folded
    end;
    let stop1 = stop - 1 in
    while !i < stop1 do
      s :=
        !s
        + (Char.code (Buf.unsafe_get b !i) lsl 8)
        + Char.code (Buf.unsafe_get b (!i + 1));
      i := !i + 2
    done;
    if !i = stop1 then s := !s + (Char.code (Buf.unsafe_get b !i) lsl 8);
    fold !s
  end

let sum_bytes b off len = sum (Buf.of_bytes b) off len

(* Summing a multi-slice message must respect byte positions: a slice of
   odd length shifts the parity of every following byte.  We track the
   parity of the global offset and add odd-positioned slices
   byte-swapped, the standard technique for scattered data.

   Each slice first consults the node's one-slot sum memo (Mpool): a
   payload node shared via [Msg.dup] — driver templates, the rexmt
   queue — is scanned once and then checksummed in O(1).  Misses (e.g.
   every freshly written header) compute and refill the slot.  The fold's
   accumulator packs the sum above the parity bit, so [sum_part] is
   closed and a checksum allocates nothing. *)
let sum_part acc node off len =
  let s =
    let c = Mpool.cached_sum node ~off ~len in
    if c >= 0 then c
    else begin
      let s = sum (Mpool.data node) off len in
      Mpool.cache_sum node ~off ~len s;
      s
    end
  in
  let parity = acc land 1 in
  let s = if parity = 0 then s else swap16 s in
  (add (acc lsr 1) s lsl 1) lor ((parity + len) land 1)

let sum_slices msg = Msg.fold_parts msg sum_part 0 lsr 1

let finish s = lnot (fold s) land 0xffff

let pseudo_sum ~proto ~src ~dst ~len =
  let s = add (src lsr 16) (src land 0xffff) in
  let s = add s (dst lsr 16) in
  let s = add s (dst land 0xffff) in
  let s = add s proto in
  add s len

let charge plat msg = Membus.consume plat.Platform.bus ~bytes:(Msg.length msg)

let compute plat msg ~extra =
  charge plat msg;
  finish (add (sum_slices msg) extra)

let verify plat msg ~extra =
  charge plat msg;
  fold (add (sum_slices msg) extra) = 0xffff
