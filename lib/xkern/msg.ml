module Buf = Pnp_util.Buf

type part = { mutable node : Mpool.mnode; mutable off : int; mutable len : int }

type t = { pool : Mpool.t; mutable parts : part list; mutable total : int }

let create pool n =
  if n < 0 then invalid_arg "Msg.create: negative length";
  if n = 0 then { pool; parts = []; total = 0 }
  else
    let node = Mpool.alloc pool n in
    { pool; parts = [ { node; off = 0; len = n } ]; total = n }

let length t = t.total

let of_string pool s =
  let t = create pool (String.length s) in
  (match t.parts with
   | [ p ] -> Buf.blit_string s 0 (Mpool.write pool p.node) p.off (String.length s)
   | _ -> assert (String.length s = 0));
  t

let push t n =
  if n < 0 then invalid_arg "Msg.push: negative length";
  if n > 0 then begin
    let node = Mpool.alloc t.pool n in
    t.parts <- { node; off = 0; len = n } :: t.parts;
    t.total <- t.total + n
  end

(* The one header write: a fresh node starts at offset 0, so the caller
   fills [0, n) of the returned buffer, and the whole header costs one
   [Mpool.write] (one [Mnode_write] when traced) instead of one per
   field. *)
let push_header t n =
  push t n;
  match t.parts with
  | p :: _ when n > 0 -> Mpool.write t.pool p.node
  | _ -> Buf.empty

(* Single-part messages dominate the hot paths (a header node pushed on a
   payload node is consumed part by part), so [truncate] special-cases
   one-part messages: adjust the part in place, no list rebuilt. *)

(* Top level, so a pop allocates no closure: every received frame pops
   its link header this way. *)
let rec strip pool n parts =
  if n = 0 then parts
  else
    match parts with
    | [] -> assert false
    | p :: rest ->
      if p.len <= n then begin
        Mpool.decref pool p.node;
        strip pool (n - p.len) rest
      end
      else begin
        p.off <- p.off + n;
        p.len <- p.len - n;
        parts
      end

let pop t n =
  if n < 0 || n > t.total then invalid_arg "Msg.pop: bad length";
  t.parts <- strip t.pool n t.parts;
  t.total <- t.total - n

let truncate_slow t n =
  let rec keep n parts =
    if n = 0 then begin
      List.iter (fun p -> Mpool.decref t.pool p.node) parts;
      []
    end
    else
      match parts with
      | [] -> assert false
      | p :: rest ->
        if p.len <= n then p :: keep (n - p.len) rest
        else begin
          p.len <- n;
          p :: keep 0 rest
        end
  in
  t.parts <- keep n t.parts;
  t.total <- n

let truncate t n =
  if n < 0 || n > t.total then invalid_arg "Msg.truncate: bad length";
  match t.parts with
  | [ p ] when n > 0 ->
    p.len <- n;
    t.total <- n
  | _ -> truncate_slow t n

let dup t =
  let parts =
    List.map
      (fun p ->
        Mpool.incref t.pool p.node;
        { node = p.node; off = p.off; len = p.len })
      t.parts
  in
  { pool = t.pool; parts; total = t.total }

let append t u =
  if t == u then invalid_arg "Msg.append: cannot append a message to itself";
  t.parts <- t.parts @ u.parts;
  t.total <- t.total + u.total;
  u.parts <- [];
  u.total <- 0

let destroy t =
  List.iter (fun p -> Mpool.decref t.pool p.node) t.parts;
  t.parts <- [];
  t.total <- 0

let unshare t ~off =
  if off < 0 || off >= t.total then invalid_arg "Msg.unshare: out of bounds";
  let rec find parts off =
    match parts with
    | [] -> assert false
    | p :: rest -> if off < p.len then p else find rest (off - p.len)
  in
  let p = find t.parts off in
  if Mpool.refs p.node > 1 then begin
    let fresh = Mpool.alloc t.pool p.len in
    Buf.blit (Mpool.data p.node) p.off (Mpool.write t.pool fresh) 0 p.len;
    (* The copy is byte-identical, so the source's cached checksum sum —
       when it covers exactly the copied view — carries over. *)
    let s = Mpool.cached_sum p.node ~off:p.off ~len:p.len in
    if s >= 0 then Mpool.cache_sum fresh ~off:0 ~len:p.len s;
    Mpool.decref t.pool p.node;
    p.node <- fresh;
    p.off <- 0
  end

(* Byte access: one top-level walk per width, so an access allocates
   nothing.  Each walks to the part holding message byte [i]; a range
   that straddles two parts splits into two narrower accesses (walked
   again from the same part).  A store goes through [Mpool.write], one
   per node it touches. *)
let rec get8 parts i =
  match parts with
  | [] -> assert false
  | p :: rest ->
    if i < p.len then Buf.get_uint8 (Mpool.data p.node) (p.off + i)
    else get8 rest (i - p.len)

let rec set8 pool parts i v =
  match parts with
  | [] -> assert false
  | p :: rest ->
    if i < p.len then Buf.set_uint8 (Mpool.write pool p.node) (p.off + i) (v land 0xff)
    else set8 pool rest (i - p.len) v

let rec get16 parts i =
  match parts with
  | [] -> assert false
  | p :: rest ->
    if i >= p.len then get16 rest (i - p.len)
    else if i + 2 <= p.len then Buf.get_uint16_be (Mpool.data p.node) (p.off + i)
    else (get8 parts i lsl 8) lor get8 parts (i + 1)

let rec set16 pool parts i v =
  match parts with
  | [] -> assert false
  | p :: rest ->
    if i >= p.len then set16 pool rest (i - p.len) v
    else if i + 2 <= p.len then
      Buf.set_uint16_be (Mpool.write pool p.node) (p.off + i) (v land 0xffff)
    else begin
      set8 pool parts i (v lsr 8);
      set8 pool parts (i + 1) v
    end

let rec get32 parts i =
  match parts with
  | [] -> assert false
  | p :: rest ->
    if i >= p.len then get32 rest (i - p.len)
    else if i + 4 <= p.len then begin
      let b = Mpool.data p.node and j = p.off + i in
      (Buf.get_uint16_be b j lsl 16) lor Buf.get_uint16_be b (j + 2)
    end
    else (get16 parts i lsl 16) lor get16 parts (i + 2)

let rec set32 pool parts i v =
  match parts with
  | [] -> assert false
  | p :: rest ->
    if i >= p.len then set32 pool rest (i - p.len) v
    else if i + 4 <= p.len then begin
      let b = Mpool.write pool p.node and j = p.off + i in
      Buf.set_uint16_be b j ((v lsr 16) land 0xffff);
      Buf.set_uint16_be b (j + 2) (v land 0xffff)
    end
    else begin
      set16 pool parts i (v lsr 16);
      set16 pool parts (i + 2) v
    end

let check_range t off n name =
  if off < 0 || off + n > t.total then invalid_arg ("Msg." ^ name ^ ": out of bounds")

let get_u8 t off =
  check_range t off 1 "get_u8";
  get8 t.parts off

let set_u8 t off v =
  check_range t off 1 "set_u8";
  set8 t.pool t.parts off v

let get_u16 t off =
  check_range t off 2 "get_u16";
  get16 t.parts off

let set_u16 t off v =
  check_range t off 2 "set_u16";
  set16 t.pool t.parts off v

let get_u32 t off =
  check_range t off 4 "get_u32";
  get32 t.parts off

let set_u32 t off v =
  check_range t off 4 "set_u32";
  set32 t.pool t.parts off v

let iter_slices t f =
  List.iter (fun p -> if p.len > 0 then f (Mpool.data p.node) p.off p.len) t.parts

(* Top level, so a fold whose step is a closed function allocates
   nothing. *)
let rec fold_part_list f acc = function
  | [] -> acc
  | p :: rest -> fold_part_list f (if p.len > 0 then f acc p.node p.off p.len else acc) rest

let fold_parts t f acc = fold_part_list f acc t.parts

let blit_to_bytes t buf ~pos =
  if pos < 0 || Buf.length buf - pos < t.total then
    invalid_arg "Msg.blit_to_bytes: buffer too small";
  let pos = ref pos in
  iter_slices t (fun b off len ->
      Buf.blit b off buf !pos len;
      pos := !pos + len)

let to_string t =
  let buf = Bytes.create t.total in
  blit_to_bytes t (Buf.of_bytes buf) ~pos:0;
  Bytes.unsafe_to_string buf

let pattern_byte stream_off i = (stream_off + i) mod 251

(* Apply [f node pos count done_so_far] to the byte ranges covering
   message offsets [off, off+len); [done_so_far] is the count of range
   bytes already visited.  Shared fast path for fill/check; the node is
   passed, not its bytes, so a writer takes them with [Mpool.write]. *)
let iter_range t ~off ~len f =
  if off < 0 || len < 0 || off + len > t.total then
    invalid_arg "Msg.iter_range: out of bounds";
  let skip = ref off and remaining = ref len and visited = ref 0 in
  fold_parts t (fun () node boff blen ->
      if !remaining > 0 then begin
        if !skip >= blen then skip := !skip - blen
        else begin
          let start = boff + !skip in
          let count = min (blen - !skip) !remaining in
          skip := 0;
          f node start count !visited;
          visited := !visited + count;
          remaining := !remaining - count
        end
      end)
    ()

(* Header reads.  A header normally sits inside one part (its own pushed
   node on send, the front of the frame's node on receive), so the view
   is that part's buffer: [view_buf] and [view_pos] walk to the part
   holding [off] (the front one, for every decoder) and return the buffer
   and the index without allocating.  A range that straddles parts reads
   from a copy at index 0, so callers carry no fallback of their own.
   Top-level recursions, not local closures, to keep the hit path free
   of allocation. *)
let check_view t ~off ~len =
  if off < 0 || len < 0 || off + len > t.total then
    invalid_arg "Msg.head_view: out of bounds"

let copy_range t ~off ~len =
  let buf = Buf.create len in
  iter_range t ~off ~len (fun node start count visited ->
      Buf.blit (Mpool.data node) start buf visited count);
  (buf :> [ `R ] Buf.t)

let rec view_buf t parts i ~off ~len =
  match parts with
  | [] -> (Buf.empty :> [ `R ] Buf.t)
  | p :: rest ->
    if i >= p.len then view_buf t rest (i - p.len) ~off ~len
    else if i + len <= p.len then Mpool.data p.node
    else copy_range t ~off ~len

let rec view_pos parts i ~len =
  match parts with
  | [] -> 0
  | p :: rest ->
    if i >= p.len then view_pos rest (i - p.len) ~len
    else if i + len <= p.len then p.off + i
    else 0

let head_view t ~off ~len =
  check_view t ~off ~len;
  view_buf t t.parts off ~off ~len

let head_pos t ~off ~len =
  check_view t ~off ~len;
  view_pos t.parts off ~len

(* The pattern is periodic (251), so a precomputed block turns fill into
   [Bytes.blit] and check into 8-bytes-at-a-time word compares instead
   of a mod per byte — the drivers pattern every payload they inject and
   verify, which made the byte loops one of the hottest host paths. *)
let pattern_period = 251
let pattern_block_len = 8192 (* > max mnode class (4608) + one period *)

let pattern_block =
  Buf.of_string (String.init pattern_block_len (fun k -> Char.chr (pattern_byte 0 k)))

(* Largest multiple of the period that still fits a window of the block:
   chunking by it keeps the phase unchanged across chunks. *)
let pattern_chunk =
  (pattern_block_len - pattern_period) / pattern_period * pattern_period

(* Fill-time checksum sums.  [pattern_prefix.(k)] is the plain integer
   sum of [pattern_block]'s first [k] bytes read as big-endian 16-bit
   words (even indices high, odd indices low), so a run [p, p+n) of the
   block sums to the difference of two entries, folded.  That sum is in
   the block's word alignment: the run's own when [p] is even, and the
   byte swap of the run's own when [p] is odd (RFC 1071: the one's-
   complement sum of swapped words is the swap of the sum).  Built once
   and never written, so every domain reads it without a lock. *)
let pattern_prefix =
  let a = Array.make (pattern_block_len + 1) 0 in
  for k = 0 to pattern_block_len - 1 do
    let b = Buf.get_uint8 pattern_block k in
    a.(k + 1) <- (a.(k) + if k land 1 = 0 then b lsl 8 else b)
  done;
  a

let rec fold16 s = if s > 0xffff then fold16 ((s land 0xffff) + (s lsr 16)) else s
let swap16 s = ((s land 0xff) lsl 8) lor (s lsr 8)

(* The sum [Inet_cksum.sum_bytes] gives for block bytes [phase, phase+n). *)
let pattern_sum phase n =
  let s = fold16 (pattern_prefix.(phase + n) - pattern_prefix.(phase)) in
  if phase land 1 = 0 then s else swap16 s

(* Each filled range also primes its node's sum memo, so the payload's
   first checksum is O(1) instead of a scan of the bytes just written.
   A chunk starting at an odd index of the range is swapped into the
   range's alignment before it is added. *)
let fill_pattern t ~off ~len ~stream_off =
  iter_range t ~off ~len (fun node start count visited ->
      let b = Mpool.write t.pool node in
      let phase = ref ((stream_off + visited) mod pattern_period) in
      let pos = ref start and left = ref count and sum = ref 0 in
      while !left > 0 do
        let n = min !left pattern_chunk in
        Buf.blit pattern_block !phase b !pos n;
        let s = pattern_sum !phase n in
        sum := !sum + (if (!pos - start) land 1 = 0 then s else swap16 s);
        phase := (!phase + n) mod pattern_period;
        pos := !pos + n;
        left := !left - n
      done;
      Mpool.cache_sum node ~off:start ~len:count (fold16 !sum))

let check_pattern t ~off ~len ~stream_off =
  let ok = ref true in
  iter_range t ~off ~len (fun node start count visited ->
      if !ok then begin
        let b = Mpool.data node in
        let phase = ref ((stream_off + visited) mod pattern_period) in
        let pos = ref start and left = ref count in
        while !ok && !left > 0 do
          let n = min !left pattern_chunk in
          let i = ref 0 in
          while !ok && !i + 8 <= n do
            if
              Buf.get_int64_ne b (!pos + !i)
              <> Buf.get_int64_ne pattern_block (!phase + !i)
            then ok := false
            else i := !i + 8
          done;
          while !ok && !i < n do
            if
              Buf.unsafe_get b (!pos + !i)
              <> Buf.unsafe_get pattern_block (!phase + !i)
            then ok := false
            else incr i
          done;
          phase := (!phase + n) mod pattern_period;
          pos := !pos + n;
          left := !left - n
        done
      end);
  !ok

let parts t = List.length t.parts
