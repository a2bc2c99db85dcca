type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let s = bits64 t in
  { state = s }

(* Non-negative 62-bit int from the top bits, avoiding sign issues. *)
let positive_int t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

(* Rejection sampling over the 62-bit draw: a plain [mod] favours small
   residues whenever bound does not divide 2^62.  Reject draws from the
   final partial interval instead; at most one extra draw is needed on
   average even for the worst-case bound. *)
let max62 = (1 lsl 61) - 1 + (1 lsl 61) (* 2^62 - 1 without overflowing *)

let int t bound =
  assert (bound > 0);
  let r = ((max62 mod bound) + 1) mod bound in
  (* Largest multiple of bound in [0, 2^62) is max62 - r + 1; draws at or
     above it are biased and rejected. *)
  let threshold = max62 - r in
  let rec go () =
    let x = positive_int t in
    if x > threshold then go () else x mod bound
  in
  go ()

let float t bound =
  let f = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  (* 53 significant bits, scaled to [0,1). *)
  f *. (1.0 /. 9007199254740992.0) *. bound

let exponential t ~mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
