(* Host-speed calibration.

   The benchmark runs on shared hosts whose speed swings by up to 1.8x
   within seconds as other tenants load the machine, so a raw host time
   says as much about the neighbours as about the code.  [kernel] is a
   fixed piece of work: a 16-bit ones'-complement sum over a 4 KB
   buffer, byte by byte, the integer work on cache-resident data that
   also dominates the simulator's per-packet path.  It uses no
   repository library, so its time measures the host's speed and
   nothing else.  The benchmark times it right before every cell and
   after the last, and scales the cells' host time by [reference_s]
   over the kernel's mean time, which puts every timing on the scale of
   one quiet host.  Of the kernels tried, this one tracked the
   workloads' slowdowns most closely (README.md). *)

let buf = Bytes.init 4096 (fun i -> Char.chr ((i * 7) land 255))

let kernel () =
  let acc = ref 0 in
  for _ = 1 to 300 do
    for i = 0 to 2047 do
      acc :=
        !acc
        + (Char.code (Bytes.unsafe_get buf (2 * i)) lsl 8)
        + Char.code (Bytes.unsafe_get buf ((2 * i) + 1))
    done;
    acc := (!acc land 0xffff) + (!acc lsr 16)
  done;
  !acc

(* The kernel's time on a quiet 2-vCPU Intel Xeon virtual machine, the
   host the benchmark was tuned on: the fastest of 2000 calls (0.77 ms),
   rounded. *)
let reference_s = 0.0008

let time () =
  let t0 = Stat.now () in
  ignore (Sys.opaque_identity (kernel ()));
  Stat.now () -. t0
