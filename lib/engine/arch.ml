type sync_style = Coherency | Sync_bus

type t = {
  name : string;
  cpus : int;
  clock_mhz : float;
  cpi : float;
  mem_ns_per_byte : float;
  cksum_mb_per_s : float;
  copy_mb_per_s : float;
  bus_mb_per_s : float;
  mutex_ns : int;
  mcs_ns : int;
  handoff_ns : int;
  coherency_ns : int;
  atomic_ns : int;
  sync : sync_style;
}

(* Calibration notes:
   - mutex/mcs costs are the paper's own measurements (0.7 us / 1.5 us).
   - cksum_mb_per_s = 32 on the Challenge is measured in Section 3.2.
   - cpi here is an *effective* cycles-per-instruction along the protocol
     path, with memory stalls folded in: Section 7 observes that the
     100 MHz Challenge is only 25-50% faster than the 33 MHz Power Series
     at one CPU despite a 3x clock, because protocol processing is
     memory-bound.  The calibration anchors the Challenge-100 at
     10 ns/instruction and gives the Power Series ~15 ns and the
     Challenge-150 ~9.2 ns of effective path time per instruction.
   - coherency_ns on the Challenge models the cache-line migration a lock
     handoff costs under LL/SC synchronisation; the Power Series
     synchronisation bus makes it zero, which is what removes the 2-CPU
     receive-side dip there. *)

let challenge_100 =
  {
    name = "challenge-100";
    cpus = 8;
    clock_mhz = 100.0;
    cpi = 1.0;
    mem_ns_per_byte = 35.0;
    cksum_mb_per_s = 32.0;
    copy_mb_per_s = 55.0;
    bus_mb_per_s = 1200.0;
    mutex_ns = 700;
    mcs_ns = 1500;
    handoff_ns = 500;
    coherency_ns = 1300;
    atomic_ns = 150;
    sync = Coherency;
  }

let challenge_150 =
  {
    challenge_100 with
    name = "challenge-150";
    cpus = 4;
    clock_mhz = 150.0;
    cpi = 1.38;
    mem_ns_per_byte = 32.0;
    cksum_mb_per_s = 38.0;
    copy_mb_per_s = 62.0;
    mutex_ns = 600;
    mcs_ns = 1300;
    handoff_ns = 450;
    coherency_ns = 1200;
    atomic_ns = 120;
  }

let power_series_33 =
  {
    name = "power-33";
    cpus = 4;
    clock_mhz = 33.0;
    cpi = 0.5;
    mem_ns_per_byte = 52.0;
    cksum_mb_per_s = 20.0;
    copy_mb_per_s = 36.0;
    bus_mb_per_s = 256.0;
    mutex_ns = 1600;
    mcs_ns = 3400;
    handoff_ns = 900;
    coherency_ns = 0;
    atomic_ns = 500;
    sync = Sync_bus;
  }

let all = [ challenge_100; challenge_150; power_series_33 ]

let instr_ns arch n =
  int_of_float ((float_of_int n *. arch.cpi *. 1000.0 /. arch.clock_mhz) +. 0.5)

let touch_ns arch bytes = int_of_float ((float_of_int bytes *. arch.mem_ns_per_byte) +. 0.5)
