type t = {
  sim : Sim.t;
  arch : Arch.t;
  bus : Membus.t;
  lock_disc : Lock.discipline;
  refcnt_mode : Atomic_ctr.mode;
  message_caching : bool;
  map_locking : bool;
  map_shards : int;
}

let create ?(seed = 42) ?(lock_disc = Lock.Unfair) ?(refcnt_mode = Atomic_ctr.Ll_sc)
    ?(message_caching = true) ?(map_locking = true) ?(map_shards = 1) arch =
  if map_shards <= 0 then invalid_arg "Platform.create: map_shards must be positive";
  let sim = Sim.create ~seed () in
  let bus = Membus.create sim arch in
  {
    sim;
    arch;
    bus;
    lock_disc;
    refcnt_mode;
    message_caching;
    map_locking;
    map_shards;
  }

let state_lock t ~name = Lock.create t.sim t.arch t.lock_disc ~name

let refcnt t ~name ~init = Atomic_ctr.create t.sim t.arch t.refcnt_mode ~name ~init

let charge t d = if Sim.in_thread t.sim && d > 0 then Sim.delay t.sim d

let charge_instrs t n = charge t (Arch.instr_ns t.arch n)
