type role = [ `Unfair | `Fifo ]
type t = { tag : string; label : string; role : role option; cfg : Config.t }

let scenario ?(side = Config.Recv) ?(tcp_locking = Pnp_proto.Tcp.One)
    ?(lock_disc = Pnp_engine.Lock.Unfair) ?(ticketing = false) ?(loss_rate = 0.0)
    ?(map_locking = true) ?steering ?(demux_shards = 1) ?(connections = 1) () =
  Config.v ~arch:Pnp_engine.Arch.challenge_100 ~procs:4 ~side ~protocol:Config.Tcp
    ~payload:4096 ~checksum:true ~lock_disc ~tcp_locking ~ticketing ~loss_rate ~map_locking
    ?steering ~demux_shards ~connections ~warmup:(Pnp_util.Units.ms 20.0)
    ~measure:(Pnp_util.Units.ms 80.0) ~seed:1 ()

let v ?role tag label cfg = { tag; label; role; cfg }

let all =
  [
    v "fig8-9" "tcp-recv locking=1 mutex" (scenario ());
    v "fig8-9" "tcp-send locking=1 mutex" (scenario ~side:Config.Send ());
    v "fig13" "tcp-recv locking=2 mutex" (scenario ~tcp_locking:Pnp_proto.Tcp.Two ());
    v "fig13" "tcp-recv locking=6 mutex" (scenario ~tcp_locking:Pnp_proto.Tcp.Six ());
    v "fig14" "tcp-send locking=2 mutex"
      (scenario ~side:Config.Send ~tcp_locking:Pnp_proto.Tcp.Two ());
    v "fig14" "tcp-send locking=6 mutex"
      (scenario ~side:Config.Send ~tcp_locking:Pnp_proto.Tcp.Six ());
    v ~role:`Unfair "fig10" "tcp-recv locking=1 mutex (order baseline)" (scenario ());
    v ~role:`Fifo "fig10" "tcp-recv locking=1 mcs"
      (scenario ~lock_disc:Pnp_engine.Lock.Fifo ());
    v "table1" "tcp-recv locking=1 mcs ticketing"
      (scenario ~lock_disc:Pnp_engine.Lock.Fifo ~ticketing:true ());
    (* The retransmission machinery holds locks on paths idle traffic
       never exercises; check them under forced loss too. *)
    v "faults" "tcp-send locking=1 mcs loss=2%"
      (scenario ~side:Config.Send ~lock_disc:Pnp_engine.Lock.Fifo ~loss_rate:0.02 ());
    v "faults" "tcp-send locking=6 mutex loss=2%"
      (scenario ~side:Config.Send ~tcp_locking:Pnp_proto.Tcp.Six ~loss_rate:0.02 ());
    (* The sharded demux under both steering policies, with map locking
       off: the per-thread one-behind caches must keep the unlocked
       lookup path free of unprotected shared accesses (the lockset
       checker watches every <map>#cache state). *)
    v "steering" "tcp-recv steer=hash shards=8 maplock=off"
      (scenario ~steering:Pnp_driver.Steer.Hash ~map_locking:false ~demux_shards:8
         ~connections:256 ());
    v "steering" "tcp-recv steer=last-sender shards=8 maplock=off"
      (scenario ~steering:Pnp_driver.Steer.Last_sender ~map_locking:false ~demux_shards:8
         ~connections:256 ());
    (* State-compute replication holds no connection lock at all: every
       apply-section access must be covered by the synthetic per-log
       lock (lockset) and the append->apply->apply channel (HB), so a
       clean run here is the checkers signing off on the discipline.
       The send side under loss drives retransmission through the
       deferred-charge output sections too. *)
    v "ext-scr" "tcp-recv locking=scr mutex" (scenario ~tcp_locking:Pnp_proto.Tcp.Scr ());
    v "ext-scr" "tcp-recv locking=scr mcs conns=2"
      (scenario ~tcp_locking:Pnp_proto.Tcp.Scr ~lock_disc:Pnp_engine.Lock.Fifo
         ~connections:2 ());
    v "ext-scr" "tcp-send locking=scr mutex loss=2%"
      (scenario ~side:Config.Send ~tcp_locking:Pnp_proto.Tcp.Scr ~loss_rate:0.02 ());
    v "ext-scr" "tcp-recv locking=rcu mutex" (scenario ~tcp_locking:Pnp_proto.Tcp.Rcu ());
  ]
