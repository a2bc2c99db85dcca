open Pnp_engine
open Pnp_util

type side = Send | Recv
type protocol = Udp | Tcp
type placement = Connection_level | Packet_level

type t = {
  arch : Arch.t;
  procs : int;
  side : side;
  protocol : protocol;
  payload : int;
  checksum : bool;
  lock_disc : Lock.discipline;
  tcp_locking : Pnp_proto.Tcp.locking;
  scr_log_bound : int;
  assume_in_order : bool;
  ticketing : bool;
  refcnt_mode : Atomic_ctr.mode;
  message_caching : bool;
  map_locking : bool;
  connections : int;
  placement : placement;
  steering : Pnp_driver.Steer.policy option;
  demux_shards : int;
  skew : float;
  driver_jitter_ns : float;
  offered_mbps : float option;
  loss_rate : float;
  cksum_under_lock : bool;
  presentation : bool;
  warmup : Units.ns;
  measure : Units.ns;
  seed : int;
}

let baseline =
  {
    arch = Arch.challenge_100;
    procs = 1;
    side = Send;
    protocol = Tcp;
    payload = 4096;
    checksum = true;
    lock_disc = Lock.Unfair;
    tcp_locking = Pnp_proto.Tcp.One;
    scr_log_bound = 4096;
    assume_in_order = false;
    ticketing = false;
    refcnt_mode = Atomic_ctr.Ll_sc;
    message_caching = true;
    map_locking = true;
    connections = 1;
    placement = Packet_level;
    steering = None;
    demux_shards = 1;
    skew = 0.0;
    driver_jitter_ns = 8000.0;
    offered_mbps = None;
    loss_rate = 0.0;
    cksum_under_lock = false;
    presentation = false;
    warmup = Units.ms 200.0;
    measure = Units.sec 1.0;
    seed = 1;
  }

let v ?(arch = baseline.arch) ?(procs = baseline.procs) ?(side = baseline.side)
    ?(protocol = baseline.protocol) ?(payload = baseline.payload)
    ?(checksum = baseline.checksum) ?(lock_disc = baseline.lock_disc)
    ?(tcp_locking = baseline.tcp_locking)
    ?(scr_log_bound = baseline.scr_log_bound)
    ?(assume_in_order = baseline.assume_in_order) ?(ticketing = baseline.ticketing)
    ?(refcnt_mode = baseline.refcnt_mode) ?(message_caching = baseline.message_caching)
    ?(map_locking = baseline.map_locking) ?(connections = baseline.connections)
    ?(placement = baseline.placement) ?steering
    ?(demux_shards = baseline.demux_shards) ?(skew = baseline.skew)
    ?(driver_jitter_ns = baseline.driver_jitter_ns) ?offered_mbps
    ?(loss_rate = baseline.loss_rate)
    ?(cksum_under_lock = baseline.cksum_under_lock)
    ?(presentation = baseline.presentation)
    ?(warmup = baseline.warmup) ?(measure = baseline.measure) ?(seed = baseline.seed) () =
  {
    arch;
    procs;
    side;
    protocol;
    payload;
    checksum;
    lock_disc;
    tcp_locking;
    scr_log_bound;
    assume_in_order;
    ticketing;
    refcnt_mode;
    message_caching;
    map_locking;
    connections;
    placement;
    steering;
    demux_shards;
    skew;
    driver_jitter_ns;
    offered_mbps;
    loss_rate;
    cksum_under_lock;
    presentation;
    warmup;
    measure;
    seed;
  }

let side_to_string = function Send -> "send" | Recv -> "recv"
let protocol_to_string = function Udp -> "UDP" | Tcp -> "TCP"

let disc_label = function
  | Lock.Unfair -> "mutex"
  | Lock.Fifo -> "mcs"
  | Lock.Barging -> "barging"

let locking_label = function
  | Pnp_proto.Tcp.One -> "tcp1"
  | Pnp_proto.Tcp.Two -> "tcp2"
  | Pnp_proto.Tcp.Six -> "tcp6"
  | Pnp_proto.Tcp.Scr -> "scr"
  | Pnp_proto.Tcp.Rcu -> "rcu"

let describe t =
  Printf.sprintf "%s %s-side %dB cksum=%b procs=%d conns=%d locks=%s%s"
    (protocol_to_string t.protocol) (side_to_string t.side) t.payload t.checksum t.procs
    t.connections (disc_label t.lock_disc)
    (if t.loss_rate > 0.0 then Printf.sprintf " loss=%g%%" (t.loss_rate *. 100.0) else "")
