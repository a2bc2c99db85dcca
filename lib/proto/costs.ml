open Pnp_engine
open Pnp_xkern

let charge plat n = Platform.charge_instrs plat n

let fill_payload plat msg ~off ~len ~stream_off =
  Msg.fill_pattern msg ~off ~len ~stream_off;
  Membus.consume ~rate_mb_s:plat.Platform.arch.Arch.copy_mb_per_s plat.Platform.bus ~bytes:len

(* All counts are instructions at the architecture's CPI.  On the 100 MHz
   Challenge one instruction is 10 ns, so 1000 instructions = 10 us. *)

let app_send = 800
let app_recv = 1200
let driver_xmit = 1000
let driver_recv = 2000

let fddi_output = 1400
let fddi_input = 2200

let ip_output = 2000
let ip_input = 3200
let ip_frag_per_fragment = 1500
let ip_reass_per_fragment = 2200

let udp_output = 1800
let udp_input = 3600

let tcp_demux = 2400
let tcp_output_locked = 12000
let tcp_output_unlocked = 1500
let tcp_input_unlocked = 5600
let tcp_input_pred_locked = 4000
let tcp_input_slow_locked = 9000
let tcp_reass_insert = 4200
let tcp_reass_drain_per_seg = 1500
let tcp_ack_locked = 2800
let tcp_conn_setup = 6000

(* State-compute replication (SCR) and the read-mostly (RCU) hybrid.
   [scr_append] is the per-segment log-append tax (stamp + store, no
   lock); [scr_replay_per_entry] is the redundant-compute cost a replica
   pays to re-derive one logged entry's state delta locally — the price
   SCR trades for never serializing on the connection lock;
   [scr_resync] is the penalty for a replica that fell behind a log
   truncation and must resynchronise from the authoritative snapshot.
   [rcu_read] covers the snapshot load + no-op classification a lock-free
   reader performs before deciding it can skip the writer lock, and
   [rcu_publish] the snapshot copy + pointer swap the writer pays at each
   release to keep readers current. *)
let scr_append = 180
let scr_replay_per_entry = 700
let scr_resync = 2500
let rcu_read = 600
let rcu_publish = 120
