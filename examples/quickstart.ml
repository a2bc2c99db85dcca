(* Quickstart: bring up a parallel TCP/IP stack on a simulated 4-CPU
   Challenge, connect over the in-memory driver, move some data from four
   processors at once, and look at the statistics.

   Run with: dune exec examples/quickstart.exe *)

open Pnp_engine
open Pnp_xkern
open Pnp_proto
open Pnp_driver

let () =
  (* A simulated 100 MHz SGI Challenge with the paper's baseline toggles:
     IRIX-style (unfair) mutexes, LL/SC reference counts, per-thread
     message caching. *)
  let plat = Platform.create ~seed:42 Arch.challenge_100 in

  (* FDDI / IP / UDP / TCP, and the simulated TCP receiver below FDDI that
     consumes segments and acknowledges every other one. *)
  let stack = Stack.create plat ~local_addr:0x0a000001 () in
  let peer = Tcp_peer.attach stack ~peer_addr:0x0a000002 ~checksum:true () in

  (* One thread wired per processor, all sending on a single connection —
     the paper's packet-level parallelism. *)
  let session = ref None in
  ignore
    (Sim.spawn plat.Platform.sim ~cpu:0 ~name:"connect" (fun () ->
         session :=
           Some
             (Tcp.connect stack.Stack.tcp ~local_port:5000 ~remote_addr:0x0a000002
                ~remote_port:80)));
  for cpu = 0 to 3 do
    ignore
      (Sim.spawn plat.Platform.sim ~cpu ~name:(Printf.sprintf "sender-%d" cpu) (fun () ->
           while !session = None do
             Sim.delay plat.Platform.sim (Pnp_util.Units.us 10.0)
           done;
           let sess = Option.get !session in
           for i = 0 to 99 do
             let msg = Msg.create stack.Stack.pool 4096 in
             Msg.fill_pattern msg ~off:0 ~len:4096 ~stream_off:(i * 4096);
             Tcp.send sess msg
           done))
  done;

  (* Run one simulated second. *)
  Sim.run ~until:(Pnp_util.Units.sec 1.0) plat.Platform.sim;

  let sess = Option.get !session in
  let st = Tcp.stats sess in
  Printf.printf "connection state:     %s\n" (Tcp.state_name sess);
  Printf.printf "bytes sent:           %d (400 packets x 4096B from 4 CPUs)\n"
    st.Tcp.bytes_out;
  Printf.printf "bytes at the driver:  %d\n" (Tcp_peer.bytes_received peer);
  Printf.printf "data segments:        %d\n" (Tcp_peer.data_segments peer);
  Printf.printf "acks received:        %d (every other packet)\n" st.Tcp.acks_in;
  Printf.printf "retransmissions:      %d (error-free network)\n" st.Tcp.rexmits;
  Printf.printf "wire misordering:     %d segments\n" (Tcp_peer.wire_misorders peer);
  Printf.printf "time on lock waits:   %.1f us across senders\n"
    (float_of_int (Tcp.lock_wait_ns sess) /. 1e3);
  Printf.printf "simulated time used:  %.3f ms\n"
    (float_of_int (Sim.now plat.Platform.sim) /. 1e6)
