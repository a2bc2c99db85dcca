(* Two complete hosts over a simulated wire: no simulated peer here —
   both ends run the full FDDI/IP/TCP machinery, the link adds latency
   and finite bandwidth, and the blocking socket API drives it like an
   ordinary network program.  A sniffer prints what actually crossed.

   Run with: dune exec examples/two_hosts.exe *)

open Pnp_engine
open Pnp_util
open Pnp_proto
open Pnp_driver

let addr_a = 0x0a000001 (* 10.0.0.1, the client *)
let addr_b = 0x0a000002 (* 10.0.0.2, the echo server *)

let () =
  let plat = Platform.create ~seed:9 Arch.challenge_100 in
  let a = Stack.create plat ~local_addr:addr_a () in
  let b = Stack.create plat ~local_addr:addr_b () in
  let sniffer = Sniffer.attach a in
  let link =
    Link.connect plat ~latency:(Units.us 200.0) ~bandwidth_mbps:100.0
      ~plan:(Pnp_faults.Faults.bernoulli 0.02) ~a ~b ()
  in

  (* Host B: an echo server. *)
  ignore
    (Sim.spawn plat.Platform.sim ~cpu:0 ~name:"echo-server" (fun () ->
         let lst = Socket.Listener.listen plat b.Stack.pool b.Stack.tcp ~port:7 in
         let sock = Socket.Listener.accept lst in
         let rec loop () =
           match Socket.recv_string sock with
           | Some s ->
             Socket.send_string sock (String.uppercase_ascii s);
             loop ()
           | None -> Socket.close sock
         in
         loop ()));

  (* Host A: the client. *)
  let replies = ref [] in
  ignore
    (Sim.spawn plat.Platform.sim ~cpu:1 ~name:"client" (fun () ->
         Sim.delay plat.Platform.sim (Units.ms 1.0);
         let sock =
           Socket.connect plat a.Stack.pool a.Stack.tcp ~local_port:5000
             ~remote_addr:addr_b ~remote_port:7
         in
         List.iter
           (fun line ->
             Socket.send_string sock line;
             match Socket.recv_string sock with
             | Some reply -> replies := reply :: !replies
             | None -> ())
           [ "hello, network"; "packets cross a real wire"; "with 2% loss" ];
         Socket.close sock));

  (* And a ping, for the road. *)
  let rtts = ref [] in
  ignore
    (Sim.spawn plat.Platform.sim ~cpu:2 ~name:"pinger" (fun () ->
         Sim.delay plat.Platform.sim (Units.ms 30.0);
         for seq = 1 to 3 do
           Icmp.ping a.Stack.icmp ~dst:addr_b ~ident:77 ~seq
             ~on_reply:(fun ~rtt_ns -> rtts := rtt_ns :: !rtts)
             ();
           Sim.delay plat.Platform.sim (Units.ms 5.0)
         done));

  Sim.run ~until:(Units.sec 60.0) plat.Platform.sim;

  Printf.printf "ping 10.0.0.2: %d/3 replies, rtts = %s\n"
    (List.length !rtts)
    (String.concat ", "
       (List.rev_map (fun ns -> Printf.sprintf "%.0fus" (float_of_int ns /. 1e3)) !rtts));
  Printf.printf "\necho replies received by the client:\n";
  List.iter (fun r -> Printf.printf "  %S\n" r) (List.rev !replies);
  Printf.printf "\nlink: %d frames ->, %d frames <-, %d dropped by the 2%% loss\n"
    (Link.frames_ab link) (Link.frames_ba link) (Link.dropped link);
  Printf.printf "\nfirst frames on host A's wire:\n";
  List.iteri
    (fun i e -> if i < 10 then Format.printf "%a@." Sniffer.pp_entry e)
    (Sniffer.entries sniffer)
