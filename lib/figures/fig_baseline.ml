open Pnp_harness

let variants =
  [
    ("4KB ck-off", 4096, false);
    ("4KB ck-on", 4096, true);
    ("1KB ck-off", 1024, false);
    ("1KB ck-on", 1024, true);
  ]

(* The four packet-size x checksum series of one baseline figure. *)
let series opts ~protocol ~side =
  List.map
    (fun (label, payload, checksum) ->
      Report.throughput_series ~label ~procs:(Opts.procs opts) ~seeds:opts.Opts.seeds
        (fun procs ->
          Opts.apply opts (Config.v ~protocol ~side ~payload ~checksum ~procs ())))
    variants

let pair ~what ~fig_tput ~fig_speedup series =
  [
    Report.table
      ~title:(Printf.sprintf "Figure %d: %s Throughputs" fig_tput what)
      ~unit_label:"Mbit/s" series;
    Report.table
      ~title:(Printf.sprintf "Figure %d: %s Speedup" fig_speedup what)
      ~unit_label:"x vs 1 CPU"
      (List.map Report.speedup series);
  ]

let fig2_3_data opts =
  pair ~what:"UDP Send Side" ~fig_tput:2 ~fig_speedup:3
    (series opts ~protocol:Config.Udp ~side:Config.Send)

let fig4_5_data opts =
  pair ~what:"UDP Receive Side" ~fig_tput:4 ~fig_speedup:5
    (series opts ~protocol:Config.Udp ~side:Config.Recv)

let fig6_7_data opts =
  pair ~what:"TCP Send Side" ~fig_tput:6 ~fig_speedup:7
    (series opts ~protocol:Config.Tcp ~side:Config.Send)

let fig8_9_data opts =
  pair ~what:"TCP Receive Side" ~fig_tput:8 ~fig_speedup:9
    (series opts ~protocol:Config.Tcp ~side:Config.Recv)
