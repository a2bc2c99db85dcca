open Pnp_util
open Pnp_harness

(* The ext-incast figure: heavy-traffic overload scenarios from
   {!Pnp_harness.Overload}.  Incast fans N synchronized senders into one
   server port over one shared link (the SYN burst overruns the
   listener's bounded backlog and is recovered by retransmission);
   the shared-bottleneck workload paces N long flows onto a slower link
   and asks how evenly TCP divides it.  Every cell runs under the
   liveness watchdog and the {!Pnp_analysis.Recovery.check_overload}
   oracle, so the findings row is itself a result: 0 means the run
   degraded gracefully — every byte delivered exactly or accounted to a
   named drop cause. *)

(* Series: the clean link vs the Gilbert-Elliott burst-loss WAN profile
   (the hardest of the built-in plans for a synchronized burst: a bad
   state swallows whole runs of the SYN wave). *)
let plans = [ ("baseline", Pnp_faults.Faults.none); ("burst", Pnp_faults.Faults.burst) ]

(* Reduced smoke sweeps (the CI determinism job runs with a 100 ms
   window) scale the fan-in down; the full figure reaches 10^3
   simultaneous senders through the sharded demux. *)
let incast_axis opts =
  if opts.Opts.measure < Units.ms 250.0 then [ 8; 32 ] else [ 32; 100; 320; 1000 ]

let bottleneck_axis opts =
  if opts.Opts.measure < Units.ms 250.0 then [ 4; 8 ] else [ 4; 8; 16 ]

(* Keep the aggregate transfer roughly constant across the axis so the
   x-axis varies contention, not workload size. *)
let bytes_per_flow senders = min 8192 (2_000_000 / senders)

(* The sweep axis is the sender count, not processors; encode it directly
   in the integer [procs] field.  The printed tables name the axis
   ([senders] or [flows]); the JSON export keeps the field name. *)
let point senders v = { Report.procs = senders; mean = v; ci90 = 0.0 }

let series plans axis results pick =
  List.mapi
    (fun i (name, _) ->
      let points =
        List.mapi
          (fun j senders ->
            point senders (pick (List.nth results ((i * List.length axis) + j))))
          axis
      in
      { Report.label = name; points })
    plans

let incast_data opts =
  let iaxis = incast_axis opts in
  let baxis = bottleneck_axis opts in
  let icells =
    List.concat_map
      (fun (_, plan) ->
        List.map
          (fun senders () ->
            Overload.incast ~plan ~senders ~bytes_per_flow:(bytes_per_flow senders) ())
          iaxis)
      plans
  in
  let bcells =
    List.concat_map
      (fun (_, plan) ->
        List.map (fun senders () -> Overload.shared_bottleneck ~plan ~senders ()) baxis)
      plans
  in
  let results = Pool.map (fun cell -> cell ()) (icells @ bcells) in
  (* [Pool.map] preserves order: the first |plans|*|iaxis| results are the
     incast cells, chunked one run of the axis per plan; the rest are the
     bottleneck cells in the same layout. *)
  let n_incast = List.length icells in
  let iresults = List.filteri (fun i _ -> i < n_incast) results in
  let bresults = List.filteri (fun i _ -> i >= n_incast) results in
  let iseries = series plans iaxis iresults in
  let bseries = series plans baxis bresults in
  [
    Report.table ~title:"Extension: incast goodput (x-axis: senders)"
      ~unit_label:"Mbit/s" ~axis:"senders"
      (iseries (fun o -> o.Overload.goodput_mbps));
    Report.table ~title:"Extension: incast fairness (x-axis: senders)"
      ~unit_label:"Jain index" ~axis:"senders"
      (iseries (fun o -> o.Overload.fairness));
    Report.table
      ~title:"Extension: incast p99 connect-to-done latency (x-axis: senders)"
      ~unit_label:"ms" ~axis:"senders" (iseries (Overload.completion_ms 99.0));
    Report.table
      ~title:"Extension: incast accounted drops, all named causes (x-axis: senders)"
      ~unit_label:"frames" ~axis:"senders"
      (iseries (fun o ->
           float_of_int (Pnp_analysis.Recovery.total_drops o.Overload.drops)));
    Report.table
      ~title:
        "Extension: incast oracle + watchdog findings — 0 everywhere means \
         graceful degradation (x-axis: senders)"
      ~unit_label:"findings" ~axis:"senders"
      (iseries (fun o -> float_of_int (List.length o.Overload.findings)));
    Report.table
      ~title:"Extension: shared-bottleneck fairness (x-axis: flows)"
      ~unit_label:"Jain index" ~axis:"flows"
      (bseries (fun o -> o.Overload.fairness));
    Report.table
      ~title:
        "Extension: shared-bottleneck p99 connect-to-done latency (x-axis: flows)"
      ~unit_label:"ms" ~axis:"flows" (bseries (Overload.completion_ms 99.0));
  ]

let incast_present _opts tables =
  Printf.printf
    "\n== Extension: overload robustness (incast fan-in, shared bottleneck) ==\n";
  Printf.printf
    "N senders connect to one server port at the same instant over one \n\
     100 Mbit/s link (incast): the SYN wave overruns the 16-entry listener \n\
     backlog, the drops are counted, and SYN retransmission recovers every \n\
     connection.  The burst series adds Gilbert-Elliott two-state loss on \n\
     the wire.  The shared-bottleneck workload paces long flows onto a \n\
     40 Mbit/s link and reports how evenly TCP divides it.  Every cell runs \n\
     under the liveness watchdog and the overload oracle: a findings value \n\
     of 0 asserts that every flow's bytes arrived exactly or are accounted \n\
     to a named drop cause — no silent loss, no hang.\n";
  List.iter Report.print tables;
  Printf.printf
    "Goodput holds (retransmission recovers what the backlog and the wire \n\
     shed) while p99 latency absorbs the damage — backoff on a lossy burst \n\
     state stretches the tail by orders of magnitude.  Fairness stays near \n\
     1.0: the losses spread over flows instead of starving a few.\n";
  flush stdout
