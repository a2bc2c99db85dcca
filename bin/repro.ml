(* Command-line driver: regenerate the paper's figures and tables. *)

open Cmdliner

(* [conv] restricted to the values [ok] accepts: anything else is a usage
   error (exit 124), like an unknown enum value, rather than a crash
   inside the simulator. *)
let checked conv ~expected ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" expected s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive_int = checked Arg.int ~expected:"a positive integer" (fun n -> n > 0)
let non_negative_int = checked Arg.int ~expected:"a non-negative integer" (fun n -> n >= 0)

let positive_ms =
  checked Arg.float ~expected:"a positive duration" (fun x -> Float.is_finite x && x > 0.0)

let non_negative_time =
  checked Arg.float ~expected:"a non-negative duration" (fun x ->
      Float.is_finite x && x >= 0.0)

let positive_rate =
  checked Arg.float ~expected:"a positive rate" (fun x -> Float.is_finite x && x > 0.0)

let probability =
  checked Arg.float ~expected:"a probability in [0, 1)" (fun p -> p >= 0.0 && p < 1.0)

(* Output paths are checked when the arguments are parsed, so a bad one
   is a usage error before any cell runs, not a crash after them. *)
let is_dir path = Sys.file_exists path && Sys.is_directory path

let out_dir =
  checked Arg.string ~expected:"a directory, or a new one in an existing directory"
    (fun d -> if Sys.file_exists d then Sys.is_directory d else is_dir (Filename.dirname d))

let out_file =
  checked Arg.string ~expected:"a file in an existing directory" (fun f ->
      is_dir (Filename.dirname f) && not (is_dir f))

(* Write [contents] to [dir]/[file], making [dir] if it is new. *)
let write_json ~dir ~file ~scenarios contents =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir file in
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  Printf.printf "json:    %d scenario(s) -> %s\n" scenarios path

let opts_term =
  let max_procs =
    let doc = "Sweep processor counts 1..$(docv)." in
    Arg.(value & opt positive_int 8 & info [ "p"; "max-procs" ] ~docv:"N" ~doc)
  in
  let seeds =
    let doc = "Independent seeded runs averaged per data point." in
    Arg.(value & opt (some ~none:"3" positive_int) None & info [ "s"; "seeds" ] ~docv:"N" ~doc)
  in
  let measure_ms =
    let doc = "Steady-state measurement window in simulated milliseconds." in
    Arg.(
      value & opt (some ~none:"500" positive_ms) None & info [ "m"; "measure-ms" ] ~docv:"MS" ~doc)
  in
  let warmup_ms =
    let doc = "Warmup before measurement, simulated milliseconds." in
    Arg.(
      value
      & opt (some ~none:"200" non_negative_time) None
      & info [ "w"; "warmup-ms" ] ~docv:"MS" ~doc)
  in
  let quick =
    let doc =
      "Short smoke-test sweep (2 seeds, 250 ms); an explicit $(b,--seeds), $(b,--measure-ms) \
       or $(b,--warmup-ms) still wins."
    in
    Arg.(value & flag & info [ "q"; "quick" ] ~doc)
  in
  (* The preset fills in only the flags that were not given. *)
  let build max_procs seeds measure_ms warmup_ms quick =
    let base = if quick then Pnp_figures.Opts.quick else Pnp_figures.Opts.default in
    let ms flag preset = Option.fold ~none:preset ~some:Pnp_util.Units.ms flag in
    {
      Pnp_figures.Opts.max_procs;
      seeds = Option.value seeds ~default:base.Pnp_figures.Opts.seeds;
      warmup = ms warmup_ms base.Pnp_figures.Opts.warmup;
      measure = ms measure_ms base.Pnp_figures.Opts.measure;
    }
  in
  Term.(const build $ max_procs $ seeds $ measure_ms $ warmup_ms $ quick)

let jobs_term =
  let doc =
    "Worker domains for the sweep pool (default: the number of cores). The \
     results are byte-identical at any $(docv); $(b,-j 1) is the serial path."
  in
  Arg.(
    value
    & opt positive_int (Pnp_harness.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let no_memo_term =
  let doc =
    "Disable the sweep-cell memo, recomputing every (config, seed) cell even \
     when figures share it.  Output is byte-identical either way; this only \
     trades wall clock for a cache-free measurement."
  in
  Arg.(value & flag & info [ "no-cell-memo" ] ~doc)

let json_ctx = function
  | None -> Pnp_harness.Json_out.disabled
  | Some dir -> Pnp_harness.Json_out.make ~dir ()

let list_cmd =
  let run () =
    List.iter
      (fun e -> Printf.printf "%-14s %s\n" e.Pnp_figures.Registry.id e.Pnp_figures.Registry.title)
      Pnp_figures.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List every reproducible figure/table id.")
    Term.(const run $ const ())

(* Figure ids name registry entries: an unknown id is a usage error. *)
let figure_id =
  Arg.enum (List.map (fun e -> (e.Pnp_figures.Registry.id, e)) Pnp_figures.Registry.all)

let json_dir_term =
  let doc =
    "Also write each figure's tables to $(docv)/BENCH_<id>.json (machine-readable)."
  in
  Arg.(value & opt (some dir) None & info [ "json" ] ~docv:"DIR" ~doc)

let fig_cmd =
  let ids =
    let doc = "Figure/table ids (see $(b,list)); e.g. fig8-9, table1." in
    Arg.(non_empty & pos_all figure_id [] & info [] ~docv:"ID" ~doc)
  in
  let run opts json_dir jobs no_memo entries =
    Pnp_harness.Pool.set_jobs jobs;
    Pnp_harness.Run.set_cell_memo (not no_memo);
    let json = json_ctx json_dir in
    List.iter (fun e -> Pnp_figures.Registry.run_entry ~json e opts) entries
  in
  Cmd.v (Cmd.info "fig" ~doc:"Regenerate specific figures/tables.")
    Term.(const run $ opts_term $ json_dir_term $ jobs_term $ no_memo_term $ ids)

let all_cmd =
  let run opts json_dir jobs no_memo =
    Pnp_harness.Pool.set_jobs jobs;
    Pnp_harness.Run.set_cell_memo (not no_memo);
    Pnp_figures.Registry.run_all ~json:(json_ctx json_dir) opts
  in
  Cmd.v (Cmd.info "all" ~doc:"Regenerate every figure and table.")
    Term.(const run $ opts_term $ json_dir_term $ jobs_term $ no_memo_term)

let profile_term =
  let doc =
    "Also sample the host call stacks while the command runs and write them \
     to $(docv) in collapsed-stacks format (one `frame;frame;... count' line \
     per distinct stack, flamegraph-ready)."
  in
  Arg.(value & opt (some out_file) None & info [ "profile" ] ~docv:"FILE" ~doc)

(* Run [f], under the sampling profiler when [--profile FILE] was given. *)
let profiled profile f =
  match profile with
  | None -> f ()
  | Some file ->
    let (), n = Pnp_harness.Profiler.profile ~file f in
    Printf.printf "\nprofile: %d samples -> %s (collapsed stacks)\n" n file

(* Profile the harness itself: run figure data phases (no table output)
   and report how fast the host retires simulated events.  All numbers
   here describe the host machine, never the modeled system, so this
   command's stdout is exempt from the byte-for-byte determinism checks
   that cover [fig] and [all]. *)
let perf_cmd =
  let open Pnp_harness in
  let ids_term =
    let doc = "Figure ids to profile (default: every figure; see $(b,list))." in
    Arg.(value & pos_all figure_id [] & info [] ~docv:"ID" ~doc)
  in
  let exec opts jobs no_memo profile entries =
    Pool.set_jobs jobs;
    Run.set_cell_memo (not no_memo);
    let entries = match entries with [] -> Pnp_figures.Registry.all | es -> es in
    Printf.printf "host profile: %d figure(s), -j%d, cell memo %s\n\n"
      (List.length entries) (Pool.jobs ())
      (if no_memo then "off" else "on");
    Printf.printf "%-14s %9s %11s %13s %12s %10s\n" "figure" "wall s" "events"
      "events/sec" "hit/miss" "minor MW";
    let t0 = Hostprof.snapshot () in
    let figures () =
      List.iter
        (fun e ->
          let h0 = Hostprof.snapshot () in
          ignore (e.Pnp_figures.Registry.data opts);
          let d = Hostprof.delta h0 (Hostprof.snapshot ()) in
          Printf.printf "%-14s %9.3f %11d %13.0f %6d/%-5d %10.1f\n"
            e.Pnp_figures.Registry.id d.Hostprof.elapsed_s d.Hostprof.sim_events
            (Hostprof.events_per_sec d) d.Hostprof.cell_hits d.Hostprof.cell_misses
            (d.Hostprof.gc_minor_words /. 1e6))
        entries
    in
    profiled profile figures;
    Report.print_host_profile ~title:"Host profile (total)"
      (Hostprof.delta t0 (Hostprof.snapshot ()))
  in
  Cmd.v
    (Cmd.info "perf"
       ~doc:
         "Profile the harness: simulated events per host second, GC traffic and \
          sweep-cell memo hit rate, per figure and in total.")
    Term.(const exec $ opts_term $ jobs_term $ no_memo_term $ profile_term $ ids_term)

(* The CI perf gate: a fixed deterministic batch of sweep cells run with
   the cell memo off (the gate measures the engine, not the cache) and
   reported as one events-per-host-second figure.  [--out FILE] writes
   that profile as JSON; [--baseline FILE] compares against one written
   earlier: exit 1 when the event count differs or the best round falls
   below 0.8x the baseline rate, exit 2 when the baseline is unusable. *)
let gate_cmd =
  let open Pnp_harness in
  let cells =
    let c =
      Config.v ~procs:4 ~warmup:(Pnp_util.Units.ms 100.0)
        ~measure:(Pnp_util.Units.ms 150.0) ()
    in
    let recv = { c with Config.side = Config.Recv } in
    let fifo = Pnp_engine.Lock.Fifo in
    [
      { c with Config.protocol = Config.Udp };
      { recv with Config.protocol = Config.Udp };
      c;
      recv;
      { recv with Config.lock_disc = fifo };
      { recv with Config.ticketing = true };
      { recv with Config.lock_disc = fifo; connections = 4 };
      { c with Config.tcp_locking = Pnp_proto.Tcp.Six };
      { c with Config.refcnt_mode = Pnp_engine.Atomic_ctr.Locked };
      { c with Config.message_caching = false };
      { recv with Config.arch = Pnp_engine.Arch.power_series_33 };
    ]
  in
  let rounds = 4 and seeds = 3 in
  let fail code fmt = Printf.kfprintf (fun _ -> exit code) stderr fmt in
  (* How to (re)record a baseline, printed whenever one is unusable, so
     the fix is in the error message, not in a doc hunt. *)
  let help file =
    Printf.sprintf
      "expected a committed gate profile at %s (schema: {\"bench\":\"quick\",...,\
       \"host\":{\"events\":N,\"events_per_sec\":N,...}}).\n\
       Record one with:  dune exec bin/repro.exe -- gate -j 2 --out %s\n\
       then commit it (.gitignore drops BENCH_*.json unless negated by name)."
      file file
  in
  (* Pull ["<name>": <num>] out of a profile without a JSON parser: find
     the quoted field name, then read the number after the colon. *)
  let field s name =
    let key = Printf.sprintf "\"%s\":" name in
    let n = String.length s and k = String.length key in
    let rec find i =
      if i + k > n then None
      else if String.sub s i k = key then begin
        let j = ref (i + k) in
        while !j < n && String.contains "0123456789.-+eE" s.[!j] do incr j done;
        float_of_string_opt (String.sub s (i + k) (!j - i - k))
      end
      else find (i + 1)
    in
    find 0
  in
  let read_baseline file =
    let s =
      try In_channel.with_open_bin file In_channel.input_all
      with Sys_error msg ->
        fail 2 "repro gate: cannot read baseline %s (%s).\n%s\n" file msg (help file)
    in
    let num name =
      match field s name with
      | Some v -> v
      | None ->
        fail 2
          "repro gate: baseline %s has no %S field — an old-schema or corrupt \
           profile.\n%s\n"
          file name (help file)
    in
    (int_of_float (num "events"), num "events_per_sec")
  in
  let out_term =
    let doc = "Write the batch's host profile to $(docv) as JSON." in
    Arg.(value & opt (some out_file) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let baseline_term =
    let doc =
      "Compare against the profile in $(docv), written earlier by $(b,--out): \
       fail when the simulated event count differs or the best round's rate \
       is below 0.8x the baseline's."
    in
    Arg.(value & opt (some string) None & info [ "baseline" ] ~docv:"FILE" ~doc)
  in
  let exec jobs profile out baseline =
    Pool.set_jobs jobs;
    (* Validate the baseline before the batch, so a bad one fails fast. *)
    let base = Option.map (fun file -> (file, read_baseline file)) baseline in
    Run.set_cell_memo false;
    let best = ref 0.0 in
    let batch () =
      for round = 1 to rounds do
        let (), rd =
          Hostprof.measure (fun () ->
              List.iter
                (fun cfg ->
                  (* Distinct seeds per round so no two cells repeat even
                     if the memo were on by mistake. *)
                  ignore (Run.run_seeds { cfg with Config.seed = round * 100 } ~seeds))
                cells)
        in
        let rate = Hostprof.events_per_sec rd in
        Printf.printf "  round %d/%d: %.0f events/sec\n%!" round rounds rate;
        best := Float.max !best rate
      done
    in
    let (), d = Hostprof.measure (fun () -> profiled profile batch) in
    Report.print_host_profile ~title:"repro gate host profile" d;
    (* The gate metric is the BEST round, not the mean: a transient stall
       on a shared CI host slows some rounds, but nothing makes the engine
       run faster than it can, so max-of-rounds tracks the code while
       shrugging off noise. *)
    Printf.printf "  best round: %.0f events/sec\n" !best;
    (* The schema of the former [bench --quick]; BENCH_12.json is one. *)
    Option.iter
      (fun file ->
        Out_channel.with_open_bin file (fun oc ->
            Printf.fprintf oc
              "{\"bench\":\"quick\",\"jobs\":%d,\"rounds\":%d,\"cells\":%d,\"host\":{\"events\":%d,\"events_per_sec\":%.6g,\"mean_events_per_sec\":%.6g,\"elapsed_s\":%.6g,\"gc_minor_words\":%.6g,\"gc_major_words\":%.6g}}\n"
              (Pool.jobs ()) rounds (List.length cells) d.Hostprof.sim_events !best
              (Hostprof.events_per_sec d) d.Hostprof.elapsed_s d.Hostprof.gc_minor_words
              d.Hostprof.gc_major_words);
        Printf.printf "wrote %s\n" file)
      out;
    Option.iter
      (fun (file, (base_events, base_rate)) ->
        (* The batch is deterministic, so a host-only change retires
           exactly the baseline's events; any difference means the
           modelled output moved and the baseline must be re-recorded
           deliberately. *)
        if d.Hostprof.sim_events <> base_events then
          fail 1
            "repro gate: EVENT COUNT CHANGED: %d simulated events, the baseline \
             %s has %d — the modelled behaviour moved\n"
            d.Hostprof.sim_events file base_events;
        Printf.printf "baseline %s: %d events; fresh: %d (identical)\n" file
          base_events d.Hostprof.sim_events;
        let ratio = if base_rate > 0.0 then !best /. base_rate else 1.0 in
        Printf.printf "baseline %s: %.0f events/sec; fresh: %.0f (%.2fx)\n" file
          base_rate !best ratio;
        if ratio < 0.8 then
          fail 1
            "repro gate: PERF REGRESSION: %.0f events/sec is less than 80%% of \
             the baseline %.0f\n"
            !best base_rate;
        Printf.printf "perf gate: ok (threshold 0.8x)\n")
      base
  in
  Cmd.v
    (Cmd.info "gate"
       ~doc:
         "The host-performance gate: run a fixed batch of 11 sweep cells (3 \
          seeds, 4 rounds, cell memo off) and report the best round's \
          simulated events per host second, optionally against a baseline.")
    Term.(const exec $ jobs_term $ profile_term $ out_term $ baseline_term)

(* A single custom experiment with every knob exposed. *)
let run_cmd =
  let open Pnp_harness in
  let enum_arg name values default doc =
    Arg.(value & opt (enum values) default & info [ name ] ~doc)
  in
  let protocol =
    enum_arg "proto" [ ("udp", Config.Udp); ("tcp", Config.Tcp) ] Config.Tcp
      "Protocol stack: $(b,udp) or $(b,tcp)."
  in
  let side =
    enum_arg "side" [ ("send", Config.Send); ("recv", Config.Recv) ] Config.Recv
      "Which path to exercise: $(b,send) or $(b,recv)."
  in
  let procs = Arg.(value & opt positive_int 8 & info [ "procs" ] ~doc:"Processors.") in
  let payload =
    Arg.(value & opt positive_int 4096 & info [ "payload" ] ~doc:"Bytes per packet.")
  in
  let no_cksum = Arg.(value & flag & info [ "no-cksum" ] ~doc:"Disable checksumming.") in
  let locks =
    enum_arg "locks"
      [
        ("mutex", Pnp_engine.Lock.Unfair);
        ("mcs", Pnp_engine.Lock.Fifo);
        ("barging", Pnp_engine.Lock.Barging);
      ]
      Pnp_engine.Lock.Unfair "Connection-state lock discipline."
  in
  let tcp_locking =
    enum_arg "tcp-locking"
      [
        ("1", Pnp_proto.Tcp.One);
        ("2", Pnp_proto.Tcp.Two);
        ("6", Pnp_proto.Tcp.Six);
        ("scr", Pnp_proto.Tcp.Scr);
        ("rcu", Pnp_proto.Tcp.Rcu);
      ]
      Pnp_proto.Tcp.One
      "Per-connection parallelization: lock granularity TCP-$(b,1)/$(b,2)/$(b,6), \
       $(b,scr) (state-compute replication: log replay instead of locking) or \
       $(b,rcu) (writer lock + lock-free snapshot readers)."
  in
  let connections =
    Arg.(value & opt positive_int 1 & info [ "connections" ] ~doc:"Simultaneous connections.")
  in
  let steering =
    enum_arg "steering"
      [
        ("none", None);
        ("hash", Some Pnp_driver.Steer.Hash);
        ("last-sender", Some Pnp_driver.Steer.Last_sender);
      ]
      None
      "NIC packet steering (TCP recv only): $(b,none) keeps the classic \
       feeders, $(b,hash) pins each connection to one worker (RSS), \
       $(b,last-sender) follows the migrating application thread \
       (Flow-Director-style)."
  in
  let demux_shards =
    Arg.(
      value & opt positive_int 1
      & info [ "demux-shards" ]
          ~doc:"Shards per demux map (rounded up to a power of two).")
  in
  let placement =
    enum_arg "placement"
      [ ("packet", Config.Packet_level); ("connection", Config.Connection_level) ]
      Config.Packet_level "Worker-to-connection placement."
  in
  let skew =
    Arg.(value & opt float 0.0 & info [ "skew" ] ~doc:"Zipf exponent of per-connection load.")
  in
  let offered =
    Arg.(
      value
      & opt (some positive_rate) None
      & info [ "offered-mbps" ] ~doc:"Arrival-limited offered load (default: saturating).")
  in
  let ticketing = Arg.(value & flag & info [ "ticketing" ] ~doc:"Preserve order above TCP.") in
  let assume = Arg.(value & flag & info [ "assume-in-order" ] ~doc:"Figure 10 upper bound.") in
  let locked_refs =
    Arg.(value & flag & info [ "locked-refs" ] ~doc:"Lock-inc-unlock reference counts.")
  in
  let no_caching =
    Arg.(value & flag & info [ "no-caching" ] ~doc:"Disable per-thread MNode caches.")
  in
  let arch =
    let archs = List.map (fun a -> (a.Pnp_engine.Arch.name, a)) Pnp_engine.Arch.all in
    enum_arg "arch" archs Pnp_engine.Arch.challenge_100
      ("Machine: " ^ Arg.doc_alts_enum archs ^ ".")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base random seed.") in
  let presentation =
    Arg.(value & flag & info [ "presentation" ] ~doc:"Add per-packet XDR-style conversion.")
  in
  let cksum_under_lock =
    Arg.(
      value & flag
      & info [ "cksum-under-lock" ] ~doc:"Compute checksums inside the state lock (ablation).")
  in
  let jitter_us =
    Arg.(
      value & opt non_negative_time 8.0
      & info [ "jitter-us" ] ~doc:"Mean driver service jitter in microseconds.")
  in
  let loss =
    Arg.(
      value & opt probability 0.0
      & info [ "loss" ]
          ~doc:
            "Bernoulli segment-loss probability on the receiving peer (TCP send \
             side only): exercises the full retransmission machinery.")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ]
          ~docv:"FILE"
          ~doc:
            "Record the measurement window of one run (base seed) as Chrome \
             trace-event JSON in $(docv) (open with chrome://tracing or \
             https://ui.perfetto.dev), and print the per-lock contention table.")
  in
  let exec opts jobs protocol side procs payload no_cksum locks tcp_locking connections
      steering demux_shards placement skew offered ticketing assume locked_refs no_caching
      arch seed presentation cksum_under_lock jitter_us loss trace_file =
    Pool.set_jobs jobs;
    let cfg =
      Config.v ~arch ~procs ~side ~protocol ~payload ~checksum:(not no_cksum)
        ~lock_disc:locks ~tcp_locking ~connections ?steering ~demux_shards ~placement
        ~skew ?offered_mbps:offered
        ~ticketing ~assume_in_order:assume
        ~refcnt_mode:
          (if locked_refs then Pnp_engine.Atomic_ctr.Locked else Pnp_engine.Atomic_ctr.Ll_sc)
        ~message_caching:(not no_caching) ~presentation ~cksum_under_lock
        ~driver_jitter_ns:(jitter_us *. 1000.0) ~loss_rate:loss
        ~warmup:opts.Pnp_figures.Opts.warmup ~measure:opts.Pnp_figures.Opts.measure ~seed ()
    in
    (* Fail on an unwritable trace destination before running the whole
       simulation, not after. *)
    (match trace_file with
     | None -> ()
     | Some file -> (
       match open_out_gen [ Open_append; Open_creat ] 0o644 file with
       | oc -> close_out oc
       | exception Sys_error msg ->
         Printf.eprintf "cannot write trace file: %s\n" msg;
         exit 1));
    Printf.printf "config: %s\n" (Config.describe cfg);
    let results = Run.run_seeds cfg ~seeds:opts.Pnp_figures.Opts.seeds in
    let s = Pnp_util.Stats.summary (List.map (fun r -> r.Run.throughput_mbps) results) in
    let avg f = Pnp_util.Stats.mean (List.map f results) in
    Printf.printf "throughput:     %8.1f Mbit/s (± %.1f, %d seeds)\n" s.Pnp_util.Stats.mean
      s.Pnp_util.Stats.ci90 s.Pnp_util.Stats.n;
    Printf.printf "packets:        %8.0f per run\n" (avg (fun r -> float_of_int r.Run.packets));
    Printf.printf "out-of-order:   %8.1f %%\n" (avg (fun r -> r.Run.ooo_pct));
    Printf.printf "pred misses:    %8.1f %%\n" (avg (fun r -> r.Run.pred_miss_pct));
    Printf.printf "lock waiting:   %8.1f %% of thread time\n"
      (avg (fun r -> r.Run.lock_wait_pct));
    Printf.printf "wire misorder:  %8.2f %%\n" (avg (fun r -> r.Run.wire_misorder_pct));
    Printf.printf "mnode cache:    %8.1f %% hit rate\n" (avg (fun r -> r.Run.cache_hit_pct));
    match trace_file with
    | None -> ()
    | Some file ->
      (* Re-run the base seed with the event tracer on.  Tracing never
         consumes simulated time, so this reproduces the seed's run
         exactly while recording the measurement window. *)
      let _, tracer = Run.run_traced cfg in
      Pnp_engine.Trace.write_chrome tracer file;
      Printf.printf "\ntrace:          %d events -> %s\n" (Pnp_engine.Trace.count tracer) file;
      Report.print_lock_table tracer
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one experiment with explicit knobs and print all metrics.")
    Term.(
      const exec $ opts_term $ jobs_term $ protocol $ side $ procs $ payload $ no_cksum $ locks
      $ tcp_locking $ connections $ steering $ demux_shards $ placement $ skew $ offered
      $ ticketing $ assume $ locked_refs $ no_caching $ arch $ seed $ presentation
      $ cksum_under_lock $ jitter_us $ loss $ trace_file)

(* Trace-driven concurrency checking: run reference scenarios with the
   tracer on and feed the trace to Pnp_analysis (lockset, lock-order,
   FIFO grant order, reorder windows). *)
let check_cmd =
  let open Pnp_harness in
  let scenarios = Check_scenarios.all in
  let figs_term =
    let doc =
      "Only check scenarios tagged with figure $(docv) (repeatable); e.g. \
       fig10, fig13."
    in
    let tags =
      List.sort_uniq compare (List.map (fun s -> s.Check_scenarios.tag) scenarios)
    in
    let tag = Arg.enum (List.map (fun t -> (t, t)) tags) in
    Arg.(value & opt_all tag [] & info [ "fig" ] ~docv:"ID" ~doc)
  in
  let all_term =
    let doc = "Check every scenario (the default when no $(b,--fig) is given)." in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let json_term =
    let doc =
      "Also write the findings, the per-scenario lockset-vs-HB comparison \
       and the exit-code bits as machine-readable $(docv)/CHECK.json."
    in
    Arg.(value & opt (some out_dir) None & info [ "json" ] ~docv:"DIR" ~doc)
  in
  let exec figs all_flag json_dir =
    let selected =
      if figs = [] || all_flag then scenarios
      else List.filter (fun s -> List.mem s.Check_scenarios.tag figs) scenarios
    in
    let all_findings = ref [] in
    let order_totals = ref [] in
    let json_rows = ref [] in
    List.iter
      (fun { Check_scenarios.tag; label; role; cfg } ->
        let _result, tracer = Run.run_traced cfg in
        let checked = Pnp_analysis.Check.run tracer in
        let findings = checked.Pnp_analysis.Check.findings in
        let reordered, grants =
          Pnp_analysis.Order_check.reordered_total checked.Pnp_analysis.Check.order
        in
        Printf.printf "%-8s %-42s %6d events  %4d/%d reordered grants  %d finding(s)\n"
          tag label
          (Pnp_engine.Trace.count tracer)
          reordered grants (List.length findings);
        (* Lockset vs happens-before, per state id: the two checkers
           disagree in both directions and the disagreement is the
           signal — lockset-only entries are false-positive candidates
           (ordering the lockset abstraction cannot see), HB-only
           entries are real races the lockset analysis missed. *)
        let ls_flagged =
          List.map (fun (f : Pnp_analysis.Finding.t) -> f.Pnp_analysis.Finding.subject)
            checked.Pnp_analysis.Check.lockset
        in
        let comparison =
          List.map
            (fun (s : Pnp_analysis.Lockset.state) ->
              let ls = List.mem s.Pnp_analysis.Lockset.id ls_flagged in
              let hb = List.mem s.Pnp_analysis.Lockset.id checked.Pnp_analysis.Check.races in
              (s.Pnp_analysis.Lockset.id, ls, hb))
            checked.Pnp_analysis.Check.states
        in
        let disagreement = List.exists (fun (_, ls, hb) -> ls || hb) comparison in
        if role <> None || disagreement then begin
          Printf.printf "         %-28s %-10s %-10s %s\n" "state" "lockset" "hb"
            "verdict";
          List.iter
            (fun (id, ls, hb) ->
              let verdict =
                match (ls, hb) with
                | true, true -> "race (both agree)"
                | true, false -> "lockset-only: false-positive candidate"
                | false, true -> "HB-only: real race lockset missed"
                | false, false -> "ordered"
              in
              Printf.printf "         %-28s %-10s %-10s %s\n" id
                (if ls then "FLAGGED" else "clean")
                (if hb then "FLAGGED" else "clean")
                verdict)
            comparison
        end;
        (match role with
         | Some r -> order_totals := (r, reordered) :: !order_totals
         | None -> ());
        List.iter
          (fun f -> Format.printf "  %a@." Pnp_analysis.Finding.pp f)
          findings;
        all_findings := !all_findings @ findings;
        json_rows :=
          (tag, label, Pnp_engine.Trace.count tracer, reordered, grants, findings,
           comparison)
          :: !json_rows)
      selected;
    (* Figure 10 as an assertion: the FIFO (MCS) discipline must not
       reorder more grants than the unfair mutex on the same workload. *)
    (match
       (List.assoc_opt `Unfair !order_totals, List.assoc_opt `Fifo !order_totals)
     with
     | Some unfair, Some fifo ->
       Printf.printf "fig10    reordered grants: mutex=%d mcs=%d\n" unfair fifo;
       if fifo > unfair then begin
         let f =
           Pnp_analysis.Finding.v ~checker:"fig10-direction" ~subject:"grant order"
             (Printf.sprintf
                "FIFO locking reordered more grants (%d) than the unfair mutex \
                 (%d); Figure 10 expects the opposite"
                fifo unfair)
         in
         Format.printf "  %a@." Pnp_analysis.Finding.pp f;
         all_findings := !all_findings @ [ f ]
       end
     | _ -> ());
    let findings = !all_findings in
    (* Exit code = OR of the checker-family bits (race=1, lifetime=2,
       order/other=4), so CI can tell the failure kinds apart. *)
    let code = Pnp_analysis.Finding.exit_code findings in
    (match json_dir with
     | None -> ()
     | Some dir ->
       let esc = Pnp_engine.Trace.json_escape in
       let b = Buffer.create 4096 in
       Buffer.add_string b "{\"check\":[";
       List.iteri
         (fun i (tag, label, events, reordered, grants, findings, comparison) ->
           if i > 0 then Buffer.add_char b ',';
           Buffer.add_string b
             (Printf.sprintf
                "{\"tag\":\"%s\",\"label\":\"%s\",\"events\":%d,\"reordered\":%d,\"grants\":%d,\"findings\":["
                (esc tag) (esc label) events reordered grants);
           List.iteri
             (fun j (f : Pnp_analysis.Finding.t) ->
               if j > 0 then Buffer.add_char b ',';
               Buffer.add_string b
                 (Printf.sprintf
                    "{\"checker\":\"%s\",\"severity\":\"error\",\"subject\":\"%s\",\"message\":\"%s\"}"
                    (esc f.Pnp_analysis.Finding.checker)
                    (esc f.Pnp_analysis.Finding.subject)
                    (esc f.Pnp_analysis.Finding.message)))
             findings;
           Buffer.add_string b "],\"comparison\":[";
           List.iteri
             (fun j (id, ls, hb) ->
               if j > 0 then Buffer.add_char b ',';
               Buffer.add_string b
                 (Printf.sprintf "{\"state\":\"%s\",\"lockset\":%b,\"hb\":%b}"
                    (esc id) ls hb))
             comparison;
           Buffer.add_string b "]}")
         (List.rev !json_rows);
       Buffer.add_string b (Printf.sprintf "],\"exit_code\":%d}\n" code);
       write_json ~dir ~file:"CHECK.json" ~scenarios:(List.length selected) (Buffer.contents b));
    if findings = [] then
      Printf.printf "check: %d scenario(s), no findings\n" (List.length selected)
    else begin
      Printf.printf "check: %d scenario(s), %d finding(s), exit code %d\n"
        (List.length selected) (List.length findings) code;
      exit code
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the trace-driven concurrency checkers (lockset, happens-before \
          races, arena lifetime, lock order, grant order) over reference \
          scenarios, with a lockset-vs-HB comparison per scenario.")
    Term.(const exec $ figs_term $ all_term $ json_term)

(* Deterministic fault injection with an end-to-end recovery oracle: each
   cell transfers a golden byte stream over a faulted link and must
   recover it exactly (TCP) and account for every datagram (UDP). *)
let chaos_cmd =
  let open Pnp_harness in
  let plan_term =
    let doc =
      "Run only this built-in fault plan's rows of the matrix (see \
       $(b,--list-plans)); default: every plan.  The matrix runs each plan x \
       {mutex+tcp1, mcs+tcp1, mcs+scr}."
    in
    Arg.(
      value
      & opt (some (enum Pnp_faults.Faults.builtin)) None
      & info [ "plan" ] ~docv:"NAME" ~doc)
  in
  let list_plans_term =
    let doc = "List the built-in fault plans and exit." in
    Arg.(value & flag & info [ "list-plans" ] ~doc)
  in
  let bytes_term =
    Arg.(
      value & opt non_negative_int 200_000
      & info [ "bytes" ] ~doc:"TCP golden-stream length per cell (bytes).")
  in
  let datagrams_term =
    Arg.(value & opt non_negative_int 600 & info [ "datagrams" ] ~doc:"Paced UDP datagrams per cell.")
  in
  let seed_term = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base random seed.") in
  let exec jobs plan list_plans bytes datagrams seed =
    if list_plans then
      List.iter (fun (name, _) -> print_endline name) Pnp_faults.Faults.builtin
    else begin
      Pool.set_jobs jobs;
      let outcomes = Chaos.matrix ~bytes ~datagrams ~seed ?plan () in
      let failed = ref 0 in
      List.iter
        (fun o ->
          print_endline (Chaos.to_line o);
          if not (Chaos.passed o) then begin
            incr failed;
            List.iter
              (fun f -> Format.printf "  %a@." Pnp_analysis.Finding.pp f)
              o.Chaos.findings
          end)
        outcomes;
      Printf.printf "chaos: %d cell(s), %d failed\n" (List.length outcomes) !failed;
      if !failed > 0 then exit 1
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Inject deterministic link faults (loss, bursts, duplication, reordering, \
          corruption, jitter, blackouts) and verify end-to-end recovery.")
    Term.(
      const exec $ jobs_term $ plan_term $ list_plans_term $ bytes_term
      $ datagrams_term $ seed_term)

(* Cross-scenario overload comparison: incast (clean / burst-loss /
   bounded-pool) vs the shared-bottleneck fairness workload, each watched
   for liveness and checked by the overload oracle. *)
let compare_cmd =
  let open Pnp_harness in
  let senders_term =
    let senders =
      checked Arg.int
        ~expected:(Printf.sprintf "an integer in 1..%d" Overload.max_senders)
        (fun n -> n >= 1 && n <= Overload.max_senders)
    in
    Arg.(
      value & opt senders 32
      & info [ "senders" ] ~doc:"Incast fan-in width (flows into one port).")
  in
  let bytes_term =
    Arg.(
      value & opt non_negative_int 4096
      & info [ "bytes" ] ~doc:"Bytes per incast flow (bottleneck flows stay 40 kB).")
  in
  let seed_term = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base random seed.") in
  let json_term =
    let doc = "Also write the comparison as machine-readable $(docv)/COMPARE.json." in
    Arg.(value & opt (some out_dir) None & info [ "json" ] ~docv:"DIR" ~doc)
  in
  let exec jobs senders bytes_per_flow seed json_dir =
    Pool.set_jobs jobs;
    let rows = Compare.run ~senders ~bytes_per_flow ~seed () in
    Compare.print rows;
    Option.iter
      (fun dir ->
        write_json ~dir ~file:"COMPARE.json" ~scenarios:(List.length rows) (Compare.to_json rows))
      json_dir;
    if not (Compare.passed rows) then exit 1
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Compare overload scenarios (incast fan-in, burst loss, bounded pools, \
          shared bottleneck): goodput, fairness, latency percentiles, drop \
          accounting and oracle verdicts, byte-identical at any $(b,-j).")
    Term.(const exec $ jobs_term $ senders_term $ bytes_term $ seed_term $ json_term)

(* A short annotated wire trace of a TCP connection over the in-memory
   driver: handshake, data, acks. *)
let trace_cmd =
  let count =
    Arg.(value & opt non_negative_int 40 & info [ "n" ] ~doc:"Number of frames to print.")
  in
  let exec count =
    let open Pnp_engine in
    let open Pnp_driver in
    let plat = Platform.create ~seed:4 Arch.challenge_100 in
    let stack = Stack.create plat ~local_addr:0x0a000001 () in
    let sniffer = Sniffer.attach stack in
    let _peer = Tcp_peer.attach stack ~peer_addr:0x0a000002 ~checksum:true () in
    ignore
      (Sim.spawn plat.Platform.sim ~cpu:0 ~name:"app" (fun () ->
           let sess =
             Pnp_proto.Tcp.connect stack.Stack.tcp ~local_port:5000
               ~remote_addr:0x0a000002 ~remote_port:80
           in
           for i = 0 to 7 do
             let m = Pnp_xkern.Msg.create stack.Stack.pool 4096 in
             Pnp_xkern.Msg.fill_pattern m ~off:0 ~len:4096 ~stream_off:(i * 4096);
             Pnp_proto.Tcp.send sess m
           done;
           Pnp_proto.Tcp.close sess));
    Sim.run ~until:(Pnp_util.Units.sec 3.0) plat.Platform.sim;
    Printf.printf
      "Wire trace: TCP connect + 8 x 4KB + close over the in-memory driver\n\
       (-> transmitted by the stack, <- injected by the simulated peer)\n\n";
    let es = Sniffer.entries sniffer in
    List.iteri
      (fun i e -> if i < count then Format.printf "%a@." Sniffer.pp_entry e)
      es;
    if List.length es > count then
      Printf.printf "... (%d more frames; rerun with -n)\n" (List.length es - count)
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Print an annotated wire trace of a small TCP session.")
    Term.(const exec $ count)

let main =
  let doc =
    "Reproduction of 'Performance Issues in Parallelized Network Protocols' (OSDI '94)"
  in
  Cmd.group (Cmd.info "repro" ~doc)
    [
      list_cmd; fig_cmd; all_cmd; perf_cmd; gate_cmd; run_cmd; check_cmd; chaos_cmd;
      compare_cmd; trace_cmd;
    ]

(* The sweeps allocate tens of words per simulated event (closures on the
   event queue, message descriptors), so the default 256k-word minor heap
   forces a minor collection every few milliseconds of host time.  A 2M-word
   (16 MB) per-domain minor heap trades a little memory for far fewer
   collections; it changes nothing observable — GC scheduling never feeds
   back into simulated time. *)
let () = Gc.set { (Gc.get ()) with Gc.minor_heap_size = 2 * 1024 * 1024 }
let () = exit (Cmd.eval main)
