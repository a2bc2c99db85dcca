(* The repository benchmark.

     perfbench.exe --workload paper|steering|incast|check --seed N
                   --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with tracing off: an
   untimed reference pass (which also warms the caches), the set-up
   time on its own, then timed passes over the workload's cells for S
   seconds, then a cross-check of every cell run the other way round.
   Times are reported in reference seconds: host seconds scaled by the
   calibration kernel of calib.ml, timed between the cells.
   --trace 1 gives the per-layer metrics instead: one traced pass for
   the simulated counts and the host probes.  Every execution of every
   cell is checked; the last line of stdout is one JSON object with the
   verdict and the metrics.  perfbench/run.py builds and runs this. *)

open Pnp_harness

type args = { workload : Workloads.t; seed : int; seconds : float; trace : bool }

let usage =
  "usage: perfbench.exe --workload paper|steering|incast|check --seed N --seconds S \
   --trace 0|1"

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline usage;
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec scan = function
    | "--workload" :: w :: rest ->
      (match Workloads.of_string w with
       | Some x -> workload := Some x
       | None -> die (Printf.sprintf "unknown workload %S" w));
      scan rest
    | "--seed" :: n :: rest ->
      seed := int_of_string_opt n;
      if !seed = None then die (Printf.sprintf "--seed expects an integer, got %S" n);
      scan rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
       | Some x when x > 0.0 -> seconds := Some x
       | _ -> die (Printf.sprintf "--seconds expects a positive number, got %S" s));
      scan rest
    | "--trace" :: t :: rest ->
      (match t with
       | "0" -> trace := Some false
       | "1" -> trace := Some true
       | _ -> die (Printf.sprintf "--trace expects 0 or 1, got %S" t));
      scan rest
    | arg :: _ -> die (Printf.sprintf "unknown argument %S" arg)
    | [] -> ()
  in
  scan (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace -> { workload; seed; seconds; trace }
  | _ -> die "--workload, --seed, --seconds and --trace are all required"

(* ---- correctness accounting -------------------------------------------- *)

(* Every cell execution is one attempted operation; it fails when an
   exception escapes, when it reports problems (checker or watchdog
   findings, a failed overload oracle), or when its result differs from
   the reference execution of the same cell. *)
type tally = { mutable attempted : int; mutable failed : int; mutable first : string list }

let tally = { attempted = 0; failed = 0; first = [] }

let fail why =
  tally.failed <- tally.failed + 1;
  if List.length tally.first < 5 then tally.first <- why :: tally.first

let exec ~what ?expect f =
  tally.attempted <- tally.attempted + 1;
  match f () with
  | exception e ->
    fail (Printf.sprintf "%s: %s" what (Printexc.to_string e));
    None
  | (e : Workloads.exec) ->
    (match (e.Workloads.problems, expect) with
     | p :: _, _ -> fail (Printf.sprintf "%s: %s" what p)
     | [], Some d when d <> e.Workloads.digest ->
       fail (what ^ ": result differs from the reference execution")
     | [], _ -> ());
    Some e

let expected refs i = Option.map (fun (e : Workloads.exec) -> e.Workloads.digest) refs.(i)

(* Runs [f] on every cell.  With [~calibrate], the calibration kernel
   runs before each cell and after the last.  Returns the cells' host
   time and, when calibrated, the same time in reference seconds: scaled
   by [Calib.reference_s] over the kernel's mean time in this pass. *)
let timed_cells ~calibrate cells f =
  let host = ref 0.0 and kernel = ref 0.0 in
  let calibration () = if calibrate then kernel := !kernel +. Calib.time () in
  Array.iteri
    (fun i c ->
      calibration ();
      let (), t = Stat.time (fun () -> f i c) in
      host := !host +. t)
    cells;
  calibration ();
  let scale =
    if calibrate then Calib.reference_s *. float_of_int (Array.length cells + 1) /. !kernel
    else 1.0
  in
  (!host, !host *. scale)

type pass = { delta : Hostprof.delta; flows : int; host_s : float; ref_s : float }

(* One pass over the cells, each checked against its reference. *)
let pass ~what ~refs ?(calibrate = false) cells f =
  let flows = ref 0 in
  let (host_s, ref_s), delta =
    Hostprof.measure (fun () ->
        timed_cells ~calibrate cells (fun i c ->
            match exec ~what ?expect:(expected refs i) (fun () -> f c) with
            | Some e -> flows := !flows + e.Workloads.flows
            | None -> ()))
  in
  { delta; flows = !flows; host_s; ref_s }

(* What the workload's throughput counts, per pass. *)
let work w p = match w with Workloads.Incast -> p.flows | _ -> p.delta.Hostprof.sim_events

(* The untimed first pass: it fixes each cell's expected result and
   warms the host caches before anything is timed.  Each cell starts on a
   compacted heap, so the heap's peak over the pass is the largest
   cell's, not that of what earlier cells left for the GC. *)
let references cells =
  Array.map
    (fun c ->
      Gc.compact ();
      exec ~what:"reference" (fun () -> Workloads.reference c))
    cells

let pass_digest refs =
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (Array.to_list
             (Array.map
                (function Some (e : Workloads.exec) -> e.Workloads.digest | None -> "-")
                refs))))

(* ---- output ------------------------------------------------------------ *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result metrics =
  List.iter (fun (name, unit, v) -> Printf.printf "  %-32s %16.6g %s\n" name v unit) metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  List.iter (fun why -> Printf.printf "  FAILED %s\n" why) (List.rev tally.first);
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (tally.failed = 0 && tally.attempted > 0)
    tally.attempted tally.failed body

(* ---- --trace 0: end-to-end --------------------------------------------- *)

(* Set-up is repeated, calibrated, until it has been measured at least
   five times and for at least a second; returns the median, in
   reference seconds, and the median host seconds. *)
let setup_seconds cells =
  let times = ref [] and hosts = ref [] and total = ref 0.0 in
  while List.length !times < 5 || (!total < 1.0 && List.length !times < 25) do
    let host, t =
      timed_cells ~calibrate:true cells (fun _ c ->
          tally.attempted <- tally.attempted + 1;
          try Workloads.setup c with e -> fail ("set-up: " ^ Printexc.to_string e))
    in
    times := t :: !times;
    hosts := host :: !hosts;
    total := !total +. host
  done;
  (Stat.median !times, Stat.median !hosts)

let end_to_end a cells =
  let w = a.workload in
  let refs = references cells in
  (* The peak after one pass over the cells: later passes repeat the same
     cells, and reading it after them would let the count of passes, which
     depends on host speed, move it. *)
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  let setup_s, setup_host_s = setup_seconds cells in
  let passes = ref [] in
  let stop = Stat.now () +. a.seconds in
  while List.length !passes < 3 || Stat.now () < stop do
    passes := pass ~what:"timed pass" ~refs ~calibrate:true cells Workloads.run :: !passes
  done;
  Array.iteri
    (fun i c ->
      Option.iter
        (fun f -> ignore (exec ~what:"cross-check" ?expect:(expected refs i) f))
        (Workloads.cross_check c))
    cells;
  (* The median pass in reference seconds.  Its host time is printed
     beside it: that is what a user of this host saw, and it moves with
     the neighbours' load. *)
  let units = work w (List.hd !passes) in
  let ref_walls = List.map (fun p -> p.ref_s) !passes in
  let host_walls = List.map (fun p -> p.host_s) !passes in
  let wall_s = Stat.median ref_walls in
  let rate = float_of_int units /. wall_s in
  let q p = Stat.percentile p ref_walls and h p = Stat.percentile p host_walls in
  Printf.printf "  passes %d; pass wall_s (reference) p25 %.4f median %.4f p75 %.4f\n"
    (List.length !passes) (q 25.0) wall_s (q 75.0);
  Printf.printf "  pass wall_s (host) min %.4f p25 %.4f median %.4f p75 %.4f; setup (host) %.4f\n"
    (List.fold_left min infinity host_walls) (h 25.0) (h 50.0) (h 75.0) setup_host_s;
  Printf.printf "  %s/pass %d; digest %s\n" (Workloads.work_unit w) units (pass_digest refs);
  (match w with
   | Workloads.Incast -> Printf.printf "  flows_per_s %.6g (events_per_s: n/a)\n" rate
   | _ -> Printf.printf "  events_per_s %.6g\n" rate);
  let ok_pct =
    100.0 *. float_of_int (tally.attempted - tally.failed)
    /. float_of_int (max 1 tally.attempted)
  in
  Printf.printf "  failed_pct %.6g\n" (100.0 -. ok_pct);
  [
    ("wall_s", "s", wall_s);
    ("work_per_s", "1/s", rate);
    ("setup_s", "s", setup_s);
    ("peak_heap_mb", "MB", heap_mb);
    ("ok_pct", "%", ok_pct);
  ]

(* ---- --trace 1: per layer ---------------------------------------------- *)

let per_layer a cells =
  let w = a.workload in
  let refs = references cells in
  (* The GC figures count one pass of the workload's own operation: on
     check that includes the trace and [Check.all]. *)
  let p = pass ~what:"workload pass" ~refs cells Workloads.run in
  let units = max 1 (work w p) in
  let d = p.delta in
  let layers = Sim_layers.create () in
  let _ = pass ~what:"traced pass" ~refs cells (Sim_layers.observe layers) in
  Printf.printf "  %s/pass %d; digest %s\n" (Workloads.work_unit w) units (pass_digest refs);
  let probes = Probes.all ~seed:a.seed in
  let slice = 0.5 *. a.seconds /. float_of_int (List.length probes + 1) in
  let probe_metrics =
    List.concat_map
      (fun (ns_name, words_name, probe) ->
        let s = probe ~slice in
        [ (ns_name, "ns", s.Probes.ns_per_op); (words_name, "words", s.Probes.words_per_op) ])
      probes
  in
  let overhead = Probes.trace_overhead ~slice ~seed:a.seed in
  [
    ("gc.minor_words_per_work", "words", d.Hostprof.gc_minor_words /. float_of_int units);
    ("gc.major_words_per_work", "words", d.Hostprof.gc_major_words /. float_of_int units);
  ]
  @ probe_metrics
  @ [ ("trace.overhead_x", "x", overhead) ]
  @ Sim_layers.metrics layers

(* Same minor-heap sizing as the repro CLI and bench: the simulator
   allocates tens of words per event, and GC scheduling never feeds back
   into simulated time. *)
let () =
  let a = parse_args () in
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 2 * 1024 * 1024 };
  (* Measure the engine, not the sweep-cell memo: every pass repeats the
     same cells. *)
  Run.set_cell_memo false;
  Pool.set_jobs 1;
  let cells = Workloads.cells a.workload ~seed:a.seed in
  Printf.printf "perfbench %s seed %d seconds %g trace %d: %d cells, %s per work unit\n%!"
    (Workloads.to_string a.workload) a.seed a.seconds
    (if a.trace then 1 else 0)
    (Array.length cells) (Workloads.work_unit a.workload);
  print_result (if a.trace then per_layer a cells else end_to_end a cells)
