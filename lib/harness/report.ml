open Pnp_util

type point = { procs : int; mean : float; ci90 : float }
type series = { label : string; points : point list }
type table = { title : string; unit_label : string; axis : string; series : series list }

let table ~title ~unit_label ?(axis = "procs") series = { title; unit_label; axis; series }

(* One sweep cell = one (processor count, seed) pair.  The cells are
   independent seeded simulations, so they fan out across the worker
   pool; results come back in input order, which keeps every derived
   table identical to the serial run. *)
let metric_series ~label ~procs ~seeds ~metric cfg_of_procs =
  let cells =
    List.concat_map (fun p -> List.init seeds (fun s -> (p, s))) procs
  in
  let results =
    Pool.map
      (fun (p, s) ->
        let cfg = cfg_of_procs p in
        metric (Run.run { cfg with Config.seed = cfg.Config.seed + s }))
      cells
  in
  (* Regroup the flat cell results: [seeds] consecutive values per
     processor count, in sweep order. *)
  let rec chunk = function
    | [] -> []
    | vs ->
      let rec split i acc = function
        | rest when i = seeds -> (List.rev acc, rest)
        | v :: rest -> split (i + 1) (v :: acc) rest
        | [] -> invalid_arg "Report.metric_series: short result list"
      in
      let mine, rest = split 0 [] vs in
      mine :: chunk rest
  in
  let points =
    List.map2
      (fun p vs ->
        let s = Stats.summary vs in
        { procs = p; mean = s.Stats.mean; ci90 = s.Stats.ci90 })
      procs (chunk results)
  in
  { label; points }

let throughput_series ~label ~procs ~seeds cfg_of_procs =
  metric_series ~label ~procs ~seeds ~metric:(fun r -> r.Run.throughput_mbps) cfg_of_procs

let speedup s =
  match s.points with
  | [] -> s
  | first :: _ ->
    let base = first.mean in
    if base <= 0.0 then s
    else
      {
        s with
        points =
          List.map
            (fun p -> { p with mean = p.mean /. base; ci90 = p.ci90 /. base })
            s.points;
      }

let print_table ~title ~unit_label ?(axis = "procs") series =
  Printf.printf "\n== %s ==\n" title;
  let width = List.fold_left (fun w s -> max w (String.length s.label)) 14 series in
  let width = width + 2 in
  (* A long axis name borrows from the first label's padding, so the
     value columns stay where the rows print them. *)
  let overflow = max 0 (String.length axis - 6) in
  Printf.printf "%-6s" axis;
  List.iteri
    (fun i s -> Printf.printf "%*s" (if i = 0 then width - overflow else width) s.label)
    series;
  Printf.printf "   (%s)\n" unit_label;
  let all_procs =
    List.sort_uniq compare
      (List.concat_map (fun s -> List.map (fun p -> p.procs) s.points) series)
  in
  List.iter
    (fun procs ->
      Printf.printf "%-6d" procs;
      List.iter
        (fun s ->
          match List.find_opt (fun p -> p.procs = procs) s.points with
          | Some p -> Printf.printf "%*s" width (Printf.sprintf "%.1f ±%.1f" p.mean p.ci90)
          | None -> Printf.printf "%*s" width "-")
        series;
      print_newline ())
    all_procs;
  flush stdout

let print t = print_table ~title:t.title ~unit_label:t.unit_label ~axis:t.axis t.series

let value_at s procs =
  match List.find_opt (fun p -> p.procs = procs) s.points with
  | Some p -> p.mean
  | None -> raise Not_found

(* Jain's fairness index: (sum x)^2 / (n * sum x^2).  1.0 = perfectly
   even shares; 1/n = one flow has everything.  All-zero allocations are
   treated as perfectly fair (nobody got anything, evenly). *)
let jain = function
  | [] -> 1.0
  | xs ->
    let s = List.fold_left ( +. ) 0.0 xs in
    let s2 = List.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
    if s2 = 0.0 then 1.0
    else s *. s /. (float_of_int (List.length xs) *. s2)

(* Nearest-rank percentile on a copy of the input; [p] in [0, 100]. *)
let percentile p xs =
  match xs with
  | [] -> invalid_arg "Report.percentile: empty list"
  | _ ->
    if p < 0.0 || p > 100.0 then invalid_arg "Report.percentile: p out of range";
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* Table-1-style contention attribution: where the blocked time went,
   lock by lock, over the traced window; the 20 worst locks get a row. *)
let print_lock_table tracer =
  let open Pnp_engine in
  let stats = Trace.lock_table tracer in
  let total_wait =
    List.fold_left (fun acc s -> acc + s.Trace.wait_ns) 0 stats
  in
  Printf.printf "\n== Lock contention (traced window) ==\n";
  if stats = [] then print_string "  (no lock events recorded)\n"
  else begin
    let ms ns = float_of_int ns /. 1e6 in
    Printf.printf "%-28s %9s %9s %10s %10s %10s %6s %7s\n" "lock" "acqs" "contend"
      "wait ms" "hold ms" "handoff ms" "maxQ" "wait%";
    let shown = ref 0 in
    List.iter
      (fun s ->
        if !shown < 20 then begin
          incr shown;
          Printf.printf "%-28s %9d %9d %10.3f %10.3f %10.3f %6d %6.1f%%\n"
            s.Trace.lock s.Trace.acquisitions s.Trace.contended (ms s.Trace.wait_ns)
            (ms s.Trace.hold_ns) (ms s.Trace.handoff_ns) s.Trace.max_queue
            (if total_wait > 0 then
               100.0 *. float_of_int s.Trace.wait_ns /. float_of_int total_wait
             else 0.0)
        end)
      stats;
    let hidden = List.length stats - !shown in
    if hidden > 0 then Printf.printf "  ... %d more locks\n" hidden
  end;
  flush stdout

(* Host-side profile: how fast the harness itself ran a workload.  This
   is presentation (stdout, main domain) — the numbers describe the host
   machine, so it must never appear in figure data output that the
   determinism CI diffs byte-for-byte. *)
let print_host_profile ?(title = "Host profile") (d : Hostprof.delta) =
  Printf.printf "\n== %s ==\n" title;
  Printf.printf "  %-22s %12.3f s\n" "wall clock" d.Hostprof.elapsed_s;
  Printf.printf "  %-22s %12d\n" "simulated events" d.Hostprof.sim_events;
  Printf.printf "  %-22s %12.0f\n" "events / host sec" (Hostprof.events_per_sec d);
  Printf.printf "  %-22s %12.2f M\n" "GC minor words"
    (d.Hostprof.gc_minor_words /. 1e6);
  Printf.printf "  %-22s %12.2f M\n" "GC major words"
    (d.Hostprof.gc_major_words /. 1e6);
  Printf.printf "  %-22s %6d hit / %d miss (%.1f%% hit)\n" "sweep-cell memo"
    d.Hostprof.cell_hits d.Hostprof.cell_misses (Hostprof.cell_hit_pct d);
  Printf.printf "  %-22s %12.2f MB\n" "arena high-water"
    (float_of_int d.Hostprof.arena_hwm /. 1e6);
  flush stdout
