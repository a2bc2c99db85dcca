type ctx = { dir : string option }

let make ?dir () = { dir }
let disabled = { dir = None }

(* Minimal JSON emission: only strings and finite floats need care. *)
let escape = Pnp_engine.Trace.json_escape

let num v = if Float.is_finite v then Printf.sprintf "%.6g" v else "null"

(* Flat keys only: determinism tooling normalises the whole object away
   with a regexp that stops at the first closing brace. *)
let host_json (d : Hostprof.delta) =
  Printf.sprintf
    "{\"events\":%d,\"events_per_sec\":%s,\"gc_minor_words\":%s,\"gc_major_words\":%s,\"cell_hits\":%d,\"cell_misses\":%d,\"arena_hwm\":%d}"
    d.Hostprof.sim_events
    (num (Hostprof.events_per_sec d))
    (num d.Hostprof.gc_minor_words)
    (num d.Hostprof.gc_major_words)
    d.Hostprof.cell_hits d.Hostprof.cell_misses d.Hostprof.arena_hwm

let figure_json ~id ~jobs ~elapsed_s ?host tables =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "{\"figure\":\"%s\",\"jobs\":%d,\"elapsed_s\":%s,"
       (escape id) jobs (num elapsed_s));
  (match host with
  | Some d -> Buffer.add_string b (Printf.sprintf "\"host\":%s," (host_json d))
  | None -> ());
  Buffer.add_string b "\"tables\":[";
  List.iteri
    (fun i (t : Report.table) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"title\":\"%s\",\"unit\":\"%s\",\"series\":["
           (escape t.Report.title) (escape t.Report.unit_label));
      List.iteri
        (fun j (s : Report.series) ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "{\"label\":\"%s\",\"points\":[" (escape s.Report.label));
          List.iteri
            (fun k (p : Report.point) ->
              if k > 0 then Buffer.add_char b ',';
              Buffer.add_string b
                (Printf.sprintf "{\"procs\":%d,\"mean\":%s,\"ci90\":%s}" p.Report.procs
                   (num p.Report.mean) (num p.Report.ci90)))
            s.Report.points;
          Buffer.add_string b "]}")
        t.Report.series;
      Buffer.add_string b "]}")
    tables;
  Buffer.add_string b "]}\n";
  Buffer.contents b

let write_figure t ~id ~jobs ~elapsed_s ?host tables =
  match t.dir with
  | None -> ()
  | Some d ->
    let path = Filename.concat d (Printf.sprintf "BENCH_%s.json" id) in
    let oc = open_out path in
    output_string oc (figure_json ~id ~jobs ~elapsed_s ?host tables);
    close_out oc
