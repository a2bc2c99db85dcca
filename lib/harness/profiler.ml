(* Flamegraph-friendly sampling profiler for the host engine.

   `repro gate --profile FILE` and `repro perf --profile FILE` need to say
   *where* host time goes when the events-per-second figure moves, not
   just that it moved.  OCaml has no built-in sampling profiler, but it
   has the two halves of one: [Unix.setitimer ITIMER_PROF] delivers
   SIGPROF every quantum of consumed CPU time, and
   [Printexc.get_callstack] captures the current call stack from any
   OCaml code — including a signal handler, which the runtime runs at
   the program's next safe point, i.e. on top of the frames we want.

   Each sample is collapsed to a "root;caller;...;leaf" line keyed in a
   table of counts; [write] emits the classic collapsed-stacks format
   ("stack count" per line) that flamegraph.pl, speedscope and most
   flamegraph viewers consume directly.

   Caveats, stated rather than hidden: samples land on safe points, so
   allocation-free loops under-sample (the sift loops in Eventq bias
   toward their callers), and frame names come from debug info —
   functions inlined by flambda-less OCaml keep their names, which is
   the common case for this repo's builds. *)

type t = {
  counts : (string, int ref) Hashtbl.t;
  mutable samples : int;
}

let max_depth = 64

(* One profiler can run at a time (SIGPROF is process-wide). *)
let active : t option ref = ref None

let frame_name slot =
  match Printexc.Slot.name slot with
  | Some n -> n
  | None -> (
    match Printexc.Slot.location slot with
    | Some loc -> Printf.sprintf "%s:%d" loc.Printexc.filename loc.Printexc.line_number
    | None -> "?")

(* One collapsed line from frame names, outermost first.  An unnamed
   ["?"] frame is folded into its nearest named caller (dropped, so its
   samples count as that caller's); the handler's own frames, which sit
   below the program's, are dropped too. *)
let collapse frames =
  let keep f =
    f <> "?" && f <> "Pnp_harness__Profiler.handler" && f <> "Pnp_harness__Profiler.record"
  in
  match List.filter keep frames with [] -> "(unknown)" | named -> String.concat ";" named

let record t raw =
  t.samples <- t.samples + 1;
  let n = Printexc.raw_backtrace_length raw in
  (* The raw backtrace is leaf first: index n-1 is the outermost frame. *)
  let slot i = Printexc.convert_raw_backtrace_slot (Printexc.get_raw_backtrace_slot raw i) in
  let key = collapse (List.init n (fun i -> frame_name (slot (n - 1 - i)))) in
  match Hashtbl.find_opt t.counts key with
  | Some r -> incr r
  | None -> Hashtbl.replace t.counts key (ref 1)

let handler _ =
  match !active with
  | None -> ()
  | Some t -> record t (Printexc.get_callstack max_depth)

(* Start sampling at 997 Hz — prime, so the sampler does not phase-lock
   with millisecond-periodic work. *)
let start () =
  if !active <> None then invalid_arg "Profiler.start: already profiling";
  let interval_us = 1_000_000 / 997 in
  let t = { counts = Hashtbl.create 1024; samples = 0 } in
  active := Some t;
  ignore (Sys.signal Sys.sigprof (Sys.Signal_handle handler));
  let v = float_of_int interval_us /. 1e6 in
  ignore
    (Unix.setitimer Unix.ITIMER_PROF
       { Unix.it_interval = v; it_value = v });
  t

let stop t =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.0; it_value = 0.0 });
  ignore (Sys.signal Sys.sigprof Sys.Signal_default);
  active := None;
  t.samples

(* Collapsed-stacks output, heaviest stack first so a plain `sort | head`
   or an eyeball both work without tooling. *)
let write t file =
  let rows = Hashtbl.fold (fun k v acc -> (k, !v) :: acc) t.counts [] in
  let rows = List.sort (fun (_, a) (_, b) -> compare b a) rows in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter (fun (stack, n) -> Printf.fprintf oc "%s %d\n" stack n) rows)

(* Run [f] under the profiler and write the profile; returns [f ()]'s
   result and the sample count. *)
let profile ~file f =
  let t = start () in
  let finish () = ignore (stop t); write t file in
  match f () with
  | v ->
    finish ();
    (v, t.samples)
  | exception e ->
    finish ();
    raise e
