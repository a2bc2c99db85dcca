open Pnp_engine

type class_ =
  | Virgin
  | Exclusive of int
  | Shared of string list
  | Shared_modified of string list

type state = { id : string; class_ : class_; accesses : int }

type cell = {
  mutable cls : class_;
  mutable init_ls : string list;
      (* locks consistently held by the initialising thread; seeds the
         candidate set when the state becomes shared *)
  mutable n : int;
  mutable last : Trace.record option; (* previous access, for the witness pair *)
  mutable reported : bool;
}

let inter a b = List.filter (fun l -> List.mem l b) a

let locks_str = function
  | [] -> "{}"
  | ls -> "{" ^ String.concat ", " ls ^ "}"

(* The tracer is usually enabled mid-run (the measurement window), so a
   thread can be holding locks whose grants predate the trace.  Such a
   hold is revealed by its release: a [Lock_release] for a lock the
   replay never saw granted.  Accesses by that thread up to its last
   unmatched release ran with an unknowable held-set and must not be
   classified. *)
let context_cutoffs tracer =
  let cutoff : (int, int) Hashtbl.t = Hashtbl.create 16 in
  Replay.replay tracer (fun ctx r ->
      match r.Trace.ev with
      | Trace.Lock_release { lock; _ } ->
        if not (List.mem lock (Replay.held ctx ~tid:r.Trace.tid)) then
          Hashtbl.replace cutoff r.Trace.tid r.Trace.ts
      | _ -> ());
  cutoff

type t = {
  cells : (string, cell) Hashtbl.t;
  cutoff : (int, int) Hashtbl.t;
  mutable findings : Finding.t list;
}

let create tracer =
  { cells = Hashtbl.create 32; cutoff = context_cutoffs tracer; findings = [] }

let incomplete_context t (r : Trace.record) =
  match Hashtbl.find_opt t.cutoff r.Trace.tid with
  | Some ts -> r.Trace.ts <= ts
  | None -> false

let step t ctx (r : Trace.record) =
  match r.Trace.ev with
  | Trace.Access { state = id; write } when not (incomplete_context t r) ->
    let c =
      match Hashtbl.find_opt t.cells id with
      | Some c -> c
      | None ->
        let c = { cls = Virgin; init_ls = []; n = 0; last = None; reported = false } in
        Hashtbl.replace t.cells id c;
        c
    in
    c.n <- c.n + 1;
    let tid = r.Trace.tid in
    let held = Replay.held ctx ~tid in
    let report ls =
      if not c.reported then begin
        c.reported <- true;
        let witnesses = match c.last with Some prev -> [ prev; r ] | None -> [ r ] in
        t.findings <-
          Finding.v ~checker:"lockset" ~subject:id ~witnesses
            (Printf.sprintf
               "candidate lockset went empty: %s by tid %d holding %s (candidates \
                were %s) — shared state is reachable without a consistent lock"
               (if write then "write" else "read")
               tid (locks_str held) (locks_str ls))
          :: t.findings
      end
    in
    (match c.cls with
     | Virgin ->
       c.cls <- Exclusive tid;
       c.init_ls <- held
     | Exclusive owner when owner = tid -> c.init_ls <- inter c.init_ls held
     | Exclusive _ ->
       (* Second thread: the candidate set is the locks the initialising
          thread consistently held, intersected with this access's held
          set. *)
       let ls' = inter c.init_ls held in
       if write then begin
         c.cls <- Shared_modified ls';
         if ls' = [] then report c.init_ls
       end
       else c.cls <- Shared ls'
     | Shared ls ->
       let ls' = inter ls held in
       if write then begin
         c.cls <- Shared_modified ls';
         if ls' = [] then report ls
       end
       else c.cls <- Shared ls'
     | Shared_modified ls ->
       let ls' = inter ls held in
       c.cls <- Shared_modified ls';
       if ls' = [] then report ls);
    c.last <- Some r
  | _ -> ()

let result t =
  let states =
    Hashtbl.fold (fun id c acc -> { id; class_ = c.cls; accesses = c.n } :: acc) t.cells []
    |> List.sort (fun a b -> compare a.id b.id)
  in
  (states, Finding.sort t.findings)

let run tracer = result (Replay.run tracer (create tracer) step)

let check tracer = snd (run tracer)
