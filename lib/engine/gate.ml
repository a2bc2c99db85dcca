type t = {
  sim : Sim.t;
  arch : Arch.t;
  name : string;
  mutable next_ticket : int;
  mutable serving : int;
  waiting : (int, int -> unit) Hashtbl.t; (* ticket -> resume *)
}

let create sim arch ~name =
  { sim; arch; name; next_ticket = 0; serving = 0; waiting = Hashtbl.create 16 }

let take t =
  Sim.delay t.sim t.arch.Arch.atomic_ns;
  let n = t.next_ticket in
  t.next_ticket <- n + 1;
  if Trace.enabled (Sim.tracer t.sim) then
    Sim.trace t.sim (Trace.Gate_take { gate = t.name; ticket = n });
  n

let await t n =
  if n < t.serving then
    failwith (Printf.sprintf "Gate.await %S: ticket %d already served" t.name n);
  let waited =
    if n > t.serving then begin
      let enq = Sim.now t.sim in
      Sim.suspend t.sim (fun resume ->
          if Hashtbl.mem t.waiting n then
            failwith (Printf.sprintf "Gate.await %S: duplicate ticket %d" t.name n);
          Hashtbl.replace t.waiting n resume);
      let waited = Sim.now t.sim - enq in
      Sim.note_wait (Sim.self t.sim) waited;
      waited
    end
    else 0
  in
  if Trace.enabled (Sim.tracer t.sim) then
    Sim.trace t.sim (Trace.Gate_pass { gate = t.name; ticket = n; wait_ns = waited })

let advance t =
  Sim.delay t.sim t.arch.Arch.atomic_ns;
  t.serving <- t.serving + 1;
  (* The signal half of the gate's ordering edge, emitted before the
     next ticket holder is resumed so it precedes that thread's
     [Gate_pass] in the trace. *)
  if Trace.enabled (Sim.tracer t.sim) then
    Sim.trace t.sim (Trace.Gate_advance { gate = t.name; serving = t.serving });
  match Hashtbl.find_opt t.waiting t.serving with
  | None -> ()
  | Some resume ->
    Hashtbl.remove t.waiting t.serving;
    resume (Sim.now t.sim)

let serving t = t.serving
let tickets_issued t = t.next_ticket
