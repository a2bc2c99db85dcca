type t = {
  sim : Sim.t;
  arch : Arch.t;
  name : string;
  mutable next_ticket : int;
  mutable serving : int;
  mutable waiting : (int -> unit) array; (* ring: ticket k at [k land (len-1)] *)
}

let no_waiter (_ : int) = ()

let create sim arch ~name = { sim; arch; name; next_ticket = 0; serving = 0; waiting = [||] }

(* Grow the ring until it holds ticket [n].  Every waiting ticket lies in
   [serving, serving + len), so re-slotting that window keeps each one. *)
let rec cover t n =
  let len = Array.length t.waiting in
  if n - t.serving >= len then begin
    let ring = Array.make (max 8 (2 * len)) no_waiter in
    for k = t.serving to t.serving + len - 1 do
      ring.(k land (Array.length ring - 1)) <- t.waiting.(k land (len - 1))
    done;
    t.waiting <- ring;
    cover t n
  end

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
          cover t n;
          let i = n land (Array.length t.waiting - 1) in
          if t.waiting.(i) != no_waiter then
            failwith (Printf.sprintf "Gate.await %S: duplicate ticket %d" t.name n);
          t.waiting.(i) <- resume);
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
  let len = Array.length t.waiting in
  let i = t.serving land (len - 1) in
  if len > 0 && t.waiting.(i) != no_waiter then begin
    let resume = t.waiting.(i) in
    t.waiting.(i) <- no_waiter;
    resume (Sim.now t.sim)
  end

let serving t = t.serving
let tickets_issued t = t.next_ticket
