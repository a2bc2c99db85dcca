type t = {
  findings : Finding.t list;
  states : Lockset.state list;
  lockset : Finding.t list;
  races : string list;
  order : Order_check.lock_stat list;
}

(* Every checker's step in one traversal. *)
let run tracer =
  let ls = Lockset.create () in
  let hb = Hb.create () in
  let lt = Lifetime.create () in
  let lo = Lock_order.create () in
  let oc = Order_check.create tracer in
  Replay.replay tracer (fun ctx r ->
      Lockset.step ls ctx r;
      Hb.step hb ctx r;
      Lifetime.step lt ctx r;
      Lock_order.step lo ctx r;
      Order_check.step oc ctx r);
  let states, lockset = Lockset.result ls in
  {
    findings =
      Finding.dedupe
        (Finding.sort
           (lockset @ Hb.findings hb @ Lifetime.findings lt @ Lock_order.findings lo
          @ Order_check.findings oc));
    states;
    lockset;
    races = List.map (fun (r : Hb.race) -> r.Hb.state) (Hb.races_of hb);
    order = Order_check.stats_of oc;
  }

let all tracer = (run tracer).findings
