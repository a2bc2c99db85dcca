open Pnp_engine

type t = {
  findings : Finding.t list;
  states : Lockset.state list;
  lockset : Finding.t list;
  races : string list;
  order : Order_check.lock_stat list;
}

(* Every checker in one traversal.  This one match is the router: it
   hands each row to the checkers that read its kind.  Only
   [Order_check.stats] routes rows again, its two lock kinds alone. *)
let run tracer =
  let ctx = Replay.create tracer in
  let ls = Lockset.create ctx in
  let hb = Hb.create ctx in
  let lt = Lifetime.create ctx in
  let lo = Lock_order.create ctx in
  let oc = Order_check.create ctx in
  Replay.replay ctx (fun row ->
      match Trace.Row.kind row with
      | Trace.Kind.Mnode_alloc | Trace.Kind.Mnode_ref | Trace.Kind.Mnode_unref
      | Trace.Kind.Mnode_recycle | Trace.Kind.Mnode_write ->
        Lifetime.step lt row
      | Trace.Kind.Access ->
        Lockset.access ls row;
        Hb.access hb row
      | Trace.Kind.Lock_request -> Order_check.request oc row
      | Trace.Kind.Lock_grant ->
        Hb.sync hb row;
        Lock_order.grant lo row;
        Order_check.grant oc row
      | Trace.Kind.Lock_release ->
        Lockset.release ls row;
        Hb.sync hb row
      | Trace.Kind.Thread_fork | Trace.Kind.Gate_pass | Trace.Kind.Gate_advance
      | Trace.Kind.Membus_charge | Trace.Kind.Scr_append | Trace.Kind.Scr_apply
      | Trace.Kind.Scr_apply_end ->
        Hb.sync hb row
      | _ -> ());
  let states, lockset = Lockset.result ls in
  {
    findings =
      Finding.dedupe
        (Finding.sort
           (lockset @ Hb.findings hb @ Lifetime.findings lt @ Lock_order.findings lo
          @ Order_check.findings oc));
    states;
    lockset;
    races = Hb.races hb;
    order = Order_check.stats_of oc;
  }

let all tracer = (run tracer).findings
