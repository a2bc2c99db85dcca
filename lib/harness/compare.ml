open Pnp_proto
open Pnp_faults

type row = {
  label : string;
  lock_disc : string;
  tcp_locking : string;
  outcome : Overload.outcome;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
}

(* Data-driven registration.  A cell is scenario x variant: scenarios
   supply the workload builder, variants supply the knob settings along
   two axes — the fault axis (clean / burst loss / bounded pool) and the
   lock axis (discipline x granularity).  Adding a scenario or a variant
   is one list entry; nothing else changes. *)

type variant = {
  v_label : string;
  v_plan : Faults.plan option;
  v_pool_capacity : int option;
  v_sb_policy : Sockbuf.policy option;
  v_lock_disc : Pnp_engine.Lock.discipline;
  v_tcp_locking : Tcp.locking;
}

let variant ?plan ?pool_capacity ?sb_policy
    ?(lock_disc = Pnp_engine.Lock.Unfair) ?(tcp_locking = Tcp.One) label =
  {
    v_label = label;
    v_plan = plan;
    v_pool_capacity = pool_capacity;
    v_sb_policy = sb_policy;
    v_lock_disc = lock_disc;
    v_tcp_locking = tcp_locking;
  }

(* The lock axis: every lock discipline (mutex / MCS / barging grant
   policy) against every state-locking granularity including the
   replication disciplines, on the clean link.  SCR never touches the
   connection lock, so its three discipline rows should agree — a
   built-in cross-check that the matrix labels mean what they say. *)
let lock_axis =
  List.concat_map
    (fun disc ->
      List.map
        (fun lk ->
          variant ~lock_disc:disc ~tcp_locking:lk
            (Config.disc_label disc ^ "+" ^ Config.locking_label lk))
        [ Tcp.One; Tcp.Two; Tcp.Six; Tcp.Scr; Tcp.Rcu ])
    [ Pnp_engine.Lock.Unfair; Pnp_engine.Lock.Fifo; Pnp_engine.Lock.Barging ]

(* The fault axis keeps the original five labels stable for downstream
   consumers of COMPARE.json. *)
let fault_axis_incast =
  [
    variant "baseline";
    variant ~plan:Faults.burst "burst";
    variant ~pool_capacity:200 ~sb_policy:Sockbuf.Drop "bounded-pool";
  ]

let fault_axis_bottleneck = [ variant "baseline"; variant ~plan:Faults.burst "burst" ]

type scenario = {
  s_name : string;
  s_variants : variant list;
  s_build :
    senders:int -> bytes_per_flow:int -> seed:int -> variant -> Overload.outcome;
}

let scenarios =
  [
    {
      s_name = "incast";
      s_variants = fault_axis_incast @ lock_axis;
      s_build =
        (fun ~senders ~bytes_per_flow ~seed v ->
          Overload.incast ?plan:v.v_plan ~senders ~bytes_per_flow ~seed
            ?sb_policy:v.v_sb_policy ?pool_capacity:v.v_pool_capacity
            ~lock_disc:v.v_lock_disc ~tcp_locking:v.v_tcp_locking ());
    };
    {
      (* The paced fairness workload keeps its scenario defaults for
         senders/bytes; only the variant knobs vary. *)
      s_name = "bottleneck";
      s_variants = fault_axis_bottleneck @ lock_axis;
      s_build =
        (fun ~senders:_ ~bytes_per_flow:_ ~seed v ->
          Overload.shared_bottleneck ?plan:v.v_plan ~seed ?sb_policy:v.v_sb_policy
            ?pool_capacity:v.v_pool_capacity ~lock_disc:v.v_lock_disc
            ~tcp_locking:v.v_tcp_locking ());
    };
  ]

(* Every cell is fully seeded and runs its own simulation world, so the
   matrix is safe for {!Pool.map} and its output is byte-identical at
   any [-j]. *)
let cells ~senders ~bytes_per_flow ~seed =
  List.concat_map
    (fun s ->
      List.map
        (fun v ->
          ( s.s_name ^ "/" ^ v.v_label,
            v,
            fun () -> s.s_build ~senders ~bytes_per_flow ~seed v ))
        s.s_variants)
    scenarios

let run ?(senders = 32) ?(bytes_per_flow = 4096) ?(seed = 1) () =
  let cs = cells ~senders ~bytes_per_flow ~seed in
  let outcomes = Pool.map (fun (_, _, cell) -> cell ()) cs in
  List.map2
    (fun (label, v, _) o ->
      {
        label;
        lock_disc = Config.disc_label v.v_lock_disc;
        tcp_locking = Config.locking_label v.v_tcp_locking;
        outcome = o;
        p50_ms = Overload.completion_ms 50.0 o;
        p90_ms = Overload.completion_ms 90.0 o;
        p99_ms = Overload.completion_ms 99.0 o;
      })
    cs outcomes

let passed rows = List.for_all (fun r -> Overload.passed r.outcome) rows

let print rows =
  Printf.printf "%-24s %-10s %5s %5s %5s %10s %7s %9s %9s %9s %6s %7s %7s %s\n"
    "scenario" "plan" "n" "acc" "done" "good Mb/s" "jain" "p50 ms" "p90 ms" "p99 ms"
    "drops" "rexmit" "stalls" "verdict";
  List.iter
    (fun r ->
      let o = r.outcome in
      Printf.printf
        "%-24s %-10s %5d %5d %5d %10.2f %7.3f %9.2f %9.2f %9.2f %6d %7d %7d %s\n"
        r.label o.Overload.plan_name o.Overload.senders o.Overload.accepted
        o.Overload.completed o.Overload.goodput_mbps o.Overload.fairness r.p50_ms
        r.p90_ms r.p99_ms
        (Pnp_analysis.Recovery.total_drops o.Overload.drops)
        o.Overload.rexmits
        (List.length o.Overload.stalls)
        (if Overload.passed o then "PASS" else "FAIL");
      if not (Overload.passed o) then
        List.iter
          (fun f -> Format.printf "  %a@." Pnp_analysis.Finding.pp f)
          o.Overload.findings)
    rows;
  Printf.printf "compare: %d scenario(s), %d failed\n" (List.length rows)
    (List.length (List.filter (fun r -> not (Overload.passed r.outcome)) rows))

let to_json rows =
  let esc = Pnp_engine.Trace.json_escape in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"compare\":[";
  List.iteri
    (fun i r ->
      let o = r.outcome in
      let d = o.Overload.drops in
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"label\":\"%s\",\"scenario\":\"%s\",\"plan\":\"%s\",\
            \"lock_disc\":\"%s\",\"tcp_locking\":\"%s\",\"senders\":%d,\
            \"bytes_per_flow\":%d,\"accepted\":%d,\"completed\":%d,\
            \"elapsed_ns\":%d,\"goodput_mbps\":%.3f,\"fairness\":%.4f,\
            \"p50_ms\":%.3f,\"p90_ms\":%.3f,\"p99_ms\":%.3f,\
            \"drops\":{\"link\":%d,\"pool_pressure\":%d,\"syn_backlog\":%d,\
            \"sockbuf_full\":%d,\"checksum\":%d},\"rexmits\":%d,\"stalls\":%d,\
            \"findings\":%d,\"passed\":%b}"
           (esc r.label) (esc o.Overload.scenario) (esc o.Overload.plan_name)
           (esc r.lock_disc) (esc r.tcp_locking) o.Overload.senders
           o.Overload.bytes_per_flow o.Overload.accepted o.Overload.completed
           o.Overload.elapsed_ns o.Overload.goodput_mbps o.Overload.fairness
           r.p50_ms r.p90_ms r.p99_ms d.Pnp_analysis.Recovery.link
           d.Pnp_analysis.Recovery.pool_pressure d.Pnp_analysis.Recovery.syn_backlog
           d.Pnp_analysis.Recovery.sockbuf_full d.Pnp_analysis.Recovery.checksum
           o.Overload.rexmits
           (List.length o.Overload.stalls)
           (List.length o.Overload.findings)
           (Overload.passed o)))
    rows;
  Buffer.add_string b "]}\n";
  Buffer.contents b
