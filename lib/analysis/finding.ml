open Pnp_engine

type t = {
  checker : string;
  subject : string;
  message : string;
  witnesses : Trace.record list;
}

let v ?(witnesses = []) ~checker ~subject message =
  { checker; subject; message; witnesses }

let ev_label (ev : Trace.ev) =
  match ev with
  | Trace.Thread_spawn { name } -> "spawn " ^ name
  | Thread_fork { child } -> Printf.sprintf "fork tid %d" child
  | Thread_exit -> "exit"
  | Lock_request { lock; waiters } -> Printf.sprintf "request %s (waiters %d)" lock waiters
  | Lock_grant { lock; wait_ns; _ } -> Printf.sprintf "grant %s (waited %d ns)" lock wait_ns
  | Lock_handoff { lock; to_tid; _ } -> Printf.sprintf "handoff %s -> tid %d" lock to_tid
  | Lock_release { lock; hold_ns } -> Printf.sprintf "release %s (held %d ns)" lock hold_ns
  | Gate_take { gate; ticket } -> Printf.sprintf "ticket %d of %s" ticket gate
  | Gate_pass { gate; ticket; _ } -> Printf.sprintf "pass %d of %s" ticket gate
  | Gate_advance { gate; serving } -> Printf.sprintf "advance %s to %d" gate serving
  | Membus_charge { bytes; _ } -> Printf.sprintf "membus %d B" bytes
  | Mpool_alloc { hit } -> if hit then "mpool hit" else "mpool miss"
  | Mnode_alloc { node } -> Printf.sprintf "alloc mnode %d" node
  | Mnode_ref { node; refs } -> Printf.sprintf "ref mnode %d -> %d" node refs
  | Mnode_unref { node; refs } -> Printf.sprintf "unref mnode %d -> %d" node refs
  | Mnode_recycle { node } -> Printf.sprintf "recycle mnode %d" node
  | Mnode_write { node } -> Printf.sprintf "write mnode %d" node
  | Span_begin { seq; phase } -> Printf.sprintf "begin %s seq %d" (Trace.pp_phase phase) seq
  | Span_end { seq; phase } -> Printf.sprintf "end %s seq %d" (Trace.pp_phase phase) seq
  | Access { state; write } ->
    Printf.sprintf "%s %s" (if write then "write" else "read") state
  | Fault_drop { cause } -> "fault drop " ^ cause
  | Fault_dup { copies } -> Printf.sprintf "fault dup +%d" copies
  | Fault_corrupt { off; bit } -> Printf.sprintf "fault corrupt byte %d bit %d" off bit
  | Fault_reorder { delay_ns } -> Printf.sprintf "fault reorder +%d ns" delay_ns
  | Scr_append { log; idx } -> Printf.sprintf "scr append %s[%d]" log idx
  | Scr_apply { log; idx } -> Printf.sprintf "scr apply %s[%d]" log idx
  | Scr_apply_end { log; idx } -> Printf.sprintf "scr apply-end %s[%d]" log idx
  | Scr_replay { log; upto } -> Printf.sprintf "scr replay %s upto %d" log upto
  | Rcu_read { state } -> "rcu read " ^ state
  | Rcu_publish { state } -> "rcu publish " ^ state

(* Every finding is an error; the [error] prefix is part of the report
   format. *)
let pp fmt t =
  Format.fprintf fmt "[error] %s: %s: %s" t.checker t.subject t.message;
  List.iter
    (fun (r : Trace.record) ->
      Format.fprintf fmt "@\n    witness: t=%d ns tid=%d cpu=%d  %s" r.Trace.ts
        r.Trace.tid r.Trace.cpu (ev_label r.Trace.ev))
    t.witnesses

let to_string t = Format.asprintf "%a" pp t

let sort ts =
  List.stable_sort
    (fun a b ->
      match compare a.checker b.checker with
      | 0 -> compare a.subject b.subject
      | c -> c)
    ts

(* Identical (checker, site, message) findings collapse to the first
   occurrence: re-running checkers over the same trace, or one defect
   witnessed through several replay passes, must not multiply the
   report.  Witnesses are deliberately left out of the key — the same
   defect seen at two timestamps is still one defect. *)
let dedupe ts =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun t ->
      let key = (t.checker, t.subject, t.message) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    ts

(* Checker families with a stable exit-code bit each, so CI can tell a
   race from a lifetime defect from anything else without parsing the
   report.  New checkers must map themselves here. *)
type family = Race | Lifetime | Order

let family t =
  match t.checker with
  | "lockset" | "hb-race" -> Race
  | "lifetime" -> Lifetime
  | _ -> Order

let family_bit = function Race -> 1 | Lifetime -> 2 | Order -> 4

let exit_code ts =
  List.fold_left (fun acc t -> acc lor family_bit (family t)) 0 ts
