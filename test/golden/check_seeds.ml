(* Prints the whole [Check.run] of every distinct [repro check]
   configuration at seeds 1-10: findings with their witness lines,
   lockset states, lockset findings, happens-before races and reorder
   statistics.  check_seeds.expected pins it, so a change to the replay
   or a checker that moves any of them shows as a diff. *)

open Pnp_harness
open Pnp_analysis

let seeds = List.init 10 (fun i -> i + 1)

let distinct =
  List.fold_left
    (fun acc (s : Check_scenarios.t) ->
      if List.exists (fun (p : Check_scenarios.t) -> p.cfg = s.cfg) acc then acc
      else s :: acc)
    [] Check_scenarios.all
  |> List.rev

let locks ls = "{" ^ String.concat ", " ls ^ "}"

let class_ = function
  | Lockset.Virgin -> "virgin"
  | Lockset.Exclusive tid -> Printf.sprintf "exclusive tid %d" tid
  | Lockset.Shared ls -> "shared " ^ locks ls
  | Lockset.Shared_modified ls -> "shared-modified " ^ locks ls

let () =
  List.iter
    (fun (s : Check_scenarios.t) ->
      List.iter
        (fun seed ->
          let _, tracer = Run.run_traced { s.cfg with Config.seed } in
          let c = Check.run tracer in
          Printf.printf "== %s %s seed %d: %d records\n" s.tag s.label seed
            (Pnp_engine.Trace.count tracer);
          List.iter (fun f -> Format.printf "%a@." Finding.pp f) c.Check.findings;
          List.iter
            (fun (st : Lockset.state) ->
              Printf.printf "state %s: %s, %d accesses\n" st.Lockset.id (class_ st.Lockset.class_)
                st.Lockset.accesses)
            c.Check.states;
          List.iter
            (fun (f : Finding.t) -> Printf.printf "lockset %s\n" f.Finding.subject)
            c.Check.lockset;
          List.iter (Printf.printf "race %s\n") c.Check.races;
          List.iter
            (fun (o : Order_check.lock_stat) ->
              Printf.printf "order %s (%s): %d grants, %d reordered, window %d\n"
                o.Order_check.lock
                (Option.value ~default:"-" o.Order_check.discipline)
                o.Order_check.grants o.Order_check.reordered o.Order_check.max_window)
            c.Check.order)
        seeds)
    distinct
