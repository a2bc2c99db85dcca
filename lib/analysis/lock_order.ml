open Pnp_engine

(* A held-before edge: the lock already held, the lock granted while
   holding it, and the rows of the two grants, made records only for an
   edge a finding reports. *)
type seen = { held : string; taken : string; held_at : Trace.pos; taken_at : Trace.pos }

(* [last.(first)] is the lock last seen granted while [first] was held
   (or -1): the pair a thread repeats most, answered without hashing. *)
type t = {
  ctx : Replay.ctx;
  seen : seen Replay.Pairs.t; (* by [Replay.pair first second] of their lock ids *)
  mutable last : int array;
}

let create ctx = { ctx; seen = Replay.Pairs.create 64; last = [||] }

let grant t row =
  let ctx = t.ctx and tid = Trace.Row.tid row in
  let id = Replay.id ctx in
  (* The oldest grant of a lock held twice comes first and wins. *)
  for i = 0 to Replay.held_count ctx ~tid - 1 do
    let first = Replay.held_id ctx ~tid i in
    t.last <- Replay.grow t.last first (-1);
    if first <> id && t.last.(first) <> id then begin
      t.last.(first) <- id;
      let key = Replay.pair first id in
      if not (Replay.Pairs.mem t.seen key) then
        Replay.Pairs.replace t.seen key
          {
            held = Replay.lock_name ctx first;
            taken = Replay.lock_name ctx id;
            held_at = Replay.held_grant ctx ~tid i;
            taken_at = Trace.Row.pos row;
          }
    end
  done

let seen_edges t =
  Replay.Pairs.fold (fun _ e acc -> e :: acc) t.seen []
  |> List.sort (fun a b -> match compare a.held b.held with 0 -> compare a.taken b.taken | c -> c)

(* Elementary cycles, each as the list of edges walked; every distinct
   (unordered) lock pair involved in an inversion is reported once. *)
let cycles es =
  let adj : (string, seen list) Hashtbl.t = Hashtbl.create 16 in
  (* Each lock's out-edges in the order of [es]. *)
  List.iter
    (fun e ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt adj e.held) in
      Hashtbl.replace adj e.held (e :: cur))
    (List.rev es);
  let found = ref [] in
  let keys = ref [] in
  let report cycle =
    (* Dedupe by the set of locks on the cycle. *)
    let key = List.sort_uniq compare (List.map (fun e -> e.held) cycle) in
    if not (List.mem key !keys) then begin
      keys := key :: !keys;
      found := cycle :: !found
    end
  in
  let nodes =
    List.sort_uniq compare (List.concat_map (fun e -> [ e.held; e.taken ]) es)
  in
  let visited = Hashtbl.create 16 in
  List.iter
    (fun start ->
      (* DFS with an explicit path of edges (newest first); stepping onto a
         node already on the path closes a cycle.  Nodes fully explored as
         an earlier root are skipped: any cycle through them was already
         found from that root. *)
      let rec dfs node path on_path =
        if not (Hashtbl.mem visited node) || path = [] then
          List.iter
            (fun e ->
              if List.mem e.taken on_path then begin
                (* Unwind the path back to where the cycle starts. *)
                let rec take = function
                  | [] -> []
                  | e' :: rest ->
                    if e'.held = e.taken then [ e' ] else e' :: take rest
                in
                report (List.rev (e :: take path))
              end
              else dfs e.taken (e :: path) (e.taken :: on_path))
            (Option.value ~default:[] (Hashtbl.find_opt adj node))
      in
      dfs start [] [ start ];
      Hashtbl.replace visited start ())
    nodes;
  List.rev !found

let findings t =
  cycles (seen_edges t)
  |> List.map (fun cycle ->
         let path =
           match cycle with
           | [] -> ""
           | first :: _ -> String.concat " -> " (List.map (fun e -> e.held) cycle @ [ first.held ])
         in
         let witnesses =
           List.concat_map
             (fun e -> [ Replay.record t.ctx e.held_at; Replay.record t.ctx e.taken_at ])
             cycle
           |> List.sort_uniq (fun (a : Trace.record) b ->
                  match compare a.Trace.ts b.Trace.ts with
                  | 0 -> compare a b
                  | c -> c)
         in
         Finding.v ~checker:"lock-order" ~subject:path ~witnesses
           (Printf.sprintf
              "lock-order cycle over %d lock(s): threads acquire these locks in \
               conflicting orders, a potential deadlock"
              (List.length cycle)))
  |> Finding.sort
