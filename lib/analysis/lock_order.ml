open Pnp_engine

type edge = {
  first : string;
  second : string;
  holder : Trace.record;
  acquire : Trace.record;
}

(* Seen pairs keyed by [pair first second] of their lock ids. *)
module Pairs = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type t = edge Pairs.t

let create () : t = Pairs.create 64
let pair first second = (first lsl 30) lor second

let step (seen : t) ctx (r : Trace.record) =
  match r.Trace.ev with
  | Trace.Lock_grant { lock = second; _ } ->
    let id = Replay.id ctx in
    (* The oldest grant of a lock held twice comes first and wins. *)
    List.iter
      (fun (first_id, holder) ->
        let key = pair first_id id in
        if first_id <> id && not (Pairs.mem seen key) then
          Pairs.replace seen key
            { first = Replay.lock_name ctx first_id; second; holder; acquire = r })
      (Replay.held_grants ctx ~tid:r.Trace.tid)
  | _ -> ()

let edges_of (seen : t) =
  Pairs.fold (fun _ e acc -> e :: acc) seen []
  |> List.sort (fun a b ->
         match compare a.first b.first with 0 -> compare a.second b.second | c -> c)

let edges tracer = edges_of (Replay.run tracer (create ()) step)

(* Elementary cycles, each as the list of edges walked; every distinct
   (unordered) lock pair involved in an inversion is reported once. *)
let cycles es =
  let adj : (string, edge list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt adj e.first) in
      Hashtbl.replace adj e.first (cur @ [ e ]))
    es;
  let found = ref [] in
  let keys = ref [] in
  let report cycle =
    (* Dedupe by the set of locks on the cycle. *)
    let key = List.sort_uniq compare (List.map (fun e -> e.first) cycle) in
    if not (List.mem key !keys) then begin
      keys := key :: !keys;
      found := cycle :: !found
    end
  in
  let nodes =
    List.sort_uniq compare (List.concat_map (fun e -> [ e.first; e.second ]) es)
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
              if List.mem e.second on_path then begin
                (* Unwind the path back to where the cycle starts. *)
                let rec take = function
                  | [] -> []
                  | e' :: rest ->
                    if e'.first = e.second then [ e' ] else e' :: take rest
                in
                report (List.rev (e :: take path))
              end
              else dfs e.second (e :: path) (e.second :: on_path))
            (Option.value ~default:[] (Hashtbl.find_opt adj node))
      in
      dfs start [] [ start ];
      Hashtbl.replace visited start ())
    nodes;
  List.rev !found

let findings t =
  cycles (edges_of t)
  |> List.map (fun cycle ->
         let path =
           match cycle with
           | [] -> ""
           | first :: _ ->
             String.concat " -> " (List.map (fun e -> e.first) cycle @ [ first.first ])
         in
         let witnesses =
           List.concat_map (fun e -> [ e.holder; e.acquire ]) cycle
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

let check tracer = findings (Replay.run tracer (create ()) step)
