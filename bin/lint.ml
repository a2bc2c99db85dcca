(* Source-invariant lint runner: walks the given source roots (default
   [Lint.roots]: lib, bin, test and examples) and exits 1 if any
   invariant is violated.  Wired into [dune build @lint] and CI.  It
   takes no options: an argument starting with "--", or a root that is
   not a directory, exits 2, so a mistyped root cannot lint nothing and
   pass. *)

let usage msg =
  prerr_endline ("lint: " ^ msg ^ "\nusage: lint.exe [ROOT_DIR...]");
  exit 2

let () =
  let roots = List.tl (Array.to_list Sys.argv) in
  List.iter
    (fun r -> if String.starts_with ~prefix:"--" r then usage ("unknown option " ^ r))
    roots;
  let roots = if roots = [] then Pnp_lint.Lint.roots else roots in
  let findings =
    try Pnp_lint.Lint.check_tree ~roots with Invalid_argument msg -> usage msg
  in
  List.iter
    (fun f -> Format.printf "%a@." Pnp_lint.Lint.pp_finding f)
    findings;
  match findings with
  | [] -> Format.printf "lint: %s clean@." (String.concat " " roots)
  | fs ->
    Format.printf "lint: %d finding(s)@." (List.length fs);
    exit 1
