type finding = { file : string; line : int; rule : string; message : string }

let pp_finding fmt f =
  if f.line > 0 then
    Format.fprintf fmt "%s:%d: [%s] %s" f.file f.line f.rule f.message
  else Format.fprintf fmt "%s: [%s] %s" f.file f.rule f.message

(* ------------------------------------------------------------------ *)
(* Lexical scrubbing: blank comments, strings and char literals so the
   line-based rules below only ever see real code.  All the scanning
   functions are tail-recursive over the character index. *)

let scrub src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if Bytes.get out i <> '\n' then Bytes.set out i ' ' in
  let is_ident c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '\''
  in
  let is_lower c = (c >= 'a' && c <= 'z') || c = '_' in
  let rec code i =
    if i >= n then ()
    else
      match src.[i] with
      | '(' when i + 1 < n && src.[i + 1] = '*' ->
        blank i;
        blank (i + 1);
        comment 1 (i + 2)
      | '"' ->
        blank i;
        string_lit (i + 1)
      | '{' ->
        (* {| ... |} and {id| ... |id} quoted strings *)
        let j = ref (i + 1) in
        while !j < n && is_lower src.[!j] do
          incr j
        done;
        if !j < n && src.[!j] = '|' then begin
          let id = String.sub src (i + 1) (!j - i - 1) in
          for k = i to !j do
            blank k
          done;
          quoted id (!j + 1)
        end
        else code (i + 1)
      | '\'' when i = 0 || not (is_ident src.[i - 1]) ->
        (* Char literal, or a type variable such as 'a.  A literal is a
           single non-backslash char or a backslash escape of at most
           five characters, closed by a quote. *)
        if i + 2 < n && src.[i + 1] <> '\\' && src.[i + 1] <> '\''
           && src.[i + 2] = '\''
        then begin
          blank i;
          blank (i + 1);
          blank (i + 2);
          code (i + 3)
        end
        else if i + 1 < n && src.[i + 1] = '\\' then begin
          let close = ref 0 in
          (let j = ref (i + 2) in
           while !close = 0 && !j < n && !j <= i + 6 do
             if src.[!j] = '\'' then close := !j;
             incr j
           done);
          if !close > 0 then begin
            for k = i to !close do
              blank k
            done;
            code (!close + 1)
          end
          else code (i + 1)
        end
        else code (i + 1)
      | _ -> code (i + 1)
  and string_lit i =
    if i >= n then ()
    else if src.[i] = '\\' && i + 1 < n then begin
      blank i;
      blank (i + 1);
      string_lit (i + 2)
    end
    else if src.[i] = '"' then begin
      blank i;
      code (i + 1)
    end
    else begin
      blank i;
      string_lit (i + 1)
    end
  and quoted id i =
    if i >= n then ()
    else
      let idn = String.length id in
      if
        src.[i] = '|'
        && i + idn + 1 < n
        && String.sub src (i + 1) idn = id
        && src.[i + idn + 1] = '}'
      then begin
        for k = i to i + idn + 1 do
          blank k
        done;
        code (i + idn + 2)
      end
      else begin
        blank i;
        quoted id (i + 1)
      end
  and comment depth i =
    if i >= n then ()
    else if src.[i] = '(' && i + 1 < n && src.[i + 1] = '*' then begin
      blank i;
      blank (i + 1);
      comment (depth + 1) (i + 2)
    end
    else if src.[i] = '*' && i + 1 < n && src.[i + 1] = ')' then begin
      blank i;
      blank (i + 1);
      if depth = 1 then code (i + 2) else comment (depth - 1) (i + 2)
    end
    else if src.[i] = '"' then begin
      (* Strings are lexed inside comments: a close-comment sequence
         inside such a string does not close the comment. *)
      blank i;
      comment_string depth (i + 1)
    end
    else begin
      blank i;
      comment depth (i + 1)
    end
  and comment_string depth i =
    if i >= n then ()
    else if src.[i] = '\\' && i + 1 < n then begin
      blank i;
      blank (i + 1);
      comment_string depth (i + 2)
    end
    else if src.[i] = '"' then begin
      blank i;
      comment depth (i + 1)
    end
    else begin
      blank i;
      comment_string depth (i + 1)
    end
  in
  code 0;
  Bytes.to_string out

(* ------------------------------------------------------------------ *)
(* Token matching with identifier boundaries, so e.g. "sprintf" never
   matches a search for "printf". *)

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '.'

let count_token line tok =
  let nl = String.length line and nt = String.length tok in
  let hits = ref 0 in
  let i = ref 0 in
  while !i + nt <= nl do
    if
      String.sub line !i nt = tok
      && (!i = 0 || not (is_ident_char line.[!i - 1]))
      && (!i + nt = nl || not (is_ident_char line.[!i + nt]))
    then begin
      incr hits;
      i := !i + nt
    end
    else incr i
  done;
  !hits

let has_token line tok = count_token line tok > 0

(* The identifier tokens of a line (dotted paths kept whole), each with
   the index just past it. *)
let tokens line =
  let n = String.length line in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_ident_char line.[i] then begin
      let j = ref i in
      while !j < n && is_ident_char line.[!j] do incr j done;
      go !j ((String.sub line i (!j - i), !j) :: acc)
    end
    else go (i + 1) acc
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Rules *)

let print_tokens =
  [
    "Printf.printf"; "Printf.eprintf"; "Printf.fprintf"; "Format.printf";
    "Format.eprintf"; "Format.fprintf"; "Format.print_string"; "print_string";
    "print_endline"; "print_newline"; "print_int"; "print_float"; "print_char";
    "prerr_string"; "prerr_endline"; "prerr_newline";
  ]

let wallclock_tokens =
  [ "Unix.gettimeofday"; "Unix.time"; "Sys.time"; "Random.self_init" ]

let env_tokens = [ "Sys.getenv"; "Sys.getenv_opt" ]

let allow_marker = "lint:allow"

(* The tracer tests a trace site may sit under: [Trace.enabled] itself,
   or a module's [tracing] wrapper of it. *)
let trace_guards = [ "Trace.enabled"; "tracing" ]

let path_parts file = String.split_on_char '/' file

let is_fig_file file =
  let base = Filename.basename file in
  String.starts_with ~prefix:"fig_" base && Filename.check_suffix base ".ml"

let in_tests file = List.mem "test" (path_parts file)

(* Lines starting with "let " in column 0 open a top-level binding. *)
let opens_binding line = String.starts_with ~prefix:"let " line

(* Name of the top-level binding a line belongs to. *)
let toplevel_binding line current =
  if opens_binding line then begin
    let drop k s = String.sub s k (String.length s - k) in
    let rest = drop 4 line in
    let rest = if String.starts_with ~prefix:"rec " rest then drop 4 rest else rest in
    let j = ref 0 in
    while
      !j < String.length rest
      && (let c = rest.[!j] in
          (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
          || (c >= '0' && c <= '9') || c = '_' || c = '\'')
    do
      incr j
    done;
    if !j > 0 then String.sub rest 0 !j else current
  end
  else current

let contains_sub s sub =
  let ls = String.length s and lx = String.length sub in
  let rec scan j = j + lx <= ls && (String.sub s j lx = sub || scan (j + 1)) in
  scan 0

let has_allow_marker raw = contains_sub raw allow_marker

let split s = Array.of_list (String.split_on_char '\n' s)

(* ------------------------------------------------------------------ *)
(* Trace-guard helpers *)

(* A line applies a record-carrying [Trace] constructor
   ([Trace.Span_begin { ... }]). *)
let builds_trace_record line =
  List.exists
    (fun (tok, stop) ->
      String.length tok > 6
      && String.starts_with ~prefix:"Trace." tok
      && tok.[6] >= 'A' && tok.[6] <= 'Z'
      && String.starts_with ~prefix:"{"
           (String.trim (String.sub line stop (String.length line - stop))))
    (tokens line)

(* A line calls a tracing function: [Sim.trace] or a wrapper named after
   it ([trace], [trace_node], [sync_trace]). *)
let has_trace_call line =
  List.exists
    (fun (tok, _) ->
      let last =
        match String.rindex_opt tok '.' with
        | Some k -> String.sub tok (k + 1) (String.length tok - k - 1)
        | None -> tok
      in
      last = "trace" || String.starts_with ~prefix:"trace_" last
      || String.ends_with ~suffix:"_trace" last)
    (tokens line)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The .ml files under [roots], sorted; [_build] and hidden directories
   are skipped.  A root that is not a directory is an error: skipping it
   would lint nothing and pass. *)
let ml_files roots =
  let files = ref [] in
  let rec walk dir =
    let entries = Sys.readdir dir in
    Array.sort compare entries;
    Array.iter
      (fun entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then begin
          if entry <> "_build" && entry.[0] <> '.' then walk path
        end
        else if Filename.check_suffix entry ".ml" then files := path :: !files)
      entries
  in
  List.iter
    (fun r ->
      if not (Sys.file_exists r && Sys.is_directory r) then
        invalid_arg ("Lint.check_tree: " ^ r ^ " is not a directory");
      walk r)
    roots;
  List.sort compare !files

let check_source ~file src =
  (* The lines twice: as written, for the allow marker (it sits in a
     comment), and scrubbed, for the rules. *)
  let raw = split src and lines = split (scrub src) in
  let findings = ref [] in
  let report line rule message = findings := { file; line; rule; message } :: !findings in
  let fig = is_fig_file file in
  let in_lib = List.mem "lib" (path_parts file) && not (in_tests file) in
  let binding = ref "" in
  let acquires = ref 0 and releases = ref 0 in
  Array.iteri
    (fun i line ->
      if not (has_allow_marker raw.(i)) then begin
        let lineno = i + 1 in
        binding := toplevel_binding line !binding;
        (* Figure data phases must stay pure and deterministic. *)
        if fig && not (String.ends_with ~suffix:"_present" !binding) then begin
          List.iter
            (fun tok ->
              if has_token line tok then
                report lineno "no-print"
                  (Printf.sprintf
                     "%s in figure data phase (binding %S); only *_present \
                      bindings may write to the console"
                     tok !binding))
            print_tokens;
          List.iter
            (fun tok ->
              if has_token line tok then
                report lineno "no-wallclock"
                  (Printf.sprintf
                     "%s in figure data phase (binding %S); figure data must \
                      be deterministic in sim time"
                     tok !binding))
            wallclock_tokens
        end;
        if fig && opens_binding line && has_token line "ref" && has_token line "=" then
          report lineno "no-global-mutable"
            "top-level mutable state in a figure module; keep figure data \
             functional";
        if in_lib && List.exists (has_token line) env_tokens then
          report lineno "no-env"
            "environment read in library code; a variable that selects host \
             policy runs an unreviewed second program (pass a parameter, or \
             add lint:allow with the reason)";
        (* Lock pairing (production code only: tests exercise the
           unpaired paths on purpose). *)
        if not (in_tests file) then begin
          acquires := !acquires + count_token line "Lock.acquire";
          releases := !releases + count_token line "Lock.release"
        end;
        (* Every Trace.emit, and every Trace record built for a trace
           call, must sit under a tracer test so the disabled path stays
           free. *)
        if Filename.basename file <> "trace.ml" then begin
          let guarded () =
            let g = ref false in
            for j = max 0 (i - 6) to i do
              if List.exists (has_token lines.(j)) trace_guards then g := true
            done;
            !g
          in
          if has_token line "Trace.emit" && not (guarded ()) then
            report lineno "trace-guard"
              "Trace.emit without a Trace.enabled test in the preceding \
               lines; unguarded emission costs sim time even when tracing \
               is off"
          else if
            builds_trace_record line
            && (has_trace_call line || (i > 0 && has_trace_call lines.(i - 1)))
            && not (guarded ())
          then
            report lineno "trace-guard"
              "Trace record built for a trace call without a Trace.enabled \
               (or tracing) test in the preceding lines; the record is \
               allocated even when tracing is off"
        end
      end)
    lines;
  if !acquires > !releases then
    report 0 "lock-pairing"
      (Printf.sprintf
         "%d Lock.acquire call site(s) but only %d Lock.release; some path \
          leaks a lock — prefer Lock.with_lock"
         !acquires !releases);
  List.rev !findings

let check_file path = check_source ~file:path (read_file path)

let check_tree ~roots =
  List.concat_map check_file (ml_files roots)
  |> List.sort (fun a b ->
         match compare a.file b.file with 0 -> compare a.line b.line | c -> c)
