open Parsetree

type finding = { file : string; line : int; rule : string; message : string }

let pp_finding fmt f =
  if f.line > 0 then
    Format.fprintf fmt "%s:%d: [%s] %s" f.file f.line f.rule f.message
  else Format.fprintf fmt "%s: [%s] %s" f.file f.rule f.message

let roots = [ "lib"; "bin"; "test"; "examples" ]

(* ------------------------------------------------------------------ *)
(* Names the rules look for, compared as dotted paths *)

let print_names =
  [
    "Printf.printf"; "Printf.eprintf"; "Printf.fprintf"; "Format.printf";
    "Format.eprintf"; "Format.fprintf"; "Format.print_string"; "print_string";
    "print_endline"; "print_newline"; "print_int"; "print_float"; "print_char";
    "prerr_string"; "prerr_endline"; "prerr_newline";
  ]

let wallclock_names = [ "Unix.gettimeofday"; "Unix.time"; "Sys.time"; "Random.self_init" ]

let env_names = [ "Sys.getenv"; "Sys.getenv_opt" ]

let allow_marker = "lint:allow"

let name lid = String.concat "." (Longident.flatten lid)

let line (loc : Location.t) = loc.loc_start.pos_lnum

let path_parts file = String.split_on_char '/' file

let is_fig_file file =
  let base = Filename.basename file in
  String.starts_with ~prefix:"fig_" base && Filename.check_suffix base ".ml"

let in_tests file = List.mem "test" (path_parts file)

let contains_sub s sub =
  let ls = String.length s and lx = String.length sub in
  let rec scan j = j + lx <= ls && (String.sub s j lx = sub || scan (j + 1)) in
  scan 0

(* ------------------------------------------------------------------ *)
(* Syntax-tree shapes *)

(* The name a top-level binding binds, or "" for a pattern such as [()]. *)
let rec binding_name p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> txt
  | Ppat_constraint (p, _) -> binding_name p
  | _ -> ""

(* [ref e], possibly under a type constraint. *)
let rec makes_ref e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> name txt = "ref"
  | Pexp_constraint (e, _) -> makes_ref e
  | _ -> false

(* A condition that holds only while tracing is on: a call of
   [Trace.enabled] or of a module's [tracing] wrapper of it, or a
   conjunction with one. *)
let rec is_guard e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> name txt = "Trace.enabled" || Longident.last txt = "tracing"
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, [ (_, a); (_, b) ])
    when name txt = "&&" ->
    is_guard a || is_guard b
  | Pexp_apply (f, _) -> is_guard f
  | _ -> false

(* [Sim.trace] or a wrapper named after it ([trace], [trace_node],
   [sync_trace]). *)
let is_trace_call e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } ->
    let n = Longident.last txt in
    n = "trace" || String.starts_with ~prefix:"trace_" n || String.ends_with ~suffix:"_trace" n
  | _ -> false

(* A record-carrying [Trace] constructor: [Trace.Span_begin { ... }]. *)
let is_trace_record e =
  match e.pexp_desc with
  | Pexp_construct ({ txt; _ }, Some { pexp_desc = Pexp_record _; _ }) -> (
    match List.rev (Longident.flatten txt) with _ :: "Trace" :: _ -> true | _ -> false)
  | _ -> false

(* ------------------------------------------------------------------ *)

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

let parse_finding ~file exn =
  let line, reason =
    match Location.error_of_exn exn with
    | Some (`Ok err) -> (line err.main.loc, Format.asprintf "%t" err.main.txt)
    | _ -> (0, Printexc.to_string exn)
  in
  { file; line; rule = "parse"; message = reason ^ "; no other rule ran" }

let check_source ~file src =
  let raw = Array.of_list (String.split_on_char '\n' src) in
  (* The allow marker sits in a comment, which the syntax tree drops:
     it is looked up on the finding's source line. *)
  let allowed l = l > 0 && l <= Array.length raw && contains_sub raw.(l - 1) allow_marker in
  let findings = ref [] in
  let report l rule message =
    if not (allowed l) then findings := { file; line = l; rule; message } :: !findings
  in
  match
    Warnings.without_warnings (fun () -> Parse.implementation (Lexing.from_string src))
  with
  | exception exn -> [ parse_finding ~file exn ]
  | ast ->
    let fig = is_fig_file file in
    let in_lib = List.mem "lib" (path_parts file) && not (in_tests file) in
    (* Lock pairing is for production code only: tests exercise the
       unpaired paths on purpose. *)
    let pair_locks = not (in_tests file) in
    let trace_sites = Filename.basename file <> "trace.ml" in
    let binding = ref "" and guarded = ref 0 in
    let acquires = ref 0 and releases = ref 0 in
    let ident lid loc =
      let n = name lid and l = line loc in
      (* Figure data phases must stay pure and deterministic. *)
      if fig && not (String.ends_with ~suffix:"_present" !binding) then begin
        if List.mem n print_names then
          report l "no-print"
            (Printf.sprintf
               "%s in figure data phase (binding %S); only *_present bindings may \
                write to the console"
               n !binding);
        if List.mem n wallclock_names then
          report l "no-wallclock"
            (Printf.sprintf
               "%s in figure data phase (binding %S); figure data must be \
                deterministic in sim time"
               n !binding)
      end;
      if in_lib && List.mem n env_names then
        report l "no-env"
          "environment read in library code; a variable that selects host policy \
           runs an unreviewed second program (pass a parameter, or add lint:allow \
           with the reason)";
      if pair_locks && not (allowed l) then begin
        if n = "Lock.acquire" then incr acquires;
        if n = "Lock.release" then incr releases
      end;
      (* Every Trace.emit, and every Trace record built for a trace call,
         must sit under a tracer test so the disabled path stays free. *)
      if trace_sites && !guarded = 0 && n = "Trace.emit" then
        report l "trace-guard"
          "Trace.emit without a Trace.enabled test in the preceding lines; its \
           record argument is built even when tracing is off"
    in
    let default = Ast_iterator.default_iterator in
    let expr (it : Ast_iterator.iterator) e =
      match e.pexp_desc with
      | Pexp_ident { txt; loc } -> ident txt loc
      | Pexp_ifthenelse (cond, yes, no) when is_guard cond ->
        it.expr it cond;
        incr guarded;
        it.expr it yes;
        decr guarded;
        Option.iter (it.expr it) no
      | Pexp_apply (f, args) ->
        if trace_sites && !guarded = 0 && is_trace_call f then
          List.iter
            (fun (_, a) ->
              if is_trace_record a then
                report (line a.pexp_loc) "trace-guard"
                  "Trace record built for a trace call without a Trace.enabled (or \
                   tracing) test in the preceding lines; the record is allocated \
                   even when tracing is off")
            args;
        default.expr it e
      | _ -> default.expr it e
    in
    let it = { default with expr } in
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              binding := binding_name vb.pvb_pat;
              if fig && makes_ref vb.pvb_expr then
                report (line vb.pvb_loc) "no-global-mutable"
                  "top-level mutable state in a figure module; keep figure data \
                   functional";
              it.value_binding it vb)
            vbs
        | _ ->
          binding := "";
          it.structure_item it item)
      ast;
    if !acquires > !releases then
      report 0 "lock-pairing"
        (Printf.sprintf
           "%d Lock.acquire call site(s) but only %d Lock.release; some path leaks \
            a lock — prefer Lock.with_lock"
           !acquires !releases);
    List.rev !findings

let check_file path = check_source ~file:path (read_file path)

let check_tree ~roots =
  List.concat_map check_file (ml_files roots)
  |> List.sort (fun a b ->
         match compare a.file b.file with 0 -> compare a.line b.line | c -> c)
