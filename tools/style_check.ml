(* Source-style gate, run under `dune runtest` (ocamlformat is not
   vendored, so this enforces the cheap invariants a formatter would):
   no tab characters, no trailing whitespace, no CR line endings, a
   newline at end of file, no stdout printing from lib/, and a
   documentation header on every .mli. Walks the directories given on
   the command line and checks every .ml / .mli underneath.

   The former regex-level semantic lints (Obj.magic, polymorphic
   compare / Value.Null equality, List.nth) moved to the AST-exact
   concurrency linter as LNT010-LNT013 — see tools/concur_lint.ml and
   tools/lint/; their grandfather lists moved to
   tools/lint/lint_config.ml. *)

let violations = ref 0

let report file line msg =
  incr violations;
  Printf.eprintf "%s:%d: %s\n" file line msg

(* Library code must not print to stdout: diagnostics go through Logs
   and observability through the metrics registry / trace spans. *)
let in_lib file =
  String.length file >= 4 && String.sub file 0 4 = "lib/"

let contains_at line needle =
  let n = String.length needle and ln = String.length line in
  let rec go i = i + n <= ln && (String.sub line i n = needle || go (i + 1)) in
  go 0

let check_file file =
  let ic = open_in_bin file in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  if n > 0 && contents.[n - 1] <> '\n' then
    report file 1 "missing newline at end of file";
  let line = ref 1 in
  let line_start = ref 0 in
  let check_line_text i =
    let text = String.sub contents !line_start (i - !line_start) in
    if in_lib file && contains_at text "Printf.printf" then
      report file !line
        "Printf.printf in lib/ (use Logs or the metrics/trace layer)"
  in
  String.iteri
    (fun i c ->
      match c with
      | '\t' -> report file !line "tab character"
      | '\r' -> report file !line "carriage return"
      | '\n' ->
          (if i > !line_start then
             match contents.[i - 1] with
             | ' ' | '\t' -> report file !line "trailing whitespace"
             | _ -> ());
          check_line_text i;
          incr line;
          line_start := i + 1
      | _ -> ())
    contents;
  if n > !line_start then check_line_text n

(* Every lib/ module must publish an interface. Modules that predate
   the rule are grandfathered here; do not add to this list — write the
   .mli instead. *)
let mli_grandfathered =
  [ "backend_intf.ml"; "query_ast.ml" ]

(* Directories added after the rule existed get no grandfathering at
   all, whatever the basename: every module ships its .mli. *)
let mli_strict_dirs = [ "lib/engine"; "lib/monitor"; "lib/server" ]

let in_strict_dir file =
  List.exists
    (fun d ->
      let d = d ^ "/" in
      let rec has_sub i =
        i + String.length d <= String.length file
        && (String.sub file i (String.length d) = d || has_sub (i + 1))
      in
      has_sub 0)
    mli_strict_dirs

let check_mli file =
  if
    in_lib file
    && Filename.check_suffix file ".ml"
    && not
         (List.mem (Filename.basename file) mli_grandfathered
         && not (in_strict_dir file))
    && not (Sys.file_exists (file ^ "i"))
  then
    report file 1
      "lib/ module without an interface (add a .mli; the grandfather \
       list in tools/style_check.ml is frozen)"

(* Every interface opens with a documentation header: skipping blank
   lines, the first token must start a [(** ... *)] comment. *)
let check_mli_header file =
  if Filename.check_suffix file ".mli" then begin
    let ic = open_in_bin file in
    let n = in_channel_length ic in
    let contents = really_input_string ic n in
    close_in ic;
    let i = ref 0 in
    while
      !i < n && (match contents.[!i] with ' ' | '\n' | '\r' | '\t' -> true | _ -> false)
    do
      incr i
    done;
    if not (!i + 3 <= n && String.sub contents !i 3 = "(**") then
      report file 1 "interface without a (** ... *) documentation header"
  end

let is_source file =
  Filename.check_suffix file ".ml" || Filename.check_suffix file ".mli"

let rec walk path =
  if Sys.is_directory path then
    Array.iter
      (fun entry ->
        if entry <> "_build" && not (String.length entry > 0 && entry.[0] = '.')
        then walk (Filename.concat path entry))
      (Sys.readdir path)
  else if is_source path then begin
    check_file path;
    check_mli path;
    check_mli_header path
  end

let () =
  Array.iteri (fun i arg -> if i > 0 then walk arg) Sys.argv;
  if !violations > 0 then begin
    Printf.eprintf "style check failed: %d violation(s)\n" !violations;
    exit 1
  end
