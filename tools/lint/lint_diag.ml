(* Span-carrying diagnostics for the concurrency linter — the LNT
   analogue of lib/analysis's NPL diagnostics, but anchored to OCaml
   source locations rather than query text. Rendered either as
   grep-able text ("file:line:col: [LNT003] (Module.func) message") or
   as one JSON object per diagnostic through the same
   [Nepal_util.Event_log.json] value type the wire protocol uses, so
   [concur_lint --json] round-trips through the strict
   [Nepal_util.Jsonp] parser by construction. *)

module J = Nepal_util.Event_log

type t = {
  code : string;  (* "LNT001" .. — stable, documented in DESIGN.md §14 *)
  file : string;  (* path as given to the analyzer *)
  line : int;     (* 1-based *)
  col : int;      (* 0-based, matching compiler convention *)
  func : string;  (* enclosing "Module.func", or "" at module level *)
  message : string;
}

let make ~code ~file ~line ~col ~func message =
  { code; file; line; col; func; message }

let compare_by_pos a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = compare a.line b.line in
    if c <> 0 then c
    else
      let c = compare a.col b.col in
      if c <> 0 then c else String.compare a.code b.code

let to_string d =
  let where = if d.func = "" then "" else Printf.sprintf " (%s)" d.func in
  Printf.sprintf "%s:%d:%d: [%s]%s %s" d.file d.line d.col d.code where
    d.message

let to_json d =
  J.Obj
    [
      ("code", J.Str d.code);
      ("file", J.Str d.file);
      ("line", J.Int d.line);
      ("col", J.Int d.col);
      ("function", J.Str d.func);
      ("message", J.Str d.message);
    ]

(* The whole report as one JSON object: counts first, then the
   diagnostics sorted by position (deterministic output for golden
   tests and CI diffing). *)
let report_json ~frozen diags =
  J.Obj
    [
      ("tool", J.Str "concur_lint");
      ("violations", J.Int (List.length diags));
      ("frozen", J.Int frozen);
      ( "diagnostics",
        J.List (List.map to_json (List.sort compare_by_pos diags)) );
    ]

let report_to_string ~frozen diags =
  J.json_to_string (report_json ~frozen diags)
