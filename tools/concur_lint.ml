(* Concurrency linter driver (see tools/lint/ for the analysis).

   Usage: concur_lint [--json] [--gate] DIR...

   Parses every .ml under the given roots, runs the LNT rules, applies
   the frozen-grandfather list, and reports what remains — as
   grep-able "file:line:col: [LNTnnn] (func) message" lines on stderr,
   or with --json as one JSON report object on stdout (shape-compatible
   with the strict Nepal_util.Jsonp parser). Exit 1 on violations.

   --gate additionally errors on stale freeze entries (a frozen
   violation that no longer exists must be deleted from
   tools/lint/lint_config.ml) and prints the distinct banner the
   runtest alias greps for. *)

let usage () =
  prerr_endline "usage: concur_lint [--json] [--gate] DIR...";
  exit 2

let () =
  let json = ref false and gate = ref false and roots = ref [] in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match arg with
        | "--json" -> json := true
        | "--gate" -> gate := true
        | _ when String.length arg > 0 && arg.[0] = '-' -> usage ()
        | _ -> roots := arg :: !roots)
    Sys.argv;
  if !roots = [] then usage ();
  let diags =
    Nepal_lint.Lint_rules.run_roots
      ~on_parse_error:(fun path err ->
        Printf.eprintf "concur_lint: warning: %s: parse failed (%s)\n" path err)
      (List.rev !roots)
  in
  let kept, frozen, stale = Nepal_lint.Lint_rules.apply_freezes diags in
  if !json then
    print_endline (Nepal_lint.Lint_diag.report_to_string ~frozen kept)
  else
    List.iter
      (fun d -> prerr_endline (Nepal_lint.Lint_diag.to_string d))
      kept;
  let stale_failures =
    if !gate then begin
      List.iter
        (fun (fz : Nepal_lint.Lint_config.freeze) ->
          Printf.eprintf
            "concur_lint: stale freeze: %s %s%s matches nothing — delete it \
             from tools/lint/lint_config.ml\n"
            fz.Nepal_lint.Lint_config.fz_code fz.Nepal_lint.Lint_config.fz_module
            (match fz.Nepal_lint.Lint_config.fz_func with
            | Some f -> "." ^ f
            | None -> ""))
        stale;
      List.length stale
    end
    else 0
  in
  if kept <> [] || stale_failures > 0 then begin
    if !gate then
      Printf.eprintf
        "===== concur_lint: concurrency gate FAILED (%d violation(s), %d \
         stale freeze(s); %d frozen) =====\n"
        (List.length kept) stale_failures frozen
    else
      Printf.eprintf "concur_lint: %d violation(s) (%d frozen)\n"
        (List.length kept) frozen;
    exit 1
  end
