(* The concurrency linter itself: a golden corpus with one positive
   (and where it matters, one negative) case per LNT code, asserted
   down to file and line; freeze-list semantics including staleness;
   self-cleanliness of the shipped lib/ tree modulo the frozen
   grandfather list; a QCheck round-trip of the --json report through
   the strict wire-protocol JSON parser; and agreement between the
   static LNT002 rule and the NEPAL_LOCK_DEBUG runtime witness on the
   same nested-acquisition shape. *)

module L = Nepal_lint.Lint_rules
module D = Nepal_lint.Lint_diag
module LC = Nepal_lint.Lint_config
module Json = Nepal_util.Jsonp
module Rwlock = Nepal_util.Rwlock

let check_int = Alcotest.(check int)

(* -- golden corpus ----------------------------------------------------- *)

(* The corpus lives under a throwaway temp root whose layout mirrors
   the repo (lib/server/, lib/query/, ...) because several rules scope
   by path substring. The temp root must not contain "test/". *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let corpus_root =
  lazy
    (let root =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "nepal_lint_corpus_%d" (Unix.getpid ()))
     in
     if
       (* paranoia: a TMPDIR containing "test/" would defeat the
          in_test scoping the corpus relies on *)
       let rec has i =
         i + 5 <= String.length root
         && (String.sub root i 5 = "test/" || has (i + 1))
       in
       has 0
     then Alcotest.failf "temp dir %s contains test/; corpus unusable" root;
     mkdir_p root;
     root)

let write_corpus_file rel contents =
  let root = Lazy.force corpus_root in
  let path = Filename.concat root rel in
  mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let corpus =
  [
    (* LNT001: ungated store mutation in the server stack; the gated
       sibling stays clean *)
    ( "lib/server/mutator.ml",
      "let sneaky store = Graph_store.insert_node store\n\n\
       let gated rw store = Rwlock.write rw (fun () -> \
       Graph_store.insert_node store)\n" );
    (* LNT002: direct nested acquisition (line 1) and a transitive one
       through a helper resolved across the file (line 5) *)
    ( "lib/server/nested.ml",
      "let deadlock rw = Rwlock.read rw (fun () -> Rwlock.write rw (fun () \
       -> ()))\n\n\
       let acquire rw = Rwlock.write rw (fun () -> ())\n\n\
       let indirect rw = Rwlock.read rw (fun () -> acquire rw)\n" );
    (* LNT003: blocking under the write lock (line 1), inside a
       synchronous executor task (line 3), and transitively under a
       held Mutex via a may-block helper (line 7) *)
    ( "lib/server/blocker.ml",
      "let slow rw = Rwlock.write rw (fun () -> Unix.sleepf 0.5)\n\n\
       let in_task ex = ignore (Executor.run ex (fun () -> Thread.delay \
       1.0))\n\n\
       let helper () = Unix.sleep 1\n\n\
       let indirect_block mu = Mutex.lock mu; helper (); Mutex.unlock mu\n" );
    (* LNT004: unguarded mutable field (line 2) and top-level ref
       (line 7) in a spawning file; guarded/atomic siblings clean *)
    ( "lib/shared.ml",
      "type state = {\n\
      \  mutable hits : int;\n\
      \  mutable ok : bool [@guarded_by \"lock\"];\n\
      \  mutable live : bool Atomic.t;\n\
       }\n\n\
       let tick = ref 0\n\
       let door = ref 0 [@@guarded_by \"lock\"]\n\n\
       let spin (s : state) = ignore (Thread.create (fun () -> ignore s) \
       ())\n" );
    (* LNT005: catch-all in a function handed to Thread.create by name *)
    ( "lib/worker.ml",
      "let step () = try print_string \"x\" with _ -> ()\n\n\
       let start () = ignore (Thread.create step ())\n" );
    (* LNT010 / LNT013: anywhere *)
    ( "lib/anywhere.ml",
      "let cast x = Obj.magic x\n\n\
       let third xs = List.nth xs 2\n\n\
       let maybe xs = List.nth_opt xs 0\n" );
    (* LNT011 / LNT012: query-layer scoping *)
    ( "lib/query/cmp.ml",
      "let sort xs = List.sort compare xs\n\n\
       let is_null v = v = Value.Null\n" );
    (* negative: a module-local monomorphic compare opts out of LNT011 *)
    ( "lib/query/cmp2.ml",
      "let compare a b = Stdlib.compare (a : int) b\n\n\
       let sort xs = List.sort compare xs\n" );
  ]

let corpus_diags =
  lazy
    (List.iter (fun (rel, contents) -> write_corpus_file rel contents) corpus;
     L.run_roots
       ~on_parse_error:(fun p e -> Alcotest.failf "corpus parse %s: %s" p e)
       [ Lazy.force corpus_root ])

let ends_with ~suffix s =
  let n = String.length suffix and l = String.length s in
  l >= n && String.sub s (l - n) n = suffix

let find_diags ~code ~file diags =
  List.filter
    (fun d -> d.D.code = code && ends_with ~suffix:file d.D.file)
    diags

let expect_at ~code ~file ~line () =
  let diags = Lazy.force corpus_diags in
  match find_diags ~code ~file diags with
  | [] -> Alcotest.failf "no %s diagnostic in %s" code file
  | ds ->
      if not (List.exists (fun d -> d.D.line = line) ds) then
        Alcotest.failf "%s in %s at lines %s, expected line %d" code file
          (String.concat "," (List.map (fun d -> string_of_int d.D.line) ds))
          line

let expect_absent ~code ~file () =
  match find_diags ~code ~file (Lazy.force corpus_diags) with
  | [] -> ()
  | d :: _ -> Alcotest.failf "unexpected diagnostic %s" (D.to_string d)

let test_corpus_lnt001 () =
  expect_at ~code:"LNT001" ~file:"lib/server/mutator.ml" ~line:1 ();
  (* the Rwlock.write-gated call on line 3 stays clean *)
  check_int "one LNT001 in mutator.ml" 1
    (List.length
       (find_diags ~code:"LNT001" ~file:"lib/server/mutator.ml"
          (Lazy.force corpus_diags)))

let test_corpus_lnt002 () =
  expect_at ~code:"LNT002" ~file:"lib/server/nested.ml" ~line:1 ();
  expect_at ~code:"LNT002" ~file:"lib/server/nested.ml" ~line:5 ()

let test_corpus_lnt003 () =
  expect_at ~code:"LNT003" ~file:"lib/server/blocker.ml" ~line:1 ();
  expect_at ~code:"LNT003" ~file:"lib/server/blocker.ml" ~line:3 ();
  expect_at ~code:"LNT003" ~file:"lib/server/blocker.ml" ~line:7 ()

let test_corpus_lnt004 () =
  expect_at ~code:"LNT004" ~file:"lib/shared.ml" ~line:2 ();
  expect_at ~code:"LNT004" ~file:"lib/shared.ml" ~line:7 ();
  (* guarded field, Atomic.t field and guarded ref stay clean *)
  check_int "two LNT004 in shared.ml" 2
    (List.length
       (find_diags ~code:"LNT004" ~file:"lib/shared.ml"
          (Lazy.force corpus_diags)))

let test_corpus_lnt005 () =
  expect_at ~code:"LNT005" ~file:"lib/worker.ml" ~line:1 ()

let test_corpus_lnt01x () =
  expect_at ~code:"LNT010" ~file:"lib/anywhere.ml" ~line:1 ();
  expect_at ~code:"LNT013" ~file:"lib/anywhere.ml" ~line:3 ();
  expect_at ~code:"LNT013" ~file:"lib/anywhere.ml" ~line:5 ();
  expect_at ~code:"LNT011" ~file:"lib/query/cmp.ml" ~line:1 ();
  expect_at ~code:"LNT012" ~file:"lib/query/cmp.ml" ~line:3 ();
  expect_absent ~code:"LNT011" ~file:"lib/query/cmp2.ml" ()

(* -- freeze semantics --------------------------------------------------- *)

let diag_for_freeze (fz : LC.freeze) =
  let func =
    match fz.LC.fz_func with
    | Some f -> fz.LC.fz_module ^ "." ^ f
    | None -> fz.LC.fz_module ^ ".whatever"
  in
  D.make ~code:fz.LC.fz_code ~file:"lib/x.ml" ~line:1 ~col:0 ~func "msg"

let test_freezes_absorb_and_keep () =
  let loose =
    D.make ~code:"LNT010" ~file:"lib/y.ml" ~line:3 ~col:2 ~func:"Y.f" "msg"
  in
  let diags = loose :: List.map diag_for_freeze LC.frozen in
  let kept, frozen, stale = L.apply_freezes diags in
  check_int "every freeze entry absorbed one diagnostic" (List.length LC.frozen)
    frozen;
  check_int "no stale freezes when all match" 0 (List.length stale);
  (match kept with
  | [ d ] when d.D.code = "LNT010" -> ()
  | _ -> Alcotest.fail "unfrozen diagnostic must be kept");
  (* with no diagnostics at all, every freeze entry is stale *)
  let _, _, stale_all = L.apply_freezes [] in
  check_int "all freezes stale on empty input" (List.length LC.frozen)
    (List.length stale_all)

(* -- self-cleanliness of the shipped tree ------------------------------- *)

(* Run the analyzer over the real lib/ sources (present next to the
   test in the build tree) and require zero violations and zero stale
   freezes — the in-process twin of the `dune runtest` gate. *)
let test_lib_self_clean () =
  let root = "../lib" in
  if not (Sys.file_exists root && Sys.is_directory root) then
    Alcotest.skip ()
  else begin
    let diags =
      L.run_roots
        ~on_parse_error:(fun p e -> Alcotest.failf "parse %s: %s" p e)
        [ root ]
    in
    let kept, _frozen, stale = L.apply_freezes diags in
    (match kept with
    | [] -> ()
    | d :: rest ->
        Alcotest.failf "lib/ not lint-clean: %s (+%d more)" (D.to_string d)
          (List.length rest));
    match stale with
    | [] -> ()
    | fz :: _ ->
        Alcotest.failf "stale freeze entry: %s %s%s" fz.LC.fz_code
          fz.LC.fz_module
          (match fz.LC.fz_func with Some f -> "." ^ f | None -> "")
  end

(* -- JSON report round-trip --------------------------------------------- *)

(* [concur_lint --json] must emit exactly what the wire protocol's
   strict parser accepts, for arbitrary (including non-printable and
   invalid-UTF-8) diagnostic content. The renderer sanitizes invalid
   byte sequences on the way out (to escaped U+FFFD), so byte-identity
   with the first render is not the contract; the contract is that the
   emitted document always parses, and that one more render/parse
   cycle is semantically the identity. *)
let prop_json_report_roundtrips =
  QCheck.Test.make ~name:"--json report round-trips through Json.parse"
    ~count:200
    QCheck.(
      pair small_nat
        (small_list
           (tup6 (string_of_size Gen.(0 -- 8)) (string_of_size Gen.(0 -- 20))
              small_nat small_nat
              (string_of_size Gen.(0 -- 12))
              (string_of_size Gen.(0 -- 30)))))
    (fun (frozen, raw) ->
      let diags =
        List.map
          (fun (code, file, line, col, func, msg) ->
            D.make ~code ~file ~line ~col ~func msg)
          raw
      in
      let s = D.report_to_string ~frozen diags in
      match Json.parse s with
      | Error e -> QCheck.Test.fail_reportf "emitted JSON rejected: %s" e
      | Ok j ->
          (match Json.parse (Json.to_string j) with
          | Ok j2 when j2 = j -> ()
          | Ok _ -> QCheck.Test.fail_reportf "re-render is not stable: %s" s
          | Error e ->
              QCheck.Test.fail_reportf "re-rendered JSON rejected: %s" e);
          Json.int_field "violations" j = Some (List.length diags)
          && Json.int_field "frozen" j = Some frozen
          && Json.string_field "tool" j = Some "concur_lint"
          && Json.list_field "diagnostics" j
             |> Option.fold ~none:(-1) ~some:List.length
             = List.length diags)

(* -- static rule vs runtime witness ------------------------------------- *)

(* The corpus shape LNT002 flags on nested.ml line 1 must also trip
   the NEPAL_LOCK_DEBUG runtime witness when actually executed: the
   static rule and the dynamic check agree on what re-entrancy is. *)
let test_witness_agrees_with_lnt002 () =
  expect_at ~code:"LNT002" ~file:"lib/server/nested.ml" ~line:1 ();
  Unix.putenv "NEPAL_LOCK_DEBUG" "1";
  let rw = Rwlock.create () in
  Unix.putenv "NEPAL_LOCK_DEBUG" "0";
  (* sequential sections on one thread are not re-entrant *)
  Rwlock.read rw (fun () -> ());
  Rwlock.write rw (fun () -> ());
  (* the deadlock shape raises instead of hanging *)
  (match Rwlock.read rw (fun () -> Rwlock.write rw (fun () -> `Ran)) with
  | `Ran -> Alcotest.fail "re-entrant write under read did not raise"
  | exception Rwlock.Reentrant _ -> ());
  (* an unarmed lock (the default) keeps zero-overhead semantics:
     sequential use works and nothing raises *)
  let plain = Rwlock.create () in
  Rwlock.read plain (fun () -> ());
  Rwlock.write plain (fun () -> ())

let () =
  Alcotest.run "lint"
    [
      ( "corpus",
        [
          Alcotest.test_case "LNT001 store mutation gate" `Quick
            test_corpus_lnt001;
          Alcotest.test_case "LNT002 nested acquisition" `Quick
            test_corpus_lnt002;
          Alcotest.test_case "LNT003 blocking under locks" `Quick
            test_corpus_lnt003;
          Alcotest.test_case "LNT004 unguarded shared state" `Quick
            test_corpus_lnt004;
          Alcotest.test_case "LNT005 thread-borne catch-all" `Quick
            test_corpus_lnt005;
          Alcotest.test_case "LNT010-013 migrated style lints" `Quick
            test_corpus_lnt01x;
        ] );
      ( "freezes",
        [
          Alcotest.test_case "absorb, keep and staleness" `Quick
            test_freezes_absorb_and_keep;
        ] );
      ( "self",
        [
          Alcotest.test_case "lib/ is clean modulo freezes" `Quick
            test_lib_self_clean;
        ] );
      ("json", [ QCheck_alcotest.to_alcotest prop_json_report_roundtrips ]);
      ( "witness",
        [
          Alcotest.test_case "NEPAL_LOCK_DEBUG agrees with LNT002" `Quick
            test_witness_agrees_with_lnt002;
        ] );
    ]
