(* RFC 8259 JSON parsing onto {!Event_log.json} — the same value type
   the rest of the system renders, so the wire protocol and the
   telemetry snapshot files round-trip through one representation.
   Strict enough for a network-facing surface: no trailing garbage, no
   unescaped control characters in strings, \u escapes decoded
   (surrogate pairs included), numbers kept as [Int] when they are
   integral and fit. Lives in nepal_util so that the wire protocol and
   the offline consumer {!Timeseries.load} share one parser without the
   latter linking the server stack. *)

module J = Event_log

type t = J.json

exception Fail of int * string

let fail pos msg = raise (Fail (pos, msg))

(* The cursor is read through [at_end]/[cur] rather than an option-
   returning peek, so scanning a frame allocates nothing per byte. *)
type cursor = { src : string; mutable pos : int }

let at_end c = c.pos >= String.length c.src

(* The byte under the cursor; only read when [not (at_end c)]. *)
let cur c = String.unsafe_get c.src c.pos

let peek_is c ch = (not (at_end c)) && cur c = ch

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    (not (at_end c))
    && match cur c with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance c
  done

let expect c ch =
  if at_end c then fail c.pos (Printf.sprintf "expected %c, found end of input" ch)
  else
    let x = cur c in
    if x = ch then advance c
    else fail c.pos (Printf.sprintf "expected %c, found %c" ch x)

let expect_word c word value =
  let n = String.length word in
  let rec same i =
    i = n || (String.unsafe_get c.src (c.pos + i) = String.unsafe_get word i && same (i + 1))
  in
  if c.pos + n <= String.length c.src && same 0 then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c.pos (Printf.sprintf "expected %s" word)

(* Append a Unicode scalar value as UTF-8. *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let hex4 c =
  let v = ref 0 in
  for _ = 1 to 4 do
    if at_end c then fail c.pos "truncated \\u escape";
    let d =
      match cur c with
      | '0' .. '9' as ch -> Char.code ch - Char.code '0'
      | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
      | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
      | _ -> fail c.pos "invalid \\u escape"
    in
    v := (!v * 16) + d;
    advance c
  done;
  !v

(* Advance over a run of bytes a string body holds verbatim (anything
   but the closing quote, a backslash or a control character) and
   return where the run started. *)
let plain_run c =
  let start = c.pos in
  while
    (not (at_end c))
    &&
    let ch = cur c in
    ch <> '"' && ch <> '\\' && Char.code ch >= 0x20
  do
    advance c
  done;
  start

let parse_escape c buf =
  advance c;
  if at_end c then fail c.pos "truncated escape";
  let ch = cur c in
  advance c;
  match ch with
  | '"' -> Buffer.add_char buf '"'
  | '\\' -> Buffer.add_char buf '\\'
  | '/' -> Buffer.add_char buf '/'
  | 'b' -> Buffer.add_char buf '\b'
  | 'f' -> Buffer.add_char buf '\012'
  | 'n' -> Buffer.add_char buf '\n'
  | 'r' -> Buffer.add_char buf '\r'
  | 't' -> Buffer.add_char buf '\t'
  | 'u' ->
      let u = hex4 c in
      if u >= 0xD800 && u <= 0xDBFF then begin
        (* high surrogate: require the low half *)
        expect c '\\';
        expect c 'u';
        let lo = hex4 c in
        if lo < 0xDC00 || lo > 0xDFFF then fail c.pos "unpaired surrogate"
        else add_utf8 buf (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
      end
      else if u >= 0xDC00 && u <= 0xDFFF then fail c.pos "unpaired surrogate"
      else add_utf8 buf u
  | _ -> fail (c.pos - 1) "invalid escape"

(* A body without escapes is one [String.sub]; otherwise each plain run
   goes into the buffer with one [add_substring]. *)
let parse_string_body c =
  expect c '"';
  let start = plain_run c in
  if peek_is c '"' then begin
    advance c;
    String.sub c.src start (c.pos - 1 - start)
  end
  else begin
    let buf = Buffer.create (2 * (c.pos - start) + 16) in
    Buffer.add_substring buf c.src start (c.pos - start);
    let rec go () =
      if at_end c then fail c.pos "unterminated string"
      else
        match cur c with
        | '"' ->
            advance c;
            Buffer.contents buf
        | '\\' ->
            parse_escape c buf;
            let start = plain_run c in
            Buffer.add_substring buf c.src start (c.pos - start);
            go ()
        | _ -> fail c.pos "unescaped control character in string"
    in
    go ()
  end

let digits c =
  let start = c.pos in
  while (not (at_end c)) && match cur c with '0' .. '9' -> true | _ -> false do
    advance c
  done;
  c.pos > start

let parse_number c =
  let start = c.pos in
  let integral = ref true in
  if peek_is c '-' then advance c;
  if not (digits c) then fail c.pos "invalid number";
  if peek_is c '.' then begin
    integral := false;
    advance c;
    if not (digits c) then fail c.pos "invalid number"
  end;
  if peek_is c 'e' || peek_is c 'E' then begin
    integral := false;
    advance c;
    if peek_is c '+' || peek_is c '-' then advance c;
    if not (digits c) then fail c.pos "invalid number"
  end;
  let text = String.sub c.src start (c.pos - start) in
  if !integral then
    match int_of_string_opt text with
    | Some i -> J.Int i
    | None -> J.Float (float_of_string text)
  else J.Float (float_of_string text)

let rec parse_value c =
  skip_ws c;
  if at_end c then fail c.pos "unexpected end of input";
  match cur c with
  | '"' -> J.Str (parse_string_body c)
  | 't' -> expect_word c "true" (J.Bool true)
  | 'f' -> expect_word c "false" (J.Bool false)
  | 'n' -> expect_word c "null" J.Null
  | '{' ->
      advance c;
      skip_ws c;
      if peek_is c '}' then begin
        advance c;
        J.Obj []
      end
      else
        let rec members acc =
          skip_ws c;
          let key = parse_string_body c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          if peek_is c ',' then begin
            advance c;
            members ((key, v) :: acc)
          end
          else if peek_is c '}' then begin
            advance c;
            J.Obj (List.rev ((key, v) :: acc))
          end
          else fail c.pos "expected , or } in object"
        in
        members []
  | '[' ->
      advance c;
      skip_ws c;
      if peek_is c ']' then begin
        advance c;
        J.List []
      end
      else
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          if peek_is c ',' then begin
            advance c;
            items (v :: acc)
          end
          else if peek_is c ']' then begin
            advance c;
            J.List (List.rev (v :: acc))
          end
          else fail c.pos "expected , or ] in array"
        in
        items []
  | '-' | '0' .. '9' -> parse_number c
  | ch -> fail c.pos (Printf.sprintf "unexpected character %c" ch)

let parse s =
  let c = { src = s; pos = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    if c.pos <> String.length s then fail c.pos "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail (pos, msg) ->
      Error (Printf.sprintf "json: at offset %d: %s" pos msg)

let to_string = J.json_to_string

(* -- accessors -------------------------------------------------------- *)

let member key = function
  | J.Obj fields -> List.assoc_opt key fields
  | _ -> None

let string_opt = function Some (J.Str s) -> Some s | _ -> None
let int_opt = function Some (J.Int i) -> Some i | _ -> None
let bool_opt = function Some (J.Bool b) -> Some b | _ -> None

let list_opt = function Some (J.List l) -> Some l | _ -> None

let string_field key j = string_opt (member key j)
let int_field key j = int_opt (member key j)
let bool_field key j = bool_opt (member key j)
let list_field key j = list_opt (member key j)
