type t = int64

let compare = Int64.compare
let equal = Int64.equal
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let epoch = 0L

let usec_per_sec = 1_000_000L

let of_unix_seconds s = Int64.of_float (s *. 1e6)
let to_unix_seconds t = Int64.to_float t /. 1e6

let add_seconds t s = Int64.add t (Int64.of_float (s *. 1e6))
let add_days t d = add_seconds t (float_of_int d *. 86_400.)
let diff_seconds a b = Int64.to_float (Int64.sub a b) /. 1e6

(* Civil-date conversion, Howard Hinnant's days_from_civil algorithm.
   Works for all dates of interest; avoids depending on Unix. *)
let days_from_civil ~y ~m ~d =
  let y = if m <= 2 then y - 1 else y in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - era * 400 in
  let mp = (m + 9) mod 12 in
  let doy = ((153 * mp) + 2) / 5 + d - 1 in
  let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
  (era * 146097) + doe - 719468

let civil_from_days z =
  let z = z + 719468 in
  let era = (if z >= 0 then z else z - 146096) / 146097 in
  let doe = z - (era * 146097) in
  let yoe = (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365 in
  let y = yoe + era * 400 in
  let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
  let mp = ((5 * doy) + 2) / 153 in
  let d = doy - (((153 * mp) + 2) / 5) + 1 in
  let m = if mp < 10 then mp + 3 else mp - 9 in
  let y = if m <= 2 then y + 1 else y in
  (y, m, d)

let is_leap y = (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0

let days_in_month y m =
  match m with
  | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
  | 4 | 6 | 9 | 11 -> 30
  | 2 -> if is_leap y then 29 else 28
  | _ -> 0

let is_digit c = c >= '0' && c <= '9'

(* Digit runs longer than 9 could wrap the accumulator past the field
   guards as a negative value, so they are rejected outright; no
   timestamp field needs more digits than that. *)
let parse_int s lo hi =
  let rec loop i acc =
    if i >= hi then acc else loop (i + 1) ((acc * 10) + (Char.code s.[i] - 48))
  in
  let rec check i = i >= hi || (is_digit s.[i] && check (i + 1)) in
  if lo >= hi || hi - lo > 9 || not (check lo) then None else Some (loop lo 0)

let of_string s =
  let s = String.trim s in
  let err () = Error (Printf.sprintf "invalid timestamp %S" s) in
  let n = String.length s in
  let date_part, time_part =
    match String.index_opt s ' ' with
    | Some i -> (String.sub s 0 i, String.sub s (i + 1) (n - i - 1))
    | None -> (s, "")
  in
  match String.split_on_char '-' date_part with
  | [ ys; ms; ds ]
    when String.length ys = 4 && String.length ms = 2 && String.length ds = 2
    -> (
      let pi str = parse_int str 0 (String.length str) in
      match (pi ys, pi ms, pi ds) with
      | Some y, Some m, Some d
        when m >= 1 && m <= 12 && d >= 1 && d <= days_in_month y m -> (
          let days = days_from_civil ~y ~m ~d in
          let base = Int64.mul (Int64.of_int days) (Int64.mul 86_400L 1L) in
          let base_usec = Int64.mul base usec_per_sec in
          if time_part = "" then Ok base_usec
          else
            let hms, frac =
              match String.index_opt time_part '.' with
              | Some i ->
                  ( String.sub time_part 0 i,
                    Some
                      (String.sub time_part (i + 1)
                         (String.length time_part - i - 1)) )
              | None -> (time_part, None)
            in
            (* Each field must be its own 1-2 digit run; a part that fails
               to parse is an error, never silently dropped. *)
            let part str =
              let l = String.length str in
              if l < 1 || l > 2 then None else parse_int str 0 l
            in
            let fields =
              match String.split_on_char ':' hms with
              | [ hs; mis ] -> (
                  match (part hs, part mis) with
                  | Some h, Some mi -> Some (h, mi, None)
                  | _ -> None)
              | [ hs; mis; ses ] -> (
                  match (part hs, part mis, part ses) with
                  | Some h, Some mi, Some se -> Some (h, mi, Some se)
                  | _ -> None)
              | _ -> None
            in
            match fields with
            | Some (h, mi, se)
              when h <= 23 && mi <= 59
                   && (match se with Some se -> se <= 59 | None -> frac = None)
              -> (
                let secs = (h * 3600) + (mi * 60) + Option.value se ~default:0 in
                let frac_usec =
                  match frac with
                  | None -> Some 0
                  | Some "" -> None
                  | Some f when not (String.for_all is_digit f) -> None
                  | Some f ->
                      (* Truncate to microsecond precision. *)
                      let padded =
                        if String.length f >= 6 then String.sub f 0 6
                        else f ^ String.make (6 - String.length f) '0'
                      in
                      parse_int padded 0 6
                in
                match frac_usec with
                | None -> err ()
                | Some frac_usec ->
                    Ok
                      (Int64.add base_usec
                         (Int64.add
                            (Int64.mul (Int64.of_int secs) usec_per_sec)
                            (Int64.of_int frac_usec))))
            | _ -> err ())
      | _ -> err ())
  | _ -> err ()

let of_string_exn s =
  match of_string s with Ok t -> t | Error e -> invalid_arg e

(* [v] zero-padded to [width] characters, as Printf's [%0*d] pads it. *)
let add_padded b width v =
  let digits = string_of_int (abs v) in
  if v < 0 then Buffer.add_char b '-';
  for _ = String.length digits + (if v < 0 then 1 else 0) to width - 1 do
    Buffer.add_char b '0'
  done;
  Buffer.add_string b digits

let add_to_buffer b t =
  let usec = Int64.to_int (Int64.rem t usec_per_sec) in
  let usec, secs64 =
    if usec < 0 then (usec + 1_000_000, Int64.sub (Int64.div t usec_per_sec) 1L)
    else (usec, Int64.div t usec_per_sec)
  in
  let secs = Int64.to_int secs64 in
  let days = if secs >= 0 then secs / 86400 else (secs - 86399) / 86400 in
  let sod = secs - (days * 86400) in
  let y, m, d = civil_from_days days in
  add_padded b 4 y;
  Buffer.add_char b '-';
  add_padded b 2 m;
  Buffer.add_char b '-';
  add_padded b 2 d;
  Buffer.add_char b ' ';
  add_padded b 2 (sod / 3600);
  Buffer.add_char b ':';
  add_padded b 2 (sod mod 3600 / 60);
  Buffer.add_char b ':';
  add_padded b 2 (sod mod 60);
  if usec <> 0 then begin
    Buffer.add_char b '.';
    add_padded b 6 usec
  end

let to_string t =
  let b = Buffer.create 26 in
  add_to_buffer b t;
  Buffer.contents b

let pp ppf t = Format.pp_print_string ppf (to_string t)
