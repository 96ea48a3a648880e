type t = { start : Time_point.t; stop : Time_point.t option }

let make start stop =
  (match stop with
  | Some e when Time_point.compare e start <= 0 ->
      invalid_arg "Interval.make: empty interval"
  | _ -> ());
  { start; stop }

let from start = { start; stop = None }

let between start stop = make start (Some stop)

let is_current t = t.stop = None

let contains t at =
  Time_point.compare t.start at <= 0
  && match t.stop with None -> true | Some e -> Time_point.compare at e < 0

let overlaps a b =
  let a_before_b_end =
    match b.stop with None -> true | Some e -> Time_point.compare a.start e < 0
  in
  let b_before_a_end =
    match a.stop with None -> true | Some e -> Time_point.compare b.start e < 0
  in
  a_before_b_end && b_before_a_end

let intersect a b =
  if not (overlaps a b) then None
  else
    let start = Time_point.max a.start b.start in
    let stop =
      match (a.stop, b.stop) with
      | None, None -> None
      | Some e, None | None, Some e -> Some e
      | Some e1, Some e2 -> Some (Time_point.min e1 e2)
    in
    Some { start; stop }

let close t at =
  match t.stop with
  | Some _ -> invalid_arg "Interval.close: already closed"
  | None ->
      if Time_point.compare at t.start <= 0 then
        invalid_arg "Interval.close: close time before start"
      else { t with stop = Some at }

let duration_seconds ~now t =
  let stop = match t.stop with Some e -> e | None -> now in
  Time_point.diff_seconds stop t.start

let equal a b =
  Time_point.equal a.start b.start
  &&
  match (a.stop, b.stop) with
  | None, None -> true
  | Some x, Some y -> Time_point.equal x y
  | _ -> false

let compare a b =
  match Time_point.compare a.start b.start with
  | 0 -> (
      match (a.stop, b.stop) with
      | None, None -> 0
      | None, Some _ -> 1
      | Some _, None -> -1
      | Some x, Some y -> Time_point.compare x y)
  | c -> c

let add_to_buffer b t =
  Buffer.add_char b '[';
  Time_point.add_to_buffer b t.start;
  Buffer.add_string b ", ";
  Option.iter (Time_point.add_to_buffer b) t.stop;
  Buffer.add_char b ')'

let to_string t =
  let b = Buffer.create 48 in
  add_to_buffer b t;
  Buffer.contents b

let pp ppf t = Format.pp_print_string ppf (to_string t)
