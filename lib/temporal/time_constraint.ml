type t =
  | Snapshot
  | At of Time_point.t
  | Range of Time_point.t * Time_point.t

let snapshot = Snapshot
let at t = At t

let range a b =
  if Time_point.compare b a <= 0 then invalid_arg "Time_constraint.range: empty"
  else Range (a, b)


let admits t (iv : Interval.t) =
  match t with
  | Snapshot -> Interval.is_current iv
  | At p -> Interval.contains iv p
  | Range (a, b) ->
      (* [Interval.overlaps iv [a, b)], without building the window. *)
      Time_point.compare iv.start b < 0
      && (match iv.stop with None -> true | Some e -> Time_point.compare a e < 0)

let restrict t (iv : Interval.t) =
  match t with
  | Snapshot -> if Interval.is_current iv then Some iv else None
  | At p -> if Interval.contains iv p then Some iv else None
  | Range (a, b) ->
      (* The paper's time-range queries report the *maximal* range a
         pathway held, which can extend beyond the query window (the
         window only decides qualification). *)
      if Interval.overlaps iv (Interval.between a b) then Some iv else None

let equal a b =
  match (a, b) with
  | Snapshot, Snapshot -> true
  | At x, At y -> Time_point.equal x y
  | Range (x, y), Range (x', y') ->
      Time_point.equal x x' && Time_point.equal y y'
  | (Snapshot | At _ | Range _), _ -> false

let pp ppf = function
  | Snapshot -> Format.pp_print_string ppf "SNAPSHOT"
  | At p -> Format.fprintf ppf "AT '%a'" Time_point.pp p
  | Range (a, b) ->
      Format.fprintf ppf "AT '%a' : '%a'" Time_point.pp a Time_point.pp b
