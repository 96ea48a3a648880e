type t = Interval.t list
(* Invariant: sorted by start, pairwise disjoint and non-adjacent. *)

let empty = []
let is_empty t = t = []
let singleton i = [ i ]
let to_list t = t
let cardinality = List.length

(* Two intervals can be merged when they overlap or touch. *)
let mergeable (a : Interval.t) (b : Interval.t) =
  match a.stop with
  | None -> true
  | Some e -> Time_point.compare b.start e <= 0

let merge (a : Interval.t) (b : Interval.t) : Interval.t =
  let stop =
    match (a.stop, b.stop) with
    | None, _ | _, None -> None
    | Some x, Some y -> Some (Time_point.max x y)
  in
  { start = Time_point.min a.start b.start; stop }

let normalize intervals =
  let sorted = List.sort Interval.compare intervals in
  let rec loop acc = function
    | [] -> List.rev acc
    | i :: rest -> (
        match acc with
        | prev :: acc' when mergeable prev i -> loop (merge prev i :: acc') rest
        | _ -> loop (i :: acc) rest)
  in
  loop [] sorted

let of_list = normalize

(* Does every interval of [a] lie within [b]? Intervals of a set are
   disjoint and non-adjacent, so each must lie within one interval of
   [b]. Linear and allocation-free. *)
let rec subset (a : t) (b : t) =
  match (a, b) with
  | [], _ -> true
  | _ :: _, [] -> false
  | (ia : Interval.t) :: ta, (ib : Interval.t) :: tb ->
      let ends_within =
        match (ia.stop, ib.stop) with
        | _, None -> true
        | None, Some _ -> false
        | Some ea, Some eb -> Time_point.compare ea eb <= 0
      in
      if Time_point.compare ib.start ia.start <= 0 && ends_within then subset ta b
      else
        (match ib.stop with Some eb -> Time_point.compare eb ia.start <= 0 | None -> false)
        && subset a tb

(* Both operands already satisfy the invariant, so union and
   intersection are linear two-pointer merges — no re-sort. When one
   operand contains the other the result is that operand itself, with
   nothing allocated. *)
let merge_union a b =
  let push acc i =
    match acc with
    | prev :: acc' when mergeable prev i -> merge prev i :: acc'
    | _ -> i :: acc
  in
  let rec go acc a b =
    match (a, b) with
    | [], [] -> List.rev acc
    | i :: rest, [] | [], i :: rest -> go (push acc i) rest []
    | (ia : Interval.t) :: ta, ib :: tb ->
        if Interval.compare ia ib <= 0 then go (push acc ia) ta b
        else go (push acc ib) a tb
  in
  go [] a b

let union a b =
  if subset a b then b else if subset b a then a else merge_union a b

let merge_inter a b =
  let rec go acc (a : t) (b : t) =
    match (a, b) with
    | [], _ | _, [] -> List.rev acc
    | (ia : Interval.t) :: ta, (ib : Interval.t) :: tb -> (
        let acc =
          match Interval.intersect ia ib with Some i -> i :: acc | None -> acc
        in
        (* Drop whichever interval ends first; an open-ended interval is
           its list's last, so the other side advances. *)
        match (ia.stop, ib.stop) with
        | None, _ -> go acc a tb
        | _, None -> go acc ta b
        | Some ea, Some eb ->
            if Time_point.compare ea eb <= 0 then go acc ta b else go acc a tb)
  in
  go [] a b

let inter a b =
  if subset a b then a else if subset b a then b else merge_inter a b

let overlaps a b =
  let rec go (a : t) (b : t) =
    match (a, b) with
    | [], _ | _, [] -> false
    | (ia : Interval.t) :: ta, (ib : Interval.t) :: tb -> (
        Interval.overlaps ia ib
        ||
        match (ia.stop, ib.stop) with
        | None, _ -> go a tb
        | _, None -> go ta b
        | Some ea, Some eb ->
            if Time_point.compare ea eb <= 0 then go ta b else go a tb)
  in
  go a b

let contains t at = List.exists (fun i -> Interval.contains i at) t

let first_start = function [] -> None | (i : Interval.t) :: _ -> Some i.start

let last_moment t =
  match List.rev t with
  | [] -> `Never
  | (last : Interval.t) :: _ -> (
      match last.stop with None -> `Still_exists | Some e -> `Ended e)

let equal a b = List.length a = List.length b && List.for_all2 Interval.equal a b

let add_to_buffer b t =
  Buffer.add_char b '{';
  List.iteri
    (fun k i ->
      if k > 0 then Buffer.add_string b "; ";
      Interval.add_to_buffer b i)
    t;
  Buffer.add_char b '}'

let pp ppf t =
  let b = Buffer.create 64 in
  add_to_buffer b t;
  Format.pp_print_string ppf (Buffer.contents b)
