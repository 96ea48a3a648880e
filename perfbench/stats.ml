let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match xs with
  | [] -> invalid_arg "Stats.median: empty"
  | _ ->
      let a = sorted_array xs in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's statistics.quantiles, method="exclusive", n=4. *)
let quartiles xs =
  let a = sorted_array xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need two values";
  let m = ld + 1 in
  let cut i =
    let j = i * m / 4 in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (cut 1, cut 2, cut 3)

type rank = { value : float; rank : int; beyond : int }

let nearest_rank p sorted =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.nearest_rank: empty";
  if p <= 0 || p > 100 then invalid_arg "Stats.nearest_rank: p";
  let rank = max 1 (((p * n) + 99) / 100) in
  { value = sorted.(rank - 1); rank; beyond = n - rank }

type answer = { count : int; digest : string }

let answer_of ~count ~text = { count; digest = Digest.to_hex (Digest.string text) }

type checker = {
  lock : Mutex.t;
  table : (string, answer) Hashtbl.t;
  mutable checked : int;
  mutable failed : int;
  mutable failures : string list;  (* newest first, at most [keep] *)
}

let keep = 5

let checker () =
  {
    lock = Mutex.create ();
    table = Hashtbl.create 256;
    checked = 0;
    failed = 0;
    failures = [];
  }

let locked c f =
  Mutex.lock c.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) f

let expect c q a = locked c (fun () -> Hashtbl.replace c.table q a)
let expected c q = locked c (fun () -> Hashtbl.find_opt c.table q)

let fail_locked c msg =
  c.failed <- c.failed + 1;
  if List.length c.failures < keep then c.failures <- msg :: c.failures

let record_failure c msg = locked c (fun () -> fail_locked c msg)

let verify c q reply =
  locked c (fun () ->
      c.checked <- c.checked + 1;
      let problem =
        match (reply, Hashtbl.find_opt c.table q) with
        | Error e, _ -> Some ("error reply: " ^ e)
        | Ok _, None -> Some "no expected answer"
        | Ok got, Some want when got.count <> want.count ->
            Some (Printf.sprintf "count %d, expected %d" got.count want.count)
        | Ok got, Some want when got.digest <> want.digest ->
            Some "result text differs from the expected rendering"
        | Ok _, Some _ -> None
      in
      match problem with
      | None -> true
      | Some why ->
          fail_locked c (why ^ " in: " ^ q);
          false)

let checked c = locked c (fun () -> c.checked)
let failed c = locked c (fun () -> c.failed)
let failures c = locked c (fun () -> List.rev c.failures)
