type transition = Match of Rpe.atom | Skip

(* Which element kinds a transition may consume: node, edge, or both. *)
type kinds = { k_node : bool; k_edge : bool }

type t = {
  n_states : int;
  moves : (transition * kinds * int) list array; (* consuming transitions *)
  eps : int list array;
  start_state : int;
  accept : int;
}

type states = int list

(* -- construction --------------------------------------------------- *)

type builder = {
  mutable next : int;
  mutable b_moves : (int * transition * int) list;
  mutable b_eps : (int * int) list;
}

let fresh b =
  let s = b.next in
  b.next <- s + 1;
  s

let add_move b s tr t = b.b_moves <- (s, tr, t) :: b.b_moves
let add_eps b s t = b.b_eps <- (s, t) :: b.b_eps

(* A junction between two concatenated sub-RPEs: either adjacent (eps)
   or one unmatched element in between (skip) — the paper's 4-case
   concatenation rule. *)
let junction b a_accept b_start =
  add_eps b a_accept b_start;
  add_move b a_accept Skip b_start

let rec build b (r : Rpe.norm) =
  match r with
  | Rpe.N_atom a ->
      let s = fresh b and t = fresh b in
      add_move b s (Match a) t;
      (s, t)
  | Rpe.N_seq rs ->
      let frags = List.map (build b) rs in
      let rec link = function
        | [ (s, t) ] -> (s, t)
        | (s, t) :: ((s', _) :: _ as rest) ->
            junction b t s';
            let _, last_t = link rest in
            (s, last_t)
        | [] -> invalid_arg "Nfa.build: empty sequence"
      in
      link frags
  | Rpe.N_alt rs ->
      let s = fresh b and t = fresh b in
      List.iter
        (fun r ->
          let s', t' = build b r in
          add_eps b s s';
          add_eps b t' t)
        rs;
      (s, t)
  | Rpe.N_rep (r, i, j) ->
      (* Unroll into j copies with junctions; accepting after each copy
         with index >= max i 1; the whole block is skippable when i=0. *)
      let s = fresh b and t = fresh b in
      let copies = List.init j (fun _ -> build b r) in
      let rec wire k prev_accept = function
        | [] -> ()
        | (cs, ct) :: rest ->
            (match prev_accept with
            | None -> add_eps b s cs
            | Some pa -> junction b pa cs);
            if k >= max i 1 then add_eps b ct t;
            wire (k + 1) (Some ct) rest
      in
      wire 1 None copies;
      if i = 0 then add_eps b s t;
      (s, t)

(* Fixpoint kind inference: pathway elements alternate node/edge, so a
   transition may consume kind k only if some transition that can
   follow it consumes the flipped kind — or it can reach the accept
   state directly, in which case it consumed the pathway's final
   element, a node ([edge_final] relaxes that to either kind: the
   meet-in-the-middle evaluator joins two half-walks on a shared edge,
   so its half-automata accept edge-ending sequences). *)
let infer_kinds ~kind_of ~edge_final n_states raw_moves eps accept =
  let moves_arr = Array.of_list raw_moves in
  let n_trans = Array.length moves_arr in
  let kinds =
    Array.map
      (fun (_, tr, _) ->
        match tr with
        | Skip -> { k_node = true; k_edge = true }
        | Match a -> (
            match kind_of a with
            | Some `Node -> { k_node = true; k_edge = false }
            | Some `Edge -> { k_node = false; k_edge = true }
            | None -> { k_node = true; k_edge = true }))
      moves_arr
  in
  let leaving = Array.make n_states [] in
  Array.iteri
    (fun i (s, _, _) -> leaving.(s) <- i :: leaving.(s))
    moves_arr;
  (* [closure_has test s]: does some state of eps_closure(s) pass
     [test]? A depth-first search; one stamp array serves every search,
     so the fixpoint below allocates nothing. *)
  let stamp = Array.make n_states (-1) and search = ref 0 in
  let rec reach test x =
    if stamp.(x) = !search then false
    else begin
      stamp.(x) <- !search;
      test x || reach_any test eps.(x)
    end
  and reach_any test = function
    | [] -> false
    | y :: ys -> reach test y || reach_any test ys
  in
  let closure_has test s =
    incr search;
    reach test s
  in
  let rec any_admits ~node = function
    | [] -> false
    | j :: js ->
        (if node then kinds.(j).k_node else kinds.(j).k_edge)
        || any_admits ~node js
  in
  let leaves_node x = any_admits ~node:true leaving.(x) in
  let leaves_edge x = any_admits ~node:false leaving.(x) in
  let is_accept x = x = accept in
  (* accept_after.(i): accept reachable without consuming. *)
  let accept_after =
    Array.map (fun (_, _, target) -> closure_has is_accept target) moves_arr
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n_trans - 1 do
      let k = kinds.(i) in
      let _, _, target = moves_arr.(i) in
      (* Consuming a node is feasible if we may stop here (final
         pathway element) or an edge-consuming transition follows. *)
      let node_ok =
        k.k_node && (accept_after.(i) || closure_has leaves_edge target)
      in
      let edge_ok =
        k.k_edge
        && ((edge_final && accept_after.(i)) || closure_has leaves_node target)
      in
      if node_ok <> k.k_node || edge_ok <> k.k_edge then begin
        kinds.(i) <- { k_node = node_ok; k_edge = edge_ok };
        changed := true
      end
    done
  done;
  (moves_arr, kinds)

let compile ?(lead_skip = true) ?(trail_skip = true) ?(edge_final = false)
    ?(kind_of = fun _ -> None) r =
  let b = { next = 0; b_moves = []; b_eps = [] } in
  let s, t = build b r in
  let start_state =
    if lead_skip then begin
      let s' = fresh b in
      add_eps b s' s;
      add_move b s' Skip s;
      s'
    end
    else s
  in
  let accept =
    if trail_skip then begin
      let t' = fresh b in
      add_eps b t t';
      add_move b t Skip t';
      t'
    end
    else t
  in
  let n = b.next in
  let eps = Array.make n [] in
  List.iter (fun (x, y) -> eps.(x) <- y :: eps.(x)) b.b_eps;
  let moves_arr, kinds = infer_kinds ~kind_of ~edge_final n b.b_moves eps accept in
  let moves = Array.make n [] in
  Array.iteri
    (fun i (x, tr, y) -> moves.(x) <- (tr, kinds.(i), y) :: moves.(x))
    moves_arr;
  { n_states = n; moves; eps; start_state; accept }

let move_count t =
  Array.fold_left (fun acc ms -> acc + List.length ms) 0 t.moves

(* -- product pruning ------------------------------------------------- *)

(* The abstract side of the product automaton is supplied by the caller
   as an oracle over an opaque frontier domain ['f] (in practice: the
   schema-reachability abstract interpretation of [Nepal_analysis]). A
   step returning [None] means "no conforming element sequence can take
   this transition from here". *)
type 'f oracle = {
  o_start : 'f;
  o_step_match : 'f -> Rpe.atom -> is_node:bool -> 'f option;
  o_step_skip : 'f -> is_node:bool -> 'f option;
  o_join : 'f -> 'f -> 'f;
  o_equal : 'f -> 'f -> bool;
}

(* The oracle only ever reads an atom's class (never its predicates),
   so the pruning decisions for two automata with identical structure
   and classes are identical. [signature] canonicalizes exactly that
   class-level structure, letting callers memoize [prune_mask] results
   and replay them onto fresh automata (whose atoms carry the current
   query's predicates) with [apply_mask]. *)
let signature t =
  let b = Buffer.create (32 * t.n_states) in
  (* digits of a non-negative int, without an intermediate string *)
  let rec add_int n =
    if n >= 10 then add_int (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))
  in
  add_int t.n_states;
  Buffer.add_char b '|';
  add_int t.start_state;
  Buffer.add_char b '|';
  add_int t.accept;
  Array.iter
    (fun ms ->
      Buffer.add_char b ';';
      List.iter
        (fun (tr, k, dst) ->
          (match tr with
          | Match a -> Buffer.add_string b a.Rpe.cls
          | Skip -> Buffer.add_char b '.');
          Buffer.add_char b (if k.k_node then 'n' else '-');
          Buffer.add_char b (if k.k_edge then 'e' else '-');
          add_int dst;
          Buffer.add_char b ' ')
        ms)
    t.moves;
  Array.iter
    (fun es ->
      Buffer.add_char b ';';
      List.iter
        (fun dst ->
          add_int dst;
          Buffer.add_char b ' ')
        es)
    t.eps;
  Buffer.contents b

(* A pruning verdict detached from the automaton it was computed on:
   one byte per transition, in [moves] order state by state, then one per
   eps edge in [eps] order — so it replays onto any automaton with the
   same signature — plus the abstract frontier at the accept state. A
   move's byte is its kept kinds ([node_bit] lor [edge_bit]), [blocked]
   (source state reached, abstract step empty) or [dropped] (any other
   deletion); an eps edge's byte is [kept] or [dropped]. Memoized masks
   live as long as their memo slot, hence the compact form. *)
type 'f prune_mask = {
  pm_signature : string;
  pm_moves : string;
  pm_eps : string;
  pm_accept : 'f option;
}

let dropped = '\000'
let kept = '\001'
let node_bit = 1
let edge_bit = 2
let blocked = '\004'

(* A move byte's kept kinds; [None] for [dropped] and [blocked]. *)
let kinds_of_byte =
  let kept_kinds =
    [|
      None;
      Some { k_node = true; k_edge = false };
      Some { k_node = false; k_edge = true };
      Some { k_node = true; k_edge = true };
    |]
  in
  fun c -> kept_kinds.(Char.code c land (node_bit lor edge_bit))

(* Prune the automaton against the oracle: a forward dataflow pass
   associates with each NFA state the join of every abstract frontier
   reachable there (a monotone fixpoint over the finite abstract
   lattice), then transitions whose abstract step is dead are deleted,
   per-transition kinds are narrowed to the feasible kinds, and states
   that cannot reach the accept state through surviving transitions are
   stranded (all their transitions dropped). The result accepts exactly
   the subset of the original language realizable by data conforming to
   the oracle's schema — so walks of conforming stores are unchanged,
   while dead rounds and dead atom classes disappear from
   [outgoing_atoms]/[can_skip]. *)
let prune_mask (o : 'f oracle) t =
  let n = t.n_states in
  let fr : 'f option array = Array.make n None in
  fr.(t.start_state) <- Some o.o_start;
  let changed = ref true in
  let join_into idx f =
    match fr.(idx) with
    | None ->
        fr.(idx) <- Some f;
        changed := true
    | Some g ->
        let j = o.o_join g f in
        if not (o.o_equal j g) then begin
          fr.(idx) <- Some j;
          changed := true
        end
  in
  (* Abstract effect of one transition on one kind. *)
  let step_kind f tr ~is_node =
    match tr with
    | Match a -> o.o_step_match f a ~is_node
    | Skip -> o.o_step_skip f ~is_node
  in
  let step_all f (tr, (kinds : kinds), _) =
    let acc = ref None in
    let add = function
      | None -> ()
      | Some f' ->
          acc := Some (match !acc with None -> f' | Some g -> o.o_join g f')
    in
    if kinds.k_node then add (step_kind f tr ~is_node:true);
    if kinds.k_edge then add (step_kind f tr ~is_node:false);
    !acc
  in
  while !changed do
    changed := false;
    for s = 0 to n - 1 do
      match fr.(s) with
      | None -> ()
      | Some f ->
          List.iter (fun s' -> join_into s' f) t.eps.(s);
          List.iter
            (fun ((_, _, dst) as m) ->
              match step_all f m with None -> () | Some f' -> join_into dst f')
            t.moves.(s)
    done
  done;
  (* Per transition, the kinds its abstract step admits ([node_bit] lor
     [edge_bit]); 0 when the step is empty or its source unreached. *)
  let admitted =
    Array.init n (fun s ->
        List.map
          (fun (tr, (kinds : kinds), _) ->
            match fr.(s) with
            | None -> 0
            | Some f ->
                (if kinds.k_node && step_kind f tr ~is_node:true <> None then
                   node_bit
                 else 0)
                lor
                if kinds.k_edge && step_kind f tr ~is_node:false <> None then
                  edge_bit
                else 0)
          t.moves.(s))
  in
  (* Backward liveness to the accept state over the surviving graph. *)
  let rev = Array.make n [] in
  for s = 0 to n - 1 do
    if fr.(s) <> None then begin
      List.iter (fun s' -> rev.(s') <- s :: rev.(s')) t.eps.(s);
      List.iter2
        (fun (_, _, dst) k -> if k <> 0 then rev.(dst) <- s :: rev.(dst))
        t.moves.(s) admitted.(s)
    end
  done;
  let useful = Array.make n false in
  let rec mark s =
    if not useful.(s) then begin
      useful.(s) <- true;
      List.iter mark rev.(s)
    end
  in
  mark t.accept;
  let pm_moves = Bytes.create (move_count t) and i = ref 0 in
  Array.iteri
    (fun s ms ->
      List.iter2
        (fun (_, _, dst) k ->
          Bytes.set pm_moves !i
            (if k = 0 then if fr.(s) = None then dropped else blocked
             else if useful.(s) && useful.(dst) then Char.chr k
             else dropped);
          incr i)
        ms admitted.(s))
    t.moves;
  let pm_eps = Buffer.create 16 in
  Array.iteri
    (fun s es ->
      List.iter
        (fun dst ->
          Buffer.add_char pm_eps
            (if fr.(s) <> None && useful.(s) && useful.(dst) then kept
             else dropped))
        es)
    t.eps;
  {
    pm_signature = signature t;
    pm_moves = Bytes.unsafe_to_string pm_moves;
    pm_eps = Buffer.contents pm_eps;
    pm_accept = fr.(t.accept);
  }

let apply_mask t pm =
  if pm.pm_signature <> signature t then
    invalid_arg "Nfa.apply_mask: automaton does not match the mask";
  let i = ref 0 and j = ref 0 in
  let rec keep_moves = function
    | [] -> []
    | (tr, _, dst) :: rest -> (
        let k = kinds_of_byte pm.pm_moves.[!i] in
        incr i;
        match k with
        | Some k -> (tr, k, dst) :: keep_moves rest
        | None -> keep_moves rest)
  in
  let rec keep_eps = function
    | [] -> []
    | dst :: rest ->
        let keep = pm.pm_eps.[!j] = kept in
        incr j;
        if keep then dst :: keep_eps rest else keep_eps rest
  in
  let moves = Array.init (Array.length t.moves) (fun s -> keep_moves t.moves.(s)) in
  let eps = Array.init (Array.length t.eps) (fun s -> keep_eps t.eps.(s)) in
  { t with moves; eps }

let accept_frontier pm = pm.pm_accept

type verdict = Live | Blocked | Unused

(* Per atom, the best verdict over the Match transitions compiled from
   it: one per unrolled copy of its enclosing repetitions. *)
let match_verdict t pm =
  if pm.pm_signature <> signature t then
    invalid_arg "Nfa.match_verdict: automaton does not match the mask";
  fun (a : Rpe.atom) ->
    let best = ref Unused and i = ref 0 in
    Array.iter
      (List.iter (fun (tr, _, _) ->
           let byte = pm.pm_moves.[!i] in
           incr i;
           match tr with
           | Match a' when a' == a ->
               if kinds_of_byte byte <> None then best := Live
               else if byte = blocked && !best = Unused then best := Blocked
           | Match _ | Skip -> ()))
      t.moves;
    !best

(* -- simulation ----------------------------------------------------- *)

let eps_closure t states =
  let seen = Array.make t.n_states false in
  let rec visit s =
    if not seen.(s) then begin
      seen.(s) <- true;
      List.iter visit t.eps.(s)
    end
  in
  List.iter visit states;
  let acc = ref [] in
  for s = t.n_states - 1 downto 0 do
    if seen.(s) then acc := s :: !acc
  done;
  !acc

let start t = eps_closure t [ t.start_state ]

let kind_admits kinds ~is_node =
  if is_node then kinds.k_node else kinds.k_edge

let step_gen t ~matches ~skips ~is_node states =
  let next = ref [] in
  List.iter
    (fun s ->
      List.iter
        (fun (tr, kinds, s') ->
          if kind_admits kinds ~is_node then
            match tr with
            | Match a -> if matches a then next := s' :: !next
            | Skip -> if skips then next := s' :: !next)
        t.moves.(s))
    states;
  eps_closure t !next

let step t ~matches ~is_node states =
  step_gen t ~matches ~skips:true ~is_node states

let step_via t via ~is_node states =
  match via with
  | Match a -> step_gen t ~matches:(fun b -> b = a) ~skips:false ~is_node states
  | Skip -> step_gen t ~matches:(fun _ -> false) ~skips:true ~is_node states

let accepting t states = List.mem t.accept states

let outgoing_atoms t states =
  List.concat_map
    (fun s ->
      List.filter_map
        (fun (tr, kinds, _) ->
          match tr with
          | Match a when kinds.k_node || kinds.k_edge -> Some a
          | Match _ | Skip -> None)
        t.moves.(s))
    states

let can_skip t ~is_node states =
  List.exists
    (fun s ->
      List.exists
        (fun (tr, kinds, _) ->
          match tr with Skip -> kind_admits kinds ~is_node | Match _ -> false)
        t.moves.(s))
    states

(* -- per-walk memoization ------------------------------------------- *)

module Memo = struct
  type nfa = t

  (* Distinct state sets per walk number in the tens while partials
     number in the thousands, so interning the sorted sets and keying
     the derived queries by the id collapses almost all recomputation.
     Not thread-safe: create one per walk (per domain). *)
  type t = {
    nfa : nfa;
    ids : (states, int) Hashtbl.t;
    mutable next_id : int;
    atoms : (int, Rpe.atom list) Hashtbl.t;
    skips : (int * bool, bool) Hashtbl.t;
    accepts : (int, bool) Hashtbl.t;
  }

  let create nfa =
    {
      nfa;
      ids = Hashtbl.create 32;
      next_id = 0;
      atoms = Hashtbl.create 32;
      skips = Hashtbl.create 32;
      accepts = Hashtbl.create 32;
    }

  (* State sets are sorted and duplicate-free (eps_closure emits them in
     ascending order), so structural equality is canonical. *)
  let id m states =
    match Hashtbl.find_opt m.ids states with
    | Some i -> i
    | None ->
        let i = m.next_id in
        m.next_id <- i + 1;
        Hashtbl.replace m.ids states i;
        i

  let outgoing_atoms m ~sid states =
    match Hashtbl.find_opt m.atoms sid with
    | Some a -> a
    | None ->
        let a = outgoing_atoms m.nfa states in
        Hashtbl.replace m.atoms sid a;
        a

  let can_skip m ~sid ~is_node states =
    match Hashtbl.find_opt m.skips (sid, is_node) with
    | Some b -> b
    | None ->
        let b = can_skip m.nfa ~is_node states in
        Hashtbl.replace m.skips (sid, is_node) b;
        b

  let accepting m ~sid states =
    match Hashtbl.find_opt m.accepts sid with
    | Some b -> b
    | None ->
        let b = accepting m.nfa states in
        Hashtbl.replace m.accepts sid b;
        b
end
